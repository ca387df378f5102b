package msm

import (
	"testing"

	"mmfs/internal/continuity"
	"mmfs/internal/disk"
)

// qosTestManager builds a manager on the default geometry with QoS
// enabled at the given stride bound.
func qosTestManager(maxStride int) *Manager {
	g := disk.DefaultGeometry()
	m := New(disk.MustNew(g), continuity.AdmissionFor(DeviceFor(g)))
	m.SetQoS(QoSPolicy{MaxStride: maxStride})
	return m
}

// qosTmpl is the admission template the white-box QoS tests charge
// their synthetic plays at.
func qosTmpl(m *Manager) continuity.Request {
	g := disk.DefaultGeometry()
	return continuity.Request{
		Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30,
		Scattering: continuity.Seconds(g.AccessTime(32)),
	}
}

// addSyntheticPlay injects a live disk-bound play directly into the
// manager's request table — the ordering passes only look at class,
// id, stride, and the admission request, so no plan or disk I/O is
// needed: its plan map is that of a plan with no blocks.
func addSyntheticPlay(m *Manager, id RequestID, class continuity.Class, stride int) *request {
	r := &request{
		id: id, kind: Play, class: class, adm: qosTmpl(m),
		play: &playState{stride: stride, pm: m.planMap(nil)},
	}
	m.reqs = append(m.reqs, r)
	return r
}

func TestShedVictimOrdering(t *testing.T) {
	type play struct {
		id          RequestID
		class       continuity.Class
		stride      int
		done        bool
		cacheServed bool
	}
	cases := []struct {
		name  string
		plays []play
		cand  continuity.Class
		want  RequestID // 0 = no victim
	}{
		{
			name: "lowest class first",
			plays: []play{
				{id: 1, class: continuity.Standard, stride: 1},
				{id: 2, class: continuity.BestEffort, stride: 1},
				{id: 3, class: continuity.Standard, stride: 1},
			},
			cand: continuity.Premium,
			want: 2,
		},
		{
			name: "admission-order tiebreak: latest admitted demoted first",
			plays: []play{
				{id: 1, class: continuity.BestEffort, stride: 1},
				{id: 2, class: continuity.BestEffort, stride: 1},
				{id: 3, class: continuity.BestEffort, stride: 1},
			},
			cand: continuity.Standard,
			want: 3,
		},
		{
			name: "only strictly lower classes are shed",
			plays: []play{
				{id: 1, class: continuity.Standard, stride: 1},
				{id: 2, class: continuity.Standard, stride: 1},
			},
			cand: continuity.Standard,
			want: 0,
		},
		{
			name: "premium is never a victim",
			plays: []play{
				{id: 1, class: continuity.Premium, stride: 1},
				{id: 2, class: continuity.Premium, stride: 1},
			},
			cand: continuity.Premium,
			want: 0,
		},
		{
			name: "streams at the stride cap are exhausted",
			plays: []play{
				{id: 1, class: continuity.BestEffort, stride: 8},
				{id: 2, class: continuity.BestEffort, stride: 4},
			},
			cand: continuity.Premium,
			want: 2,
		},
		{
			name: "all at cap leaves no victim",
			plays: []play{
				{id: 1, class: continuity.BestEffort, stride: 8},
				{id: 2, class: continuity.Standard, stride: 8},
			},
			cand: continuity.Premium,
			want: 0,
		},
		{
			name: "done and cache-served streams are skipped",
			plays: []play{
				{id: 1, class: continuity.BestEffort, stride: 1, done: true},
				{id: 2, class: continuity.BestEffort, stride: 1, cacheServed: true},
				{id: 3, class: continuity.Standard, stride: 1},
			},
			cand: continuity.Premium,
			want: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := qosTestManager(8)
			for _, p := range tc.plays {
				r := addSyntheticPlay(m, p.id, p.class, p.stride)
				r.done = p.done
				r.cacheServed = p.cacheServed
			}
			v := m.shedVictim(tc.cand)
			switch {
			case tc.want == 0 && v != nil:
				t.Fatalf("want no victim, got id %d (class %v)", v.id, v.class)
			case tc.want != 0 && v == nil:
				t.Fatalf("want victim id %d, got none", tc.want)
			case tc.want != 0 && v.id != tc.want:
				t.Fatalf("want victim id %d, got id %d (class %v)", tc.want, v.id, v.class)
			}
		})
	}
}

func TestPromotesBefore(t *testing.T) {
	mk := func(id RequestID, c continuity.Class) *request {
		return &request{id: id, class: c}
	}
	cases := []struct {
		name string
		a, b *request
		want bool
	}{
		{"higher class first", mk(9, continuity.Standard), mk(1, continuity.BestEffort), true},
		{"lower class later", mk(1, continuity.BestEffort), mk(9, continuity.Standard), false},
		{"same class: earlier admission first", mk(1, continuity.Standard), mk(2, continuity.Standard), true},
		{"same class: later admission later", mk(2, continuity.Standard), mk(1, continuity.Standard), false},
		{"premium ahead of standard", mk(5, continuity.Premium), mk(4, continuity.Standard), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := promotesBefore(tc.a, tc.b); got != tc.want {
				t.Fatalf("promotesBefore(id%d/%v, id%d/%v) = %v, want %v",
					tc.a.id, tc.a.class, tc.b.id, tc.b.class, got, tc.want)
			}
		})
	}
}

// TestClassPassDemotionOrder overloads the manager (k forced below the
// population's transient bound) and checks the demote loop's class
// priority: no standard stream loses quality while a best-effort
// stream still has stride headroom, and premium is never touched.
func TestClassPassDemotionOrder(t *testing.T) {
	m := qosTestManager(8)
	m.ForceK(1) // far below any feasible k for this population
	addSyntheticPlay(m, 1, continuity.Premium, 1)
	addSyntheticPlay(m, 2, continuity.Standard, 1)
	addSyntheticPlay(m, 3, continuity.BestEffort, 1)
	addSyntheticPlay(m, 4, continuity.BestEffort, 1)
	m.classPass()

	for _, r := range m.reqs {
		if r.class == continuity.Premium && strideOf(r.play) != 1 {
			t.Fatalf("premium stream demoted to stride %d", r.play.stride)
		}
		if r.class == continuity.Standard && strideOf(r.play) > 1 {
			// A standard stream may only degrade once every
			// best-effort stream is at the cap.
			for _, o := range m.reqs {
				if o.class == continuity.BestEffort && strideOf(o.play) < m.qos.MaxStride {
					t.Fatalf("standard demoted to %d while best-effort id %d at stride %d has headroom",
						r.play.stride, o.id, o.play.stride)
				}
			}
		}
	}
	if m.Stats().LoadDemotions == 0 {
		t.Fatal("infeasible set triggered no demotions")
	}
	for _, r := range m.reqs {
		if r.class == continuity.BestEffort && strideOf(r.play) == 1 {
			t.Fatalf("best-effort id %d untouched under overload", r.id)
		}
	}
}

// TestClassPassPremiumOnlyNeverDemotes pins an all-premium population
// into overload: the pass must leave every stride alone and record no
// demotions — at worst the pre-pass violation exposure remains.
func TestClassPassPremiumOnlyNeverDemotes(t *testing.T) {
	m := qosTestManager(8)
	m.ForceK(1)
	for id := RequestID(1); id <= 4; id++ {
		addSyntheticPlay(m, id, continuity.Premium, 1)
	}
	m.classPass()
	for _, r := range m.reqs {
		if strideOf(r.play) != 1 {
			t.Fatalf("premium id %d demoted to stride %d", r.id, r.play.stride)
		}
	}
	if got := m.Stats().LoadDemotions; got != 0 {
		t.Fatalf("%d demotions in an all-premium set", got)
	}
}

// TestClassPassMonotoneRecovery gives a lightly loaded manager a set
// of degraded streams: the promote pass must only ever lower strides
// (never deepen one), and with ample slack it restores everyone to
// full rate.
func TestClassPassMonotoneRecovery(t *testing.T) {
	m := qosTestManager(8)
	m.ForceK(64) // generous round: the small set is easily feasible
	addSyntheticPlay(m, 1, continuity.Standard, 4)
	addSyntheticPlay(m, 2, continuity.BestEffort, 8)
	before := map[RequestID]int{}
	for _, r := range m.reqs {
		before[r.id] = strideOf(r.play)
	}
	m.classPass()
	for _, r := range m.reqs {
		if got := strideOf(r.play); got > before[r.id] {
			t.Fatalf("id %d stride rose %d -> %d during recovery", r.id, before[r.id], got)
		}
		if got := strideOf(r.play); got != 1 {
			t.Fatalf("id %d stuck at stride %d with ample slack", r.id, got)
		}
	}
	if got := m.Stats().Promotions; got != 2 {
		t.Fatalf("%d promotions, want 2", got)
	}
	if got := m.Stats().LoadDemotions; got != 0 {
		t.Fatalf("%d demotions under light load", got)
	}
}

// TestQoSStatsPerClass checks the per-class population snapshot used
// by the STATS wire reply and the metrics gauges.
func TestQoSStatsPerClass(t *testing.T) {
	m := qosTestManager(8)
	addSyntheticPlay(m, 1, continuity.Premium, 1)
	addSyntheticPlay(m, 2, continuity.Standard, 1)
	addSyntheticPlay(m, 3, continuity.Standard, 2)
	addSyntheticPlay(m, 4, continuity.BestEffort, 8)
	done := addSyntheticPlay(m, 5, continuity.BestEffort, 1)
	done.done = true

	qs := m.QoSStats()
	if qs[continuity.Premium].Active != 1 || qs[continuity.Premium].Degraded != 0 {
		t.Fatalf("premium stats %+v", qs[continuity.Premium])
	}
	if qs[continuity.Standard].Active != 2 || qs[continuity.Standard].Degraded != 1 {
		t.Fatalf("standard stats %+v", qs[continuity.Standard])
	}
	if qs[continuity.BestEffort].Active != 1 || qs[continuity.BestEffort].Degraded != 1 {
		t.Fatalf("best-effort stats %+v", qs[continuity.BestEffort])
	}
	// Mean effective rates: premium 30, standard (30 + 15)/2, one
	// best-effort at 30/8.
	if got := qs[continuity.Premium].EffectiveRate; got != 30 {
		t.Fatalf("premium effective rate %v", got)
	}
	if got := qs[continuity.Standard].EffectiveRate; got != 22.5 {
		t.Fatalf("standard effective rate %v", got)
	}
	if got := qs[continuity.BestEffort].EffectiveRate; got != 3.75 {
		t.Fatalf("best-effort effective rate %v", got)
	}
}
