package msm

import (
	"testing"
	"time"

	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/strand"
)

// TestCommandsRunNoRound: a command only decides, and the round loop
// alone moves k (§3.4). With one stream live at its k and a candidate
// that needs a larger one, neither an admission — PLAY, RECORD, a
// destructive RESUME, a PLAY negotiated under QoS — nor a demotion runs a
// round or moves the clock. The rounds after it step k one unit each, and
// the newcomer is first served in round K−k+1: a play fetches there,
// a record's capture starts there. Everyone finishes on time.
func TestCommandsRunNoRound(t *testing.T) {
	type setup struct {
		rig  *testRig
		s    *strand.Strand // the candidate's strand
		plan PlayPlan       // a play of it
	}
	// Two-frame blocks: one stream runs at k = 1, two need k = 3, so
	// every candidate's admission steps k twice.
	for _, tc := range []struct {
		name string
		// prepare runs rounds as a caller would; cmd is the command under
		// test, reporting the newcomer and the k its admission needs.
		prepare func(t *testing.T, x *setup)
		cmd     func(t *testing.T, x *setup) (RequestID, int)
	}{
		{"play", nil, func(t *testing.T, x *setup) (RequestID, int) {
			id, dec, err := x.rig.m.AdmitPlay(x.plan)
			if err != nil {
				t.Fatal(err)
			}
			return id, dec.K
		}},
		{"record", nil, func(t *testing.T, x *setup) (RequestID, int) {
			id, dec, err := x.rig.m.AdmitRecord(x.rig.recording(take{units: 90, seed: 41, gran: 2}))
			if err != nil {
				t.Fatal(err)
			}
			return id, dec.K
		}},
		{"destructive resume", func(t *testing.T, x *setup) {
			m := x.rig.m
			id, _, err := m.AdmitPlay(x.plan)
			if err != nil {
				t.Fatal(err)
			}
			m.RunFor(500 * time.Millisecond)
			if err := m.Pause(id, true); err != nil {
				t.Fatal(err)
			}
			m.ForceK(1) // what the live stream alone needs
		}, func(t *testing.T, x *setup) (RequestID, int) {
			id := x.rig.m.reqs[len(x.rig.m.reqs)-1].id
			dec, err := x.rig.m.Resume(id)
			if err != nil {
				t.Fatal(err)
			}
			return id, dec.K
		}},
		{"QoS negotiation", func(t *testing.T, x *setup) {
			x.rig.m.SetQoS(QoSPolicy{MaxStride: 4})
			x.plan.Class = continuity.Standard
		}, func(t *testing.T, x *setup) (RequestID, int) {
			id, dec, err := x.rig.m.AdmitPlay(x.plan)
			if err != nil || dec.Stride != 1 {
				t.Fatalf("admitted at stride %d, err %v; want full rate", dec.Stride, err)
			}
			return id, dec.K
		}},
		{"demotion", func(t *testing.T, x *setup) {
			m := x.rig.m
			m.SetCache(cache.New(16 << 20))
			leader, _, err := m.AdmitPlay(x.plan)
			if err != nil {
				t.Fatal(err)
			}
			m.RunFor(300 * time.Millisecond)
			if _, dec, err := m.AdmitPlay(x.plan); err != nil || !dec.CacheServed {
				t.Fatalf("follower: cache-served=%v err=%v", dec.CacheServed, err)
			}
			m.RunFor(300 * time.Millisecond)
			if err := m.Stop(leader); err != nil {
				t.Fatal(err)
			}
			f := m.reqs[len(m.reqs)-1]
			for i := 0; !f.needsDemote; i++ {
				if i == 100 {
					t.Fatal("the orphaned follower never missed")
				}
				m.RunRound()
			}
			m.ForceK(1) // what the live stream alone needs
		}, func(t *testing.T, x *setup) (RequestID, int) {
			m := x.rig.m
			f := m.reqs[len(m.reqs)-1]
			dec := m.decideAdmit(m.extent(f), f.adm, false)
			m.processDemotions()
			if f.cacheServed || f.pause != nil {
				t.Fatalf("the follower did not demote to the disk (cache-served %v, paused %v)", f.cacheServed, f.pause != nil)
			}
			return f.id, dec.K
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, shape{})
			a := rig.record(take{units: 450, seed: 31, gran: 2})
			x := &setup{rig: rig, s: rig.record(take{units: 300, seed: 32, gran: 2})}
			rig.m = rig.manager(config{})
			var err error
			if x.plan, err = PlanStrandPlay(rig.d, x.s, rig.std); err != nil {
				t.Fatal(err)
			}
			live := rig.play(a, rig.std)
			rig.m.RunFor(300 * time.Millisecond)
			if tc.prepare != nil {
				tc.prepare(t, x)
			}

			k0, rounds, now := rig.m.K(), rig.m.Stats().Rounds, rig.m.Now()
			id, want := tc.cmd(t, x)
			if got := rig.m.Stats().Rounds; got != rounds {
				t.Fatalf("the command ran %d round(s)", got-rounds)
			}
			if got := rig.m.Now(); got != now {
				t.Fatalf("the command moved the clock %v", got-now)
			}
			if want <= k0 {
				t.Fatalf("the candidate needs k=%d, the manager runs at %d: nothing to step", want, k0)
			}
			if got := rig.m.K(); got != k0 {
				t.Fatalf("the command moved k %d → %d", k0, got)
			}

			steps := want - k0
			for i := 1; i <= steps+1; i++ {
				before, err := rig.m.Progress(id)
				if err != nil {
					t.Fatal(err)
				}
				rig.m.RunRound()
				if got := rig.m.K(); got != min(k0+i, want) {
					t.Fatalf("round %d runs at k=%d, want %d", i, got, min(k0+i, want))
				}
				after, _ := rig.m.Progress(id)
				served := after.BlocksServed != before.BlocksServed || after.StartTime != before.StartTime
				if served != (i == steps+1) {
					t.Fatalf("round %d of %d transition round(s) served the newcomer: %v (%+v → %+v)", i, steps, served, before, after)
				}
			}
			rig.m.RunUntilDone()
			for _, r := range []RequestID{live, id} {
				p, _ := rig.m.Progress(r)
				if !p.Done || (p.BlocksTotal > 0 && p.BlocksServed != p.BlocksTotal) {
					t.Fatalf("request %d stopped at %d of %d", r, p.BlocksServed, p.BlocksTotal)
				}
				if p.Violations != 0 {
					t.Fatalf("request %d finished with %d violation(s)", r, p.Violations)
				}
			}
		})
	}
}

// TestPauseWhileWaiting: a record paused before it joins waits on
// uncounted — it holds no round open — and after its resume joins with
// its clock started no earlier than the resume, so it captures on time.
func TestPauseWhileWaiting(t *testing.T) {
	rig := newRig(t, shape{})
	a := rig.record(take{units: 450, seed: 31, gran: 2})
	rig.m = rig.manager(config{})
	rig.play(a, rig.std)
	rig.m.RunFor(300 * time.Millisecond)
	id, dec, err := rig.m.AdmitRecord(rig.recording(take{units: 90, seed: 41, gran: 2}))
	if err != nil || dec.K <= rig.m.K()+1 {
		t.Fatalf("record admitted at k=%d with the manager at %d (err %v): want two steps", dec.K, rig.m.K(), err)
	}
	rig.m.RunRound() // one transition round with the record waiting
	if err := rig.m.Pause(id, false); err != nil {
		t.Fatal(err)
	}
	rig.m.RunFor(500 * time.Millisecond)
	resumed := rig.m.Now()
	if _, err := rig.m.Resume(id); err != nil {
		t.Fatal(err)
	}
	rig.m.RunUntilDone()
	p, _ := rig.m.Progress(id)
	if !p.Done || p.BlocksServed != p.BlocksTotal || p.Violations != 0 {
		t.Fatalf("record: %+v", p)
	}
	if p.StartTime < resumed {
		t.Fatalf("capture started at %v, before the resume at %v", p.StartTime, resumed)
	}
}
