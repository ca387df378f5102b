package msm

import (
	"testing"

	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/strand"
)

// TestSteadyRoundsAllocateNothing is the real-time path's allocation
// rule (DESIGN.md §12) held where `go test ./...` runs: Eq. 18 bounds a
// round by disk time, so once the scratch slices are warm a service
// round allocates nothing on the host — whichever way through the round
// the population takes. `make bench-check` gates the same property on
// the benchmarks' larger populations; nothing annotates it.
func TestSteadyRoundsAllocateNothing(t *testing.T) {
	const warm, measured = 8, 16
	for _, tc := range []struct {
		name string
		// start builds a population that stays in service, unchanged,
		// for more than warm+measured+1 rounds; held, when non-nil,
		// reports after the measurement that the rounds really took the
		// path the case names.
		start func(t *testing.T) (m *Manager, held func() bool)
	}{
		{"single disk, steady playback", func(t *testing.T) (*Manager, func() bool) {
			rig := newRig(t, shape{})
			s := rig.record(take{units: 600, seed: 601})
			rig.m = rig.manager(config{})
			rig.play(s, rig.std)
			return rig.m, nil
		}},
		{"single disk, turns read runs", func(t *testing.T) (*Manager, func() bool) {
			// Two plays over back-to-back strands, filling a deep
			// read-ahead: every turn reads its k blocks as one access.
			const k = 4
			rig := newRig(t, shape{})
			var strands []*strand.Strand
			for i := 0; i < 2; i++ {
				strands = append(strands, rig.write(take{units: 160, seed: int64(650 + i), backToBack: true, cyl: 200 + 100*i}))
			}
			rig.m = rig.manager(config{policy: NaiveJump, k: k})
			for _, s := range strands {
				rig.play(s, PlanOptions{ReadAhead: 160, Buffers: 160, Scattering: rig.scattering()})
			}
			reads, blocks := rig.d.Stats().Reads, rig.m.Stats().BlocksFetched
			return rig.m, func() bool {
				return rig.m.Stats().BlocksFetched-blocks >= 2*(rig.d.Stats().Reads-reads)
			}
		}},
		{"4-spindle striped round", func(t *testing.T) (*Manager, func() bool) {
			const p, stripe = 4, 120
			rig := newRig(t, shape{spindles: p, stripe: stripe})
			for sp := 0; sp < p; sp++ {
				for j := 0; j < 2; j++ {
					rig.play(rig.write(take{units: 300, seed: int64(610 + 2*sp + j), spindle: sp, group: j, pin: true}), rig.std)
				}
			}
			return rig.m, func() bool {
				for _, ln := range rig.m.lanes {
					if len(ln.reqs) == 0 {
						return false
					}
				}
				return true
			}
		}},
		{"cache-coupled follower round", func(t *testing.T) (*Manager, func() bool) {
			rig := newRig(t, shape{})
			s := rig.record(take{units: 900, seed: 620})
			tmpl := continuity.Request{Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
			rig.m = rig.manager(config{cache: 16 << 20, k: cacheRigK(t, rig.m.adm, tmpl, 2)})
			if _, cached, rejected := stagger(rig, s, 3, 300e6); cached != 2 || rejected != 0 {
				t.Fatalf("%d followers, %d rejected; want 2 followers trailing the leader", cached, rejected)
			}
			hits := rig.m.Stats().CacheHits
			return rig.m, func() bool {
				return rig.m.Stats().CacheHits > hits && rig.m.Stats().Demotions == 0
			}
		}},
		{"QoS class pass on a degraded population", func(t *testing.T) (*Manager, func() bool) {
			rig := newRig(t, shape{})
			tmpl := continuity.Request{Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
			const riders, maxStride = 2, 4
			nStd := rig.m.adm.NMax(tmpl) - riders
			// The tightest k at which the standard plays fit beside the
			// best-effort riders only if the riders run sub-sampled: the
			// first class pass sheds them and, with nobody leaving, every
			// later round's promotion pass probes them and finds no room.
			feasible := func(k, stride int) bool {
				set := make([]continuity.Request, 0, nStd+riders)
				for i := 0; i < nStd+riders; i++ {
					r := tmpl
					if i >= nStd {
						r = continuity.Degraded(tmpl, stride)
					}
					set = append(set, r)
				}
				return rig.m.adm.FeasibleTransient(set, k)
			}
			k := 1
			for !feasible(k, maxStride) {
				k++
			}
			if feasible(k, 1) {
				t.Fatalf("no shedding operating point: %d+%d plays fit at full rate at k=%d", nStd, riders, k)
			}
			var strands []*strand.Strand
			for i := 0; i < 3; i++ {
				strands = append(strands, rig.write(take{units: 900, seed: int64(630 + i), cyl: 100 + 300*i}))
			}
			rig.m = rig.manager(config{policy: NaiveJump, qos: maxStride})
			for i := 0; i < nStd+riders; i++ {
				class := continuity.Standard
				if i >= nStd {
					class = continuity.BestEffort
				}
				opts := PlanOptions{ReadAhead: k, Buffers: 2 * k, Scattering: rig.scattering(), Class: class}
				if _, _, err := rig.tryPlay(rig.m, strands[i%len(strands)], opts); err != nil {
					t.Fatalf("play %d (%v): %v", i, class, err)
				}
			}
			rig.m.ForceK(k)
			return rig.m, func() bool {
				return rig.m.QoSStats()[continuity.BestEffort].Degraded > 0 && rig.m.Stats().Promotions == 0
			}
		}},
		{"round with a rebuild in flight", func(t *testing.T) (*Manager, func() bool) {
			// k = 4 leaves the victim's twin, with one stream of its own,
			// the Eq. 18 slack a repair chunk (one cylinder) costs; the
			// healthy pair carries a stream a spindle.
			const p, stripe, victim, k = 4, 120, 1, 4
			rig := newRig(t, shape{spindles: p, stripe: stripe, mirror: true})
			rig.m = rig.manager(config{policy: NaiveJump})
			for sp := 0; sp < p; sp++ {
				if sp == victim {
					continue
				}
				s := rig.write(take{units: 348, seed: int64(640 + sp), spindle: sp, pin: true})
				rig.play(s, PlanOptions{ReadAhead: k, Buffers: 2 * k, Scattering: rig.scattering()})
			}
			rig.m.ForceK(k)
			// A dead spindle's factory-fresh replacement, as Manager.Rebuild
			// fits one — with its cylinder pages touched first: a simulated
			// disk allocates a page on first write, which is the simulator's
			// lazy store and not the round's work.
			g := rig.raw[victim].Geometry()
			rig.arr.SetSpindleState(victim, disk.Dead)
			fresh := disk.MustNew(g)
			zeros := make([]byte, g.SectorSize)
			for c := 0; c < g.Cylinders; c++ {
				if rig.raw[rig.arr.Twin(victim)].CylinderMaterialized(c) {
					if err := fresh.WriteAt(c*g.SectorsPerCylinder(), zeros); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := rig.arr.ReplaceSpindle(victim, fresh); err != nil {
				t.Fatal(err)
			}
			if err := rig.m.StartRebuild(victim); err != nil {
				t.Fatal(err)
			}
			rig.m.SetRebuildRate(1)
			return rig.m, func() bool {
				return rig.m.RepairActive() && rig.m.Stats().RebuildBlocks > 0
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, held := tc.start(t)
			running := true
			round := func() { running = m.RunRound() && running }
			for i := 0; i < warm; i++ {
				round()
			}
			viol := m.Stats().Violations
			if allocs := testing.AllocsPerRun(measured, round); allocs != 0 {
				t.Errorf("a steady round allocates %v times, want 0", allocs)
			}
			// A drained population or a late block would make the zero
			// above a statement about some other round.
			if !running {
				t.Fatal("the population drained before the measurement ended")
			}
			if got := m.Stats().Violations; got != viol {
				t.Fatalf("%d violation(s) during the measured rounds", got-viol)
			}
			if held != nil && !held() {
				t.Fatal("the measured rounds did not stay on the path this case names")
			}
		})
	}
}
