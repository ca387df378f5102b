package msm

import (
	"math/bits"
	"testing"

	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/media"
	"mmfs/internal/strand"
)

// TestMirroredDegradedService kills one twin mid-run (a scripted
// die=<round> scenario) while all four spindles carry streams. The
// victim spindle's stream must be absorbed by the surviving twin — a
// bounded burst of degraded blocks while the health machine converges,
// then clean service — and every stream must run to completion with no
// fault stop. Streams on the untouched pair must not be disturbed at
// all. The parallel lanes make this the degraded-mode race test: run
// with -race it also proves the health/steering single-owner
// discipline.
func TestMirroredDegradedService(t *testing.T) {
	const p, stripe, victim = 4, 120, 1
	rig := newRig(t, shape{spindles: p, stripe: stripe, mirror: true, fault: fault.Scenario{Seed: 7, DieRound: 6}, faultOn: victim})
	opts := PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()}

	// One stream preferring each spindle; the victim's twin (spindle 0)
	// will carry two streams after the re-steer.
	ids := make([]RequestID, p)
	strandsOf := make([]*strand.Strand, p)
	for sp := 0; sp < p; sp++ {
		strandsOf[sp] = rig.write(take{units: 150, seed: int64(9300 + sp), spindle: sp, pin: true})
	}
	for sp := 0; sp < p; sp++ {
		ids[sp] = rig.play(strandsOf[sp], opts)
	}
	rig.m.RunUntilDone()

	for sp, id := range ids {
		pr, err := rig.m.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Done || pr.BlocksServed != pr.BlocksTotal {
			t.Fatalf("spindle %d's stream incomplete: %d/%d done=%v",
				sp, pr.BlocksServed, pr.BlocksTotal, pr.Done)
		}
		if sp == victim {
			// The death round degrades at most the in-flight k-window,
			// and the health thresholds take a few more failed reads to
			// trip; after the re-steer the twin serves it cleanly.
			if pr.DegradedBlocks == 0 {
				t.Fatalf("victim stream saw no degradation — die scenario never fired: %+v", pr)
			}
			if pr.DegradedBlocks > 2*deadAfterErrsBudget {
				t.Fatalf("victim stream degraded %d blocks; re-steer never took over", pr.DegradedBlocks)
			}
			if pr.Violations != pr.DegradedBlocks {
				t.Fatalf("victim stream: %d violations beyond its %d degraded deliveries",
					pr.Violations, pr.DegradedBlocks)
			}
			continue
		}
		if pr.Violations != 0 || pr.DegradedBlocks != 0 {
			t.Fatalf("spindle %d's stream disturbed by the victim: %d violations, %d degraded",
				sp, pr.Violations, pr.DegradedBlocks)
		}
	}
	st := rig.m.Stats()
	if st.FaultStops != 0 {
		t.Fatalf("a stream was aborted instead of re-steered: %+v", st)
	}
	if s := rig.arr.SpindleState(victim); s == disk.Healthy {
		t.Fatalf("victim spindle still Healthy after dying: %v", s)
	}
	// The survivor absorbed the victim's reads on top of its own.
	if rig.raw[0].Stats().SectorsRead <= rig.raw[2].Stats().SectorsRead {
		t.Fatalf("surviving twin read %d sectors, untouched spindle read %d; no absorption visible",
			rig.raw[0].Stats().SectorsRead, rig.raw[2].Stats().SectorsRead)
	}
}

// TestResteerRaisesKStepwise loads each twin of a mirror pair with half
// a spindle's n_max at the k that population needs, then kills one
// twin: the survivor's sub-round absorbs the whole population, which
// needs a larger k. The re-steer must find that k through the one
// Eq. 18 solver (KTransient over the absorbed resident set) and RunRound
// must grow k toward it by exactly one per round — §3.4's stepwise
// transition — counting each step.
func TestResteerRaisesKStepwise(t *testing.T) {
	const p, stripe, victim = 2, 120, 1
	rig := newRig(t, shape{spindles: p, stripe: stripe, mirror: true})
	adm := rig.m.adm
	opts := PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()}

	first := rig.write(take{units: 300, seed: 9500, pin: true})
	plan, err := PlanStrandPlay(rig.arr, first, opts)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := plan.Admission
	per := adm.NMax(tmpl) / 2
	kHalf, kFull := cacheRigK(t, adm, tmpl, per), cacheRigK(t, adm, tmpl, 2*per)
	if per < 1 || kFull <= kHalf {
		t.Fatalf("setup: %d streams per twin need k=%d, absorbed %d need k=%d; no transition to observe",
			per, kHalf, 2*per, kFull)
	}

	rig.m.ForceK(kHalf)
	for sp := 0; sp < p; sp++ {
		for w := 0; w < per; w++ {
			s := first
			if sp != 0 || w != 0 {
				s = rig.write(take{units: 300, seed: int64(9500 + 10*sp + w), spindle: sp, group: w, pin: true})
			}
			rig.play(s, opts)
		}
	}
	if k := rig.m.K(); k != kHalf {
		t.Fatalf("k = %d after admitting %d streams per twin, want %d", k, per, kHalf)
	}
	rig.m.RunRound()
	if k, steps := rig.m.K(), rig.m.Stats().TransitionSteps; k != kHalf || steps != 0 {
		t.Fatalf("healthy round moved k to %d (%d steps)", k, steps)
	}

	rig.arr.SetSpindleState(victim, disk.Dead)
	// The round that notices the death sets the target; every later
	// round takes one step until k reaches the absorbed set's need.
	rig.m.RunRound()
	for want := kHalf + 1; want <= kFull; want++ {
		if !rig.m.RunRound() {
			t.Fatalf("streams drained before k reached %d", kFull)
		}
		if k := rig.m.K(); k != want {
			t.Fatalf("k = %d, want %d: the re-steer transition must raise k by one per round up to %d",
				k, want, kFull)
		}
	}
	rig.m.RunRound()
	if k := rig.m.K(); k != kFull {
		t.Fatalf("k = %d after the transition, want it to rest at %d", k, kFull)
	}
	if steps := rig.m.Stats().TransitionSteps; steps != uint64(kFull-kHalf) {
		t.Fatalf("TransitionSteps = %d, want %d", steps, kFull-kHalf)
	}
	if n := rig.m.ActiveRequests(); n != 2*per {
		t.Fatalf("%d streams resident after the kill, want all %d absorbed", n, 2*per)
	}
}

// deadAfterErrsBudget mirrors the disk package's deadAfterErrs
// threshold for the degraded-burst bound above (the victim stream can
// degrade one k-window per round while the strikes accumulate).
const deadAfterErrsBudget = 8

// TestMirroredRebuildRestoresService kills a twin, replaces it, runs
// the online rebuild to completion in otherwise idle rounds, and
// verifies the rebuilt spindle serves a replay cleanly — including the
// blocks only it would be steered to.
func TestMirroredRebuildRestoresService(t *testing.T) {
	const p, stripe, victim = 4, 120, 1
	rig := newRig(t, shape{spindles: p, stripe: stripe, mirror: true, fault: fault.Scenario{Seed: 7, DieRound: 3}, faultOn: victim})
	opts := PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()}

	s := rig.write(take{units: 150, seed: 9400, spindle: victim, pin: true})
	id := rig.play(s, opts)
	rig.m.RunUntilDone()
	if pr, _ := rig.m.Progress(id); !pr.Done {
		t.Fatalf("pre-rebuild play incomplete: %+v", pr)
	}

	// Replace the dead device and rebuild it from the twin.
	if err := rig.m.Rebuild(victim); err != nil {
		t.Fatal(err)
	}
	if !rig.m.RepairActive() {
		t.Fatal("rebuild did not start")
	}
	rig.m.RunUntilDone() // repair-only rounds drive the copy
	if rig.m.RepairActive() {
		done, total := rig.m.RepairProgress()
		t.Fatalf("rebuild stalled at %d/%d", done, total)
	}
	if got := rig.arr.SpindleState(victim); got != disk.Healthy {
		t.Fatalf("rebuilt spindle state = %v, want healthy", got)
	}
	if rig.m.Stats().RebuildBlocks == 0 {
		t.Fatal("no rebuild chunks were charged to rounds")
	}

	// The replacement device must now serve the replay's steered share.
	rig.arr.RefreshSteering()
	id2 := rig.play(s, opts)
	rig.m.RunUntilDone()
	pr, err := rig.m.Progress(id2)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Done || pr.Violations != 0 || pr.DegradedBlocks != 0 {
		t.Fatalf("post-rebuild replay: done=%v violations=%d degraded=%d",
			pr.Done, pr.Violations, pr.DegradedBlocks)
	}
}

// TestRebuildOfSuspectSpindleResteersAtOnce: the operator replaces a
// spindle that is only Suspect — the steer table still leaves it one slot
// in four — and fetches before any round has run. The untimed read must
// come from the twin, not from the empty replacement.
func TestRebuildOfSuspectSpindleResteersAtOnce(t *testing.T) {
	const p, stripe, victim = 4, 120, 1
	rig := newRig(t, shape{spindles: p, stripe: stripe, mirror: true})
	s := rig.write(take{units: 30, seed: 9450, spindle: victim, group: 1, pin: true}) // slot 3: the probe slot
	rig.arr.SetSpindleState(victim, disk.Suspect)
	rig.arr.RefreshSteering()
	e, _ := s.Block(0)
	if sp, _ := rig.arr.SpindleRange(int(e.Sector), int(e.SectorCount)); sp != victim {
		t.Fatalf("block 0 steered to spindle %d: the strand does not sit in the suspect's probe slot", sp)
	}
	if err := rig.m.Rebuild(victim); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	f := uint64(0)
	if err := strand.NewReader(rig.arr, s).VisitUnits(0, s.UnitCount(), &buf, func(unit []byte) error {
		f++
		return media.ValidateFrameSeq(unit, f-1)
	}); err != nil {
		t.Fatalf("fetch straight after the rebuild started, unit %d: %v", f-1, err)
	}
}

// A play's extent is keyed on where its strand was placed, not on the
// spindle that served it at admission: when steering moves a dead twin's
// reads to the survivor the charge follows at once, whoever refreshed the
// steer table, and comes back with the spindle.
func TestExtentFollowsSteering(t *testing.T) {
	const p, stripe, victim = 4, 120, 3
	rig := newRig(t, shape{spindles: p, stripe: stripe, mirror: true})
	id := rig.play(rig.write(take{units: 90, seed: 9600, spindle: victim, pin: true}), rig.std)
	r, err := rig.m.find(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		state disk.SpindleState
		want  uint64
	}{
		{disk.Healthy, 1 << victim},
		{disk.Dead, 1 << (victim ^ 1)},
		{disk.Healthy, 1 << victim},
	} {
		rig.arr.SetSpindleState(victim, step.state)
		rig.arr.RefreshSteering()
		if got := rig.m.extent(r); got != step.want {
			t.Fatalf("spindle %d %v: the play is charged on spindles %04b, want %04b", victim, step.state, got, step.want)
		}
		if sets, _ := rig.m.residentSets(true); len(sets[bits.TrailingZeros64(step.want)]) != 1 {
			t.Fatalf("spindle %d %v: resident sets %v", victim, step.state, sets)
		}
	}
}
