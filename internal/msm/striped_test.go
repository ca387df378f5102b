package msm

import (
	"errors"
	"slices"
	"testing"

	"mmfs/internal/continuity"
	"mmfs/internal/fault"
	"mmfs/internal/strand"
)

// TestStripedRoundParallelService admits the per-spindle n_max on every
// spindle of a 4-way array — p times the single-spindle bound — and
// verifies the parallel rounds deliver every stream violation-free with
// all spindles doing work.
func TestStripedRoundParallelService(t *testing.T) {
	const p, stripe = 4, 120
	rig := newRig(t, shape{spindles: p, stripe: stripe})
	if got := len(rig.m.rt.sets); got != p {
		t.Fatalf("resident table has %d sets, want %d", got, p)
	}

	template := continuity.Request{
		Name: "tmpl", Granularity: 3, UnitBits: 18000 * 8, Rate: 30,
		Scattering: rig.scattering(),
	}
	nmax := rig.m.adm.NMax(template)
	if nmax < 2 {
		t.Fatalf("single-spindle n_max = %d; geometry too tight for the test", nmax)
	}
	total := p * nmax

	if total <= nmax {
		t.Fatalf("aggregate %d does not exceed the single-device bound %d", total, nmax)
	}
	strands := make([]*strand.Strand, total)
	for j := range strands {
		strands[j] = rig.write(take{units: 300, seed: int64(9000 + j), spindle: j % p, group: j / p, pin: true})
	}

	// Admission math first, on a manager that runs no rounds: the full
	// p·n_max population is admitted, and the next candidate on a
	// saturated spindle fails its per-spindle Eq. 18.
	gate := rig.manager(config{})
	for j, s := range strands {
		if _, _, err := rig.tryPlay(gate, s, rig.std); err != nil {
			t.Fatalf("stream %d (spindle %d): %v — aggregate should reach p·n_max = %d", j, j%p, err, total)
		}
	}
	extra := rig.write(take{units: 300, seed: 9999, group: nmax, pin: true})
	if _, _, err := rig.tryPlay(gate, extra, rig.std); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("stream %d on a full spindle: err = %v, want admission rejection", total, err)
	}

	// Service on the rig's stepwise manager: transparent k transitions,
	// every stream delivered violation-free by the parallel sub-rounds.
	var ids []RequestID
	for j, s := range strands {
		id, _, err := rig.tryPlay(rig.m, s, rig.std)
		if err != nil {
			t.Fatalf("stream %d (spindle %d): %v", j, j%p, err)
		}
		ids = append(ids, id)
	}
	rig.m.RunUntilDone()

	for j, id := range ids {
		pr, err := rig.m.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		if !pr.Done || pr.BlocksServed != pr.BlocksTotal {
			t.Fatalf("stream %d: served %d/%d, done=%v", j, pr.BlocksServed, pr.BlocksTotal, pr.Done)
		}
		if pr.Violations != 0 {
			v, _ := rig.m.Violations(id)
			t.Fatalf("stream %d: %d violations, first %+v", j, pr.Violations, v[0])
		}
	}
	for i, d := range rig.raw {
		if d.Stats().SectorsRead == 0 {
			t.Fatalf("spindle %d read nothing; striping routed no work to it", i)
		}
	}
	if st := rig.m.Stats(); st.Rounds == 0 || st.Violations != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStraddlingStrand is the "straddling strand" seed (ROADMAP item 2): a
// strand that starts on spindle 0 and walks across a stripe-group boundary
// onto spindle 1. Its plan touches both, so admission must ask both: with
// spindle 1 at n_max it is refused although spindle 0 is empty, and once
// spindle 1 has room it is carried in both resident sets until its
// remaining plan has left spindle 0. At 4c53fed it was charged where its
// next block lay — spindle 0 alone — admitted, and late after the crossing.
func TestStraddlingStrand(t *testing.T) {
	const p, stripe = 4, 120
	rig := newRig(t, shape{spindles: p, stripe: stripe})
	opts := rig.std
	nmax := rig.m.adm.NMax(continuity.Request{Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()})
	full := make([]*strand.Strand, nmax)
	for j := range full {
		full[j] = rig.write(take{units: 300, seed: int64(9400 + j), spindle: 1, group: j, pin: true})
	}
	// 100 blocks, a cylinder each, from 8 cylinders short of the boundary.
	straddler := rig.write(take{units: 300, seed: 9499, cyl: stripe - 8})
	plan, err := PlanStrandPlay(rig.arr, straddler, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The admission decisions, on a manager that runs no rounds.
	gate := rig.manager(config{})
	if ext := gate.spindlesAt(plan.comp.pm[0].classes); ext != 0b0011 {
		t.Fatalf("the straddler's plan touches spindles %04b, want 0 and 1", ext)
	}
	var on1 []RequestID
	for _, s := range full {
		id, _, err := rig.tryPlay(gate, s, opts)
		if err != nil {
			t.Fatalf("filling spindle 1 to n_max = %d: %v", nmax, err)
		}
		on1 = append(on1, id)
	}
	if _, _, err := gate.AdmitPlay(plan); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("spindle 1 at n_max, the straddler: err = %v, want admission rejection", err)
	}
	if err := gate.Stop(on1[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := gate.AdmitPlay(plan); err != nil {
		t.Fatalf("spindle 1 has room, the straddler: %v", err)
	}
	if sets, n := gate.residentSets(true); n != nmax || len(sets[0]) != 1 || len(sets[1]) != nmax || len(sets[2])+len(sets[3]) != 0 {
		t.Fatalf("resident sets hold %d, %d, %d, %d request(s) of %d; want the straddler on spindles 0 and 1",
			len(sets[0]), len(sets[1]), len(sets[2]), len(sets[3]), n)
	}

	// The service, on the rig's stepwise manager: the same population plays
	// through the crossing with nothing late, and the straddler's charge
	// leaves spindle 0 with its last block there.
	for _, s := range full[1:] {
		rig.play(s, opts)
	}
	id, _, err := rig.m.AdmitPlay(plan)
	if err != nil {
		t.Fatal(err)
	}
	r, err := rig.m.find(id)
	if err != nil {
		t.Fatal(err)
	}
	left0 := false
	for rig.m.RunRound() {
		if !r.done && rig.m.extent(r) == 0b0010 {
			left0 = true
		}
	}
	if pr, err := rig.m.Progress(id); err != nil || !pr.Done || pr.BlocksServed != pr.BlocksTotal {
		t.Fatalf("the straddler: %+v, %v", pr, err)
	}
	if st := rig.m.Stats(); st.Violations != 0 {
		t.Fatalf("%d violation(s) playing through the crossing: %+v", st.Violations, st)
	}
	if !left0 {
		t.Fatal("the straddler was never charged to spindle 1 alone: its extent did not shrink as it played")
	}
}

// TestStripedDegradedSpindleIsolation wraps one spindle in permanent
// transient faults: its streams degrade (and eventually escalate to a
// stop), while the other spindles' streams play through untouched.
func TestStripedDegradedSpindleIsolation(t *testing.T) {
	const p, stripe, sick = 4, 120, 1
	rig := newRig(t, shape{spindles: p, stripe: stripe, fault: fault.Scenario{Seed: 42, ReadErrorRate: 1}, faultOn: sick})

	ids := make([]RequestID, p)
	for sp := 0; sp < p; sp++ {
		s := rig.write(take{units: 150, seed: int64(9100 + sp), spindle: sp, pin: true})
		ids[sp] = rig.play(s, PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()})
	}
	rig.m.RunUntilDone()

	for sp, id := range ids {
		pr, err := rig.m.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		if sp == sick {
			if pr.DegradedBlocks == 0 {
				t.Fatalf("sick spindle's stream saw no degradation: %+v", pr)
			}
			continue
		}
		if pr.Violations != 0 || pr.DegradedBlocks != 0 {
			t.Fatalf("healthy spindle %d's stream was disturbed: %d violations, %d degraded",
				sp, pr.Violations, pr.DegradedBlocks)
		}
		if !pr.Done || pr.BlocksServed != pr.BlocksTotal {
			t.Fatalf("healthy spindle %d's stream incomplete: %d/%d", sp, pr.BlocksServed, pr.BlocksTotal)
		}
	}
	st := rig.m.Stats()
	if st.DegradedBlocks == 0 {
		t.Fatalf("no degraded blocks recorded: %+v", st)
	}
	if st.FaultStops == 0 {
		t.Fatalf("all-degraded stream never escalated to a stop: %+v", st)
	}
}

// TestStripedSerialFallback verifies the partition invariant: a fetch
// window crossing a stripe-group boundary routes to the serial phase
// (laneSpindle reports no single home) and still plays correctly.
func TestStripedSerialFallback(t *testing.T) {
	const p, stripe = 2, 4 // tiny groups: strands straddle boundaries
	rig := newRig(t, shape{spindles: p, stripe: stripe})

	// ~17 cylinders of data across 4-cylinder groups: blocks hop
	// spindles within any k-window.
	s := rig.write(take{units: 900, seed: 9200})

	id := rig.play(s, PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()})
	rig.m.RunUntilDone()
	pr, err := rig.m.Progress(id)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Done || pr.Violations != 0 {
		t.Fatalf("boundary-crossing play: done=%v violations=%d", pr.Done, pr.Violations)
	}
	if rig.raw[0].Stats().SectorsRead == 0 || rig.raw[1].Stats().SectorsRead == 0 {
		t.Fatal("boundary-crossing strand should touch both spindles")
	}
}

// TestStripedRoundSpawnsOnlyBusyLanes pins the round's sweep rule: a
// round sweeps every lane its partition handed a request and no idle
// lane, which still presents an empty sub-round to the join. Four
// plays of different lengths, one per spindle, walk the round from four
// busy lanes down to one. With the cache on, the same plays hold open
// cache streams and lead no one: each still rides its spindle's lane,
// feeding the cache from there, so the rounds go by busy lanes exactly
// as without it — a leader sent to the serial lane would put all the
// array's disk work on one timeline that admission charged as p. (The
// name is from when a busy lane cost a goroutine spawn.)
func TestStripedRoundSpawnsOnlyBusyLanes(t *testing.T) {
	const p, stripe = 4, 120
	var uncached []int
	for _, cached := range []bool{false, true} {
		rig := newRig(t, shape{spindles: p, stripe: stripe})
		if cached {
			rig.m = rig.manager(config{cache: 16 << 20})
		}
		var ids []RequestID
		for sp := 0; sp < p; sp++ {
			s := rig.write(take{units: 60 * (sp + 1), seed: int64(9300 + sp), spindle: sp, pin: true})
			ids = append(ids, rig.play(s, rig.std))
		}
		seen := make([]int, p+1) // rounds by busy-lane count
		for rig.m.RunRound() {
			busy := 0
			for _, ln := range rig.m.lanes {
				if len(ln.reqs) > 0 {
					busy++
				} else if ln.worked {
					t.Fatalf("idle lane %d presents worked=%v", ln.spindle, ln.worked)
				}
			}
			seen[busy]++
		}
		for _, id := range ids {
			if pr, err := rig.m.Progress(id); err != nil || !pr.Done || pr.Violations != 0 {
				t.Fatalf("cached=%v: request %d: %+v, %v", cached, id, pr, err)
			}
		}
		switch {
		case !cached && (seen[p] == 0 || seen[1] == 0):
			t.Fatalf("rounds by busy lanes %v: the plays never covered both a full and a single-lane round", seen)
		case !cached:
			uncached = seen
		case !slices.Equal(seen, uncached):
			t.Fatalf("cache-coupled leaders: rounds by busy lanes %v, without the cache %v; want them on their spindles' lanes", seen, uncached)
		case rig.m.Cache().Stats().Inserts == 0:
			t.Fatalf("the leaders never fed the cache: %+v", rig.m.Cache().Stats())
		}
	}
}
