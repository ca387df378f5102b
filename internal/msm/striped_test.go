package msm

import (
	"errors"
	"testing"

	"mmfs/internal/alloc"
	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/strand"
)

// stripedRig bundles the substrate for striped-array manager tests:
// p spindles behind one disk.Array, with the allocator and strand
// store working in the array's logical address space.
type stripedRig struct {
	raw []*disk.Disk // physical spindles (under any fault wrapper)
	arr *disk.Array
	a   *alloc.Allocator
	st  *strand.Store
	m   *Manager
	dev continuity.Device
	p   int
	sc  int // stripe cylinders
}

// newStripedRig builds a p-spindle array with the given stripe. When
// faultSpindle ≥ 0 and the scenario is active, that one spindle is
// wrapped in fault injection; the others stay healthy.
func newStripedRig(t *testing.T, p, stripe, faultSpindle int, sc fault.Scenario) *stripedRig {
	t.Helper()
	g := disk.DefaultGeometry()
	devs := make([]disk.Device, p)
	raw := make([]*disk.Disk, p)
	for i := range devs {
		raw[i] = disk.MustNew(g)
		if i == faultSpindle && sc.Active() {
			devs[i] = fault.New(raw[i], sc)
		} else {
			devs[i] = raw[i]
		}
	}
	arr := disk.MustNewArray(devs, stripe, false)
	a, err := alloc.New(arr.Geometry(), 64)
	if err != nil {
		t.Fatal(err)
	}
	lg := arr.Geometry()
	dev := DeviceFor(lg)
	return &stripedRig{
		raw: raw, arr: arr, a: a,
		st:  strand.NewStore(arr, a),
		m:   New(arr, continuity.AdmissionFor(dev)),
		dev: dev, p: p, sc: stripe,
	}
}

func (r *stripedRig) scattering() float64 {
	return continuity.Seconds(r.arr.Geometry().AccessTime(targetCylinders))
}

// logicalStart maps (spindle, spindle-local cylinder) to the logical
// cylinder a writer must start at for the data to land there.
func (r *stripedRig) logicalStart(spindle, localCyl int) int {
	return (localCyl/r.sc*r.p+spindle)*r.sc + localCyl%r.sc
}

// recordOn writes a synthetic video strand whose blocks land on the
// given spindle, starting at the given spindle-local cylinder.
func (r *stripedRig) recordOn(t *testing.T, spindle, localCyl, frames int, seed int64) *strand.Strand {
	t.Helper()
	s := writeVideo(t, r.arr, r.a, r.st, r.logicalStart(spindle, localCyl), frames, seed)
	// The test's placement assumption: the whole strand must sit on
	// the intended spindle for per-spindle admission and lane routing
	// to be exercised as designed.
	for i := 0; i < s.NumBlocks(); i++ {
		e, err := s.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		if sp, one := r.arr.SpindleRange(int(e.Sector), int(e.SectorCount)); !one || sp != spindle {
			t.Fatalf("strand block %d landed on spindle %d (one=%v), want %d", i, sp, one, spindle)
		}
	}
	return s
}

// TestStripedRoundParallelService admits the per-spindle n_max on every
// spindle of a 4-way array — p times the single-spindle bound — and
// verifies the parallel rounds deliver every stream violation-free with
// all spindles doing work.
func TestStripedRoundParallelService(t *testing.T) {
	const p, stripe = 4, 120
	rig := newStripedRig(t, p, stripe, -1, fault.Scenario{})
	if got := len(rig.m.resident); got != p {
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
		strands[j] = rig.recordOn(t, j%p, (j/p)*stripe, 300, int64(9000+j))
	}
	mkPlan := func(s *strand.Strand) PlayPlan {
		plan, err := PlanStrandPlay(rig.arr, s, PlanOptions{ReadAhead: 1, Buffers: 16, Scattering: rig.scattering()})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	// Admission math first, on a manager that runs no rounds: the full
	// p·n_max population is admitted, and the next candidate on a
	// saturated spindle fails its per-spindle Eq. 18.
	gate := New(rig.arr, continuity.AdmissionFor(rig.dev))
	for j, s := range strands {
		if _, _, err := gate.AdmitPlay(mkPlan(s)); err != nil {
			t.Fatalf("stream %d (spindle %d): %v — aggregate should reach p·n_max = %d", j, j%p, err, total)
		}
	}
	extra := rig.recordOn(t, 0, nmax*stripe, 300, 9999)
	if _, _, err := gate.AdmitPlay(mkPlan(extra)); !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("stream %d on a full spindle: err = %v, want admission rejection", total, err)
	}

	// Service on the rig's stepwise manager: transparent k transitions,
	// every stream delivered violation-free by the parallel sub-rounds.
	var ids []RequestID
	for j, s := range strands {
		id, _, err := rig.m.AdmitPlay(mkPlan(s))
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
	rig := newStripedRig(t, p, stripe, -1, fault.Scenario{})
	opts := PlanOptions{ReadAhead: 1, Buffers: 16, Scattering: rig.scattering()}
	nmax := rig.m.adm.NMax(continuity.Request{Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()})
	full := make([]*strand.Strand, nmax)
	for j := range full {
		full[j] = rig.recordOn(t, 1, j*stripe, 300, int64(9400+j))
	}
	// 100 blocks, a cylinder each, from 8 cylinders short of the boundary.
	straddler := writeVideo(t, rig.arr, rig.a, rig.st, rig.logicalStart(0, stripe-8), 300, 9499)
	plan, err := PlanStrandPlay(rig.arr, straddler, opts)
	if err != nil {
		t.Fatal(err)
	}

	// The admission decisions, on a manager that runs no rounds.
	gate := New(rig.arr, continuity.AdmissionFor(rig.dev))
	if ext := gate.spindlesAt(gate.planMap(plan.Blocks)[0].classes); ext != 0b0011 {
		t.Fatalf("the straddler's plan touches spindles %04b, want 0 and 1", ext)
	}
	var on1 []RequestID
	for _, s := range full {
		pl, err := PlanStrandPlay(rig.arr, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := gate.AdmitPlay(pl)
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
		pl, err := PlanStrandPlay(rig.arr, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rig.m.AdmitPlay(pl); err != nil {
			t.Fatal(err)
		}
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
	rig := newStripedRig(t, p, stripe, sick, fault.Scenario{Seed: 42, ReadErrorRate: 1})

	ids := make([]RequestID, p)
	for sp := 0; sp < p; sp++ {
		s := rig.recordOn(t, sp, 0, 150, int64(9100+sp))
		plan, err := PlanStrandPlay(rig.arr, s, PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()})
		if err != nil {
			t.Fatal(err)
		}
		ids[sp], _, err = rig.m.AdmitPlay(plan)
		if err != nil {
			t.Fatal(err)
		}
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
	rig := newStripedRig(t, p, stripe, -1, fault.Scenario{})

	// ~17 cylinders of data across 4-cylinder groups: blocks hop
	// spindles within any k-window.
	s := writeVideo(t, rig.arr, rig.a, rig.st, 0, 900, 9200)

	plan, err := PlanStrandPlay(rig.arr, s, PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := rig.m.AdmitPlay(plan)
	if err != nil {
		t.Fatal(err)
	}
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
// busy lanes down to one; with the cache on, the same plays hold open
// cache streams and ride the serial lane, every parallel lane idle. (The
// name is from when a busy lane cost a goroutine spawn.)
func TestStripedRoundSpawnsOnlyBusyLanes(t *testing.T) {
	const p, stripe = 4, 120
	for _, cached := range []bool{false, true} {
		rig := newStripedRig(t, p, stripe, -1, fault.Scenario{})
		if cached {
			rig.m.SetCache(cache.New(16 << 20))
		}
		var ids []RequestID
		for sp := 0; sp < p; sp++ {
			s := rig.recordOn(t, sp, 0, 60*(sp+1), int64(9300+sp))
			plan, err := PlanStrandPlay(rig.arr, s, PlanOptions{ReadAhead: 1, Buffers: 16, Scattering: rig.scattering()})
			if err != nil {
				t.Fatal(err)
			}
			id, _, err := rig.m.AdmitPlay(plan)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
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
		case cached && seen[0] != int(rig.m.Stats().Rounds):
			t.Fatalf("cache-coupled plays: rounds by busy lanes %v of %d; want every round on the serial lane", seen, rig.m.Stats().Rounds)
		case !cached && (seen[p] == 0 || seen[1] == 0):
			t.Fatalf("rounds by busy lanes %v: the plays never covered both a full and a single-lane round", seen)
		}
	}
}
