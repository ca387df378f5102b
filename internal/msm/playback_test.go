package msm

import (
	"math/rand"
	"testing"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/strand"
)

func TestFastForwardNoSkipDoublesPace(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 120, seed: 50})
	// Each pace plays alone, on a fresh manager.
	var runs [2]Progress
	var took [2]time.Duration
	for i, o := range []PlanOptions{{ReadAhead: 2}, {ReadAhead: 2, Speed: 2, Buffers: 8}} {
		rig.m = rig.manager(config{})
		o.Scattering = rig.scattering()
		id := rig.play(s, o)
		rig.m.RunUntilDone()
		runs[i], _ = rig.m.Progress(id)
		took[i] = rig.m.Now()
	}
	if runs[0].Violations != 0 || runs[1].Violations != 0 {
		t.Fatalf("violations %d/%d", runs[0].Violations, runs[1].Violations)
	}
	// 2× playback finishes in roughly half the virtual time.
	ratio := float64(took[0]) / float64(took[1])
	if ratio < 1.7 || ratio > 2.3 {
		t.Fatalf("speedup ratio %.2f, want ≈ 2", ratio)
	}
}

func TestFastForwardSkipHalvesFetches(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 120, seed: 51})
	// Each plays alone, on a fresh manager.
	var runs [2]Progress
	for i, o := range []PlanOptions{{ReadAhead: 2}, {ReadAhead: 2, Speed: 2, Skip: true}} {
		rig.m = rig.manager(config{})
		o.Scattering = rig.scattering()
		id := rig.play(s, o)
		rig.m.RunUntilDone()
		runs[i], _ = rig.m.Progress(id)
	}
	normal, skip := runs[0], runs[1]
	if skip.Violations != 0 {
		t.Fatalf("skip playback violated %d", skip.Violations)
	}
	if skip.BlocksServed*2 != normal.BlocksServed {
		t.Fatalf("skip fetched %d blocks, normal %d (want half)", skip.BlocksServed, normal.BlocksServed)
	}
}

func TestRecordBufferOverflowDetected(t *testing.T) {
	// A deliberately slow disk with a single capture buffer must
	// overflow: block b+1 finishes capture before block b's write
	// lands.
	g := disk.DefaultGeometry()
	g.SectorsPerTrack = 8 // ~7.9 Mbit/s: slower than the 4.3 Mbit/s video? keep close
	g.RPM = 1200          // 2.6 Mbit/s — slower than the source
	rig := newRig(t, shape{geom: g})
	plan := rig.recording(take{units: 60, seed: 52, buffers: 1})
	// Admission would reject this (correctly); bypass it to observe
	// the overflow the admission control exists to prevent.
	mgr := New(rig.d, continuity.Admission{MaxAccess: 0.001, TransferRate: 1e12})
	id, _, err := mgr.AdmitRecord(plan)
	if err != nil {
		t.Fatalf("bypass admission: %v", err)
	}
	mgr.RunUntilDone()
	v, _ := mgr.Violations(id)
	if len(v) == 0 {
		t.Fatal("no overflow detected on an oversubscribed recorder")
	}
}

func TestSetBuffers(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 30, seed: 54})
	id := rig.play(s, PlanOptions{ReadAhead: 2, Scattering: rig.scattering()})
	if err := rig.m.SetBuffers(id, 32); err != nil {
		t.Fatal(err)
	}
	if err := rig.m.SetBuffers(id, 0); err == nil {
		t.Fatal("zero buffers accepted")
	}
	if err := rig.m.SetBuffers(999, 4); err == nil {
		t.Fatal("unknown request accepted")
	}
	rig.m.RunUntilDone()
}

func TestStopHaltsService(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 300, seed: 55})
	id := rig.play(s, PlanOptions{ReadAhead: 2, Scattering: rig.scattering()})
	rig.m.RunRound()
	if err := rig.m.Stop(id); err != nil {
		t.Fatal(err)
	}
	prog, _ := rig.m.Progress(id)
	if !prog.Done {
		t.Fatal("stopped request not done")
	}
	if prog.BlocksServed >= prog.BlocksTotal {
		t.Fatal("stop happened after completion?")
	}
	if rig.m.ActiveRequests() != 0 {
		t.Fatal("stopped request still in admission set")
	}
}

func TestRopeStylePlanWithDelayBlocks(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 30, seed: 56})
	// Sandwich a one-second pure delay between two copies of the
	// strand (an interval whose medium is absent).
	whole := Interval{Strand: s, NumUnits: 30}
	plan, err := PlanPlay(rig.d, "gap", []Interval{whole, {Gap: time.Second}, whole},
		PlanOptions{ReadAhead: 2, Scattering: rig.scattering()})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plan.Blocks); n != 21 || plan.Blocks[10].Reader != nil || plan.Blocks[10].Duration != time.Second {
		t.Fatalf("%d blocks, middle one %+v: want 10 + a 1 s delay + 10", n, plan.Blocks[10])
	}
	id, _, err := rig.m.AdmitPlay(plan)
	if err != nil {
		t.Fatal(err)
	}
	before := rig.m.Now()
	rig.m.RunUntilDone()
	if v, _ := rig.m.Violations(id); len(v) != 0 {
		t.Fatalf("gap playback violated %d", len(v))
	}
	// Total playback spans 1s + 1s gap + 1s (minus pipelining).
	if elapsed := rig.m.Now() - before; elapsed < 2500*time.Millisecond {
		t.Fatalf("elapsed %v, want ≥ 2.5s", elapsed)
	}
}

func TestExpandIntervalPartialEdges(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 30, seed: 57})
	// Units 2..10: covers blocks 0..3 with partial edges.
	plan, err := PlanPlay(rig.d, "edges", []Interval{{Strand: s, StartUnit: 2, NumUnits: 9}}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := plan.Blocks
	if len(blocks) != 4 {
		t.Fatalf("%d blocks", len(blocks))
	}
	var total time.Duration
	for _, b := range blocks {
		total += b.Duration
	}
	want := continuity.Duration(9.0 / 30)
	if total != want {
		t.Fatalf("total duration %v, want %v", total, want)
	}
	// First block covers 1 unit (unit 2), last covers 2 (units 9,10).
	if blocks[0].Duration != continuity.Duration(1.0/30) {
		t.Fatalf("first block %v", blocks[0].Duration)
	}
	if blocks[3].Duration != continuity.Duration(2.0/30) {
		t.Fatalf("last block %v", blocks[3].Duration)
	}
	if _, err := PlanPlay(rig.d, "past", []Interval{{Strand: s, StartUnit: 25, NumUnits: 10}}, PlanOptions{}); err == nil {
		t.Fatal("interval past end accepted")
	}
}

// TestPlanPlayMeasuresTheCompiledSequence pins the one scattering
// measure: the worst hop between successive stored blocks of the plan —
// within a strand, and across a junction the hop from the last block of
// one interval to the first of the next, gaps looked through.
func TestPlanPlayMeasuresTheCompiledSequence(t *testing.T) {
	rig := newRig(t, shape{})
	g := rig.d.Geometry()
	a := rig.record(take{units: 30, seed: 59})
	b := rig.record(take{units: 30, seed: 60})
	whole, err := PlanStrandPlay(rig.d, a, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var worst time.Duration
	for i := 1; i < a.NumBlocks(); i++ {
		from, _ := a.Block(i - 1)
		to, _ := a.Block(i)
		worst = max(worst, g.AccessTime(g.CylinderOf(int(to.Sector))-g.CylinderOf(int(from.Sector))))
	}
	if got := whole.Admission.Scattering; got != continuity.Seconds(worst) {
		t.Fatalf("whole-strand scattering %v, want the strand's worst hop %v", got, worst)
	}
	// b's tail, a gap, then a's head: the junction runs backwards over
	// both recordings.
	joined, err := PlanPlay(rig.d, "joined", []Interval{
		{Strand: b, StartUnit: 27, NumUnits: 3},
		{Gap: time.Second},
		{Strand: a, NumUnits: 3},
	}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last, _ := b.Block(9)
	first, _ := a.Block(0)
	hop := g.AccessTime(g.CylinderOf(int(first.Sector)) - g.CylinderOf(int(last.Sector)))
	if got := joined.Admission.Scattering; got != continuity.Seconds(hop) {
		t.Fatalf("junction scattering %v, want the %v hop between the two strands", got, hop)
	}
	if over, _ := PlanPlay(rig.d, "joined", []Interval{{Strand: a, NumUnits: 3}}, PlanOptions{Scattering: 0.5}); over.Admission.Scattering != 0.5 {
		t.Fatalf("Scattering override ignored: %v", over.Admission.Scattering)
	}
}

// PlanPlay tracks the widest cylinder hop and converts it to a time once;
// on seeded random interval lists — junctions between strands laid out
// forwards, in runs and with silence holders, gaps, sub-ranges, skipping —
// that equals the maximum of the per-hop access times over the compiled
// sequence, and is zero when the sequence has no hop at all.
func TestPlanPlayScatteringIsThePerHopMaximum(t *testing.T) {
	rig := newRig(t, shape{})
	g := rig.d.Geometry()
	strands := []*strand.Strand{
		rig.write(take{units: 90, seed: 61, cyl: 100}), // a cylinder a block
		rig.write(take{units: 60, seed: 62, cyl: 900}),
		rig.write(take{units: 150, seed: 63, cyl: 400, run: true}), // sixteen blocks a cylinder
		rig.write(take{units: 200, seed: 64, cyl: 30, run: true, audio: true}),
	}
	rng := rand.New(rand.NewSource(7))
	hopless := 0
	for trial := 0; trial < 300; trial++ {
		var ivs []Interval
		for n := 1 + rng.Intn(5); n > 0; n-- {
			if rng.Intn(4) == 0 {
				ivs = append(ivs, Interval{Gap: time.Duration(1+rng.Intn(500)) * time.Millisecond})
				continue
			}
			s := strands[rng.Intn(len(strands))]
			start := uint64(rng.Int63n(int64(s.UnitCount())))
			ivs = append(ivs, Interval{Strand: s, StartUnit: start, NumUnits: 1 + uint64(rng.Int63n(int64(s.UnitCount()-start)))})
		}
		opts := []PlanOptions{{}, {Speed: 3, Skip: true}, {Speed: 0.5}}[rng.Intn(3)]
		plan, err := PlanPlay(rig.d, "walk", ivs, opts)
		if err != nil {
			continue // nothing but gaps before the first strand
		}
		var worst time.Duration
		prev := -1
		for _, b := range plan.Blocks {
			if b.Reader == nil || !stored(b) {
				continue
			}
			e, _ := b.Reader.Strand().Block(b.Index)
			cyl := g.CylinderOf(int(e.Sector))
			if prev >= 0 {
				worst = max(worst, g.AccessTime(cyl-prev))
			}
			prev = cyl
		}
		if worst == 0 {
			hopless++
		}
		if got := plan.Admission.Scattering; got != continuity.Seconds(worst) {
			t.Fatalf("trial %d (%+v): scattering %v, want the per-hop maximum %v", trial, ivs, got, worst)
		}
	}
	if hopless == 0 {
		t.Fatal("no trial compiled to a sequence without a hop: the zero case went untested")
	}
}

func TestPlanValidation(t *testing.T) {
	if err := (PlayPlan{}).Validate(); err == nil {
		t.Fatal("empty plan accepted")
	}
	if err := (RecordPlan{}).Validate(); err == nil {
		t.Fatal("empty record plan accepted")
	}
	rig := newRig(t, shape{})
	s := rig.record(take{units: 6, seed: 58})
	plan, err := PlanStrandPlay(rig.d, s, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	p := plan
	p.Buffers = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero buffers accepted")
	}
	// Blocks the compiler did not map: built by hand, or edited after.
	hand := PlayPlan{Name: "x", Blocks: plan.Blocks, Buffers: 2, Admission: plan.Admission}
	if err := hand.Validate(); err == nil {
		t.Fatal("a plan PlanPlay did not compile accepted")
	}
	p = plan
	p.Blocks = p.Blocks[1:]
	if err := p.Validate(); err == nil {
		t.Fatal("a plan whose blocks were cut after compiling accepted")
	}
	// A 1 ns gap at 4x rounds to a delay of no duration.
	p, err = PlanPlay(rig.d, "x", []Interval{{Strand: s, NumUnits: 3}, {Gap: time.Nanosecond}}, PlanOptions{Speed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err == nil || p.Blocks[1].Duration != 0 {
		t.Fatalf("zero-duration block %v accepted (%v)", p.Blocks[1].Duration, err)
	}
}

// A plan's map is built for the device it was compiled on; a manager over
// other stripe groups refuses it rather than route its blocks by a map
// that does not describe them.
func TestAdmitRefusesAnotherDevicesPlan(t *testing.T) {
	one := newRig(t, shape{})
	s := one.record(take{units: 6, seed: 58})
	plan, err := PlanStrandPlay(one.d, s, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	four := newRig(t, shape{spindles: 4, stripe: 4})
	if _, _, err := four.m.AdmitPlay(plan); err == nil {
		t.Fatal("a 4-spindle manager admitted a plan compiled on one disk")
	}
	if _, _, err := one.manager(config{}).AdmitPlay(plan); err != nil {
		t.Fatalf("the disk the plan was compiled on refused it: %v", err)
	}
}
