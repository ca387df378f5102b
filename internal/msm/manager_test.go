package msm

import (
	"cmp"
	"reflect"
	"testing"

	"mmfs/internal/alloc"
	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/strand"
)

// shape is the device a test rig builds. The zero shape is one disk of
// the default geometry.
type shape struct {
	geom disk.Geometry // zero: disk.DefaultGeometry()
	// spindles > 1 builds a disk.Array of that many disks, stripe
	// cylinders to a stripe group, its spindles paired as twins when
	// mirror is set.
	spindles, stripe int
	mirror           bool
	// An active fault scenario wraps spindle faultOn (on one disk, the
	// disk) in fault injection; the other spindles stay healthy.
	fault   fault.Scenario
	faultOn int
	// probe, on one disk, is called at the top of every service round,
	// as a fault layer's round clock is ticked (roundProbe).
	probe func()
}

// testRig is the one substrate the package's tests run a manager on:
// the device a shape describes, an allocator and a strand store in its
// logical address space, and a manager over it.
type testRig struct {
	t *testing.T
	shape
	raw []*disk.Disk // the physical spindles, under any fault layer
	d   *disk.Disk   // raw[0]: on one disk, the disk
	arr *disk.Array  // nil on one disk
	fd  *fault.Disk  // the fault layer, when the shape has one
	dev disk.Device  // what strands are written to and managers run over
	a   *alloc.Allocator
	st  *strand.Store
	m   *Manager
	// std is the play most tests admit: read-ahead 2 into 4 buffers (1
	// into 16 on an array), charged at the placement's scattering.
	std PlanOptions
}

// newRig builds the shape's device, the allocator and strand store over
// it, and a manager with New's defaults.
func newRig(t *testing.T, sh shape) *testRig {
	t.Helper()
	g := sh.geom
	if g == (disk.Geometry{}) {
		g = disk.DefaultGeometry()
	}
	r := &testRig{t: t, shape: sh}
	devs := make([]disk.Device, max(sh.spindles, 1))
	for i := range devs {
		r.raw = append(r.raw, disk.MustNew(g))
		devs[i] = r.raw[i]
		if i == sh.faultOn && sh.fault.Active() {
			r.fd = fault.New(r.raw[i], sh.fault)
			devs[i] = r.fd
		}
	}
	r.d, r.dev, r.std = r.raw[0], devs[0], PlanOptions{ReadAhead: 2, Buffers: 4}
	if len(devs) > 1 {
		r.arr = disk.MustNewArray(devs, sh.stripe, sh.mirror)
		r.dev, r.std = r.arr, PlanOptions{ReadAhead: 1, Buffers: 16}
	}
	if sh.probe != nil {
		r.dev = &roundProbe{Device: r.dev, onRound: sh.probe}
	}
	a, err := alloc.New(r.dev.Geometry(), 64)
	if err != nil {
		t.Fatal(err)
	}
	r.a, r.st = a, strand.NewStore(r.dev, a)
	r.std.Scattering = r.scattering()
	r.m = r.manager(config{})
	return r
}

// config is how a test's manager departs from New's defaults.
type config struct {
	dev    disk.Device // the device it runs over; nil: the rig's
	cache  int64       // an interval cache of this many bytes
	qos    int         // QoS load shedding up to this stride
	policy TransitionPolicy
	k      int // a forced k
}

// manager is the package tests' one way to a manager: New over the rig's
// device, or over c.dev (a wrapper of it), admitting by the device's
// geometry, and set up as c says.
func (r *testRig) manager(c config) *Manager {
	dev := c.dev
	if dev == nil {
		dev = r.dev
	}
	m := New(dev, continuity.AdmissionFor(DeviceFor(dev.Geometry())))
	m.SetPolicy(c.policy)
	m.SetQoS(QoSPolicy{MaxStride: c.qos})
	if c.cache > 0 {
		m.SetCache(cache.New(c.cache))
	}
	if c.k > 0 {
		m.ForceK(c.k)
	}
	return m
}

// targetCylinders is the test placement policy: blocks of a strand are
// kept within this many cylinders of each other, so the realizable
// scattering (and hence the admission-control β) stays far below the
// continuity-derived maximum, leaving slack for concurrent requests.
const targetCylinders = 32

// scattering is the admission-control scattering estimate matching the
// placement policy.
func (r *testRig) scattering() float64 {
	return continuity.Seconds(r.dev.Geometry().AccessTime(targetCylinders))
}

// backToBackBytes is a one-frame video block of exactly 28 sectors:
// sixteen of them fill a cylinder of the default geometry (448 sectors)
// to its last sector, so a strand of them written under the run
// placement is one unbroken range of sectors whose blocks cross into the
// next cylinder every sixteen blocks.
const backToBackBytes = 28 * 2048

// take is one synthetic recording: by default units frames of video at
// 30 a second, 18 000 bytes a frame and 3 to a block, the blocks kept
// within targetCylinders of each other.
type take struct {
	units int
	seed  int64
	gran  int // units to a block, when not the medium's default
	// audio records 800-byte units at 10 a second, half of the source
	// silent, 4 to a block within 50 cylinders, eliminating silence.
	audio bool
	// backToBack records one backToBackBytes frame a block at 10 a
	// second under the run placement; write checks the blocks follow
	// each other sector for sector.
	backToBack bool
	// run stores the blocks under the run placement.
	run bool
	// The writer starts cyl cylinders into the group-th stripe group that
	// spindle serves (disk.Array.GroupStart; on one disk, at cylinder
	// cyl); with pin, write checks every block landed on spindle.
	spindle, group, cyl int
	pin                 bool
	buffers             int // a record's capture buffers, when not 4
}

// recording is the package tests' one strand writer: the take as a
// record plan, its writer and source, for write to write straight, for
// record to record through the rig's manager, or for the caller to admit.
func (r *testRig) recording(k take) RecordPlan {
	r.t.Helper()
	cfg := strand.WriterConfig{
		ID: r.st.NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 18000, Granularity: cmp.Or(k.gran, 3),
		Constraint:    alloc.Constraint{MinCylinders: 1, MaxCylinders: targetCylinders},
		StartCylinder: k.cyl,
	}
	if r.arr != nil {
		cfg.StartCylinder += r.arr.GroupStart(k.spindle, k.group)
	}
	name, scattering := "rec", r.scattering()
	if k.audio {
		det := media.DefaultSilenceDetector()
		cfg.Medium, cfg.Rate, cfg.UnitBytes, cfg.Granularity, cfg.Silence = layout.Audio, 10, 800, cmp.Or(k.gran, 4), &det
		cfg.Constraint.MaxCylinders = 50
		name, scattering = "audio", 0.01
	}
	if k.backToBack {
		cfg.Rate, cfg.UnitBytes, cfg.Granularity = 10, backToBackBytes, 1
	}
	if k.run || k.backToBack {
		cfg.Constraint = alloc.RunPlacement(targetCylinders)
	}
	w, err := strand.NewWriter(r.dev, r.a, cfg)
	if err != nil {
		r.t.Fatalf("writer: %v", err)
	}
	var src media.Source = media.NewVideoSource(k.units, cfg.UnitBytes, cfg.Rate, k.seed)
	if k.audio {
		src = media.NewAudioSource(k.units, 800, 10, 0.5, 8, k.seed)
	}
	return PlanRecord(name, w, src, cfg.Granularity, uint64(k.units), scattering, cmp.Or(k.buffers, 4))
}

// write records the take straight through its writer, with no manager
// rounds, and stores the strand.
func (r *testRig) write(k take) *strand.Strand {
	r.t.Helper()
	p := r.recording(k)
	for u, ok := p.Source.Next(); ok; u, ok = p.Source.Next() {
		if _, err := p.Writer.Append(u); err != nil {
			r.t.Fatal(err)
		}
	}
	s := r.keep(p.Writer)
	// The placement the test assumes: per-spindle admission and lane
	// routing are exercised as designed only if the whole strand sits on
	// the intended spindle.
	for i := 0; k.pin && i < s.NumBlocks(); i++ {
		e, err := s.Block(i)
		if err != nil {
			r.t.Fatal(err)
		}
		if sp, one := r.arr.SpindleRange(int(e.Sector), int(e.SectorCount)); !one || sp != k.spindle {
			r.t.Fatalf("strand block %d landed on spindle %d (one=%v), want %d", i, sp, one, k.spindle)
		}
	}
	if !k.backToBack {
		return s
	}
	first, _ := s.Block(0)
	if g := r.dev.Geometry(); int(first.Sector)%g.SectorsPerCylinder() != 0 {
		r.t.Fatalf("strand starts at sector %d, not at a cylinder's first", first.Sector)
	}
	for i := 1; i < k.units; i++ {
		prev, _ := s.Block(i - 1)
		e, _ := s.Block(i)
		if e.Sector != prev.Sector+prev.SectorCount || e.SectorCount != 28 {
			r.t.Fatalf("block %d at sector %d (%d sectors) does not follow block %d", i, e.Sector, e.SectorCount, i-1)
		}
	}
	return s
}

// record records the take through the rig's manager: admitted as a
// record and run to its end, with no violation.
func (r *testRig) record(k take) *strand.Strand {
	r.t.Helper()
	p := r.recording(k)
	if !k.audio {
		dv, err := continuity.Derive(continuity.Config{Arch: continuity.Pipelined}, 2*p.UnitsPerBlock,
			continuity.Media{Name: "video", UnitBits: p.Admission.UnitBits, Rate: p.Admission.Rate},
			DeviceFor(r.dev.Geometry()))
		if err != nil {
			r.t.Fatalf("derive: %v", err)
		}
		if dv.MaxScattering < r.scattering() {
			r.t.Fatalf("placement policy scattering %.4fs exceeds continuity bound %.4fs", r.scattering(), dv.MaxScattering)
		}
	}
	id, _, err := r.m.AdmitRecord(p)
	if err != nil {
		r.t.Fatalf("admit record: %v", err)
	}
	r.m.RunUntilDone()
	if v, _ := r.m.Violations(id); len(v) != 0 {
		r.t.Fatalf("record had %d violations: %+v", len(v), v[0])
	}
	return r.keep(p.Writer)
}

// keep closes the writer and stores its strand.
func (r *testRig) keep(w *strand.Writer) *strand.Strand {
	r.t.Helper()
	s, err := w.Close()
	if err != nil {
		r.t.Fatalf("close: %v", err)
	}
	r.st.Put(s)
	return s
}

// tryPlay is the package tests' one plan-and-admit: it compiles a play of
// s on m's device — the whole strand or, with span, its blocks
// [span[0], span[0]+span[1]) — and admits it to m.
func (r *testRig) tryPlay(m *Manager, s *strand.Strand, o PlanOptions, span ...int) (RequestID, continuity.Decision, error) {
	r.t.Helper()
	var plan PlayPlan
	var err error
	switch q := uint64(s.Granularity()); len(span) {
	case 0:
		plan, err = PlanStrandPlay(m.d, s, o)
	case 2:
		plan, err = PlanPlay(m.d, "range", []Interval{{Strand: s, StartUnit: uint64(span[0]) * q, NumUnits: uint64(span[1]) * q}}, o)
	default:
		r.t.Fatalf("a span is a first block and a count, not %v", span)
	}
	if err != nil {
		r.t.Fatalf("plan: %v", err)
	}
	return m.AdmitPlay(plan)
}

// play is tryPlay on the rig's manager for a play that must be admitted.
func (r *testRig) play(s *strand.Strand, o PlanOptions, span ...int) RequestID {
	r.t.Helper()
	id, _, err := r.tryPlay(r.m, s, o, span...)
	if err != nil {
		r.t.Fatalf("admit play: %v", err)
	}
	return id
}

func TestRecordThenPlayRoundTrip(t *testing.T) {
	rig := newRig(t, shape{})
	const frames, gran = 120, 3
	s := rig.record(take{units: frames, seed: 42})

	if s.UnitCount() != frames {
		t.Fatalf("strand has %d units, want %d", s.UnitCount(), frames)
	}
	if s.NumBlocks() != frames/gran {
		t.Fatalf("strand has %d blocks, want %d", s.NumBlocks(), frames/gran)
	}

	// Verify payload integrity frame by frame.
	var buf []byte
	f := uint64(0)
	if err := strand.NewReader(rig.d, s).VisitUnits(0, frames, &buf, func(got []byte) error {
		f++
		return media.ValidateFrameSeq(got, f-1)
	}); err != nil {
		t.Fatalf("unit %d: %v", f-1, err)
	}

	// Play it back with strict continuity; expect zero violations.
	id := rig.play(s, PlanOptions{ReadAhead: 2})
	rig.m.RunUntilDone()
	v, err := rig.m.Violations(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("playback had %d violations, first %+v", len(v), v[0])
	}
	prog, _ := rig.m.Progress(id)
	if !prog.Done || prog.BlocksServed != frames/gran {
		t.Fatalf("progress %+v", prog)
	}
}

// TestFinishedRequestsLeaveLiveTable plays one strand many times in
// sequence on one manager (the daemon's pattern): the live request
// table the per-round loops walk must hold only live requests, while
// every finished play stays reachable for progress and violation
// reports.
func TestFinishedRequestsLeaveLiveTable(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 60, seed: 43})
	var ids []RequestID
	for i := 0; i < 5; i++ {
		ids = append(ids, rig.play(s, PlanOptions{ReadAhead: 2}))
		rig.m.RunUntilDone()
		if n := len(rig.m.reqs); n != 0 {
			t.Fatalf("live table holds %d requests after play %d finished", n, i)
		}
	}
	for _, id := range ids {
		p, err := rig.m.Progress(id)
		if err != nil {
			t.Fatalf("finished play %d unreachable: %v", id, err)
		}
		if v, _ := rig.m.Violations(id); !p.Done || p.BlocksServed != p.BlocksTotal || len(v) != 0 {
			t.Fatalf("finished play %d: %+v, %d violations", id, p, len(v))
		}
	}
}

// TestRetiredRequestsLetGoOfTheirData: a finished request keeps only
// what Progress and Violations report, for as long as the manager runs.
// A retired play holds no plan blocks (their strand readers) and no plan
// map; a retired record holds neither its source — on a server, the
// uploaded frames — nor its writer. A stopped request stays in the live
// table until the round closes, so what it reported before retirement
// can be compared with what it reports after.
func TestRetiredRequestsLetGoOfTheirData(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 90, seed: 44})
	rec, _, err := rig.m.AdmitRecord(rig.recording(take{units: 90, seed: 45}))
	if err != nil {
		t.Fatal(err)
	}
	plays := []RequestID{rig.play(s, PlanOptions{ReadAhead: 2}), rig.play(s, PlanOptions{ReadAhead: 2})}
	blocks := s.NumBlocks()
	for i := 0; i < 3; i++ {
		rig.m.RunRound()
	}
	type report struct {
		p Progress
		v []Violation
	}
	read := func(id RequestID) report {
		p, err := rig.m.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		v, err := rig.m.Violations(id)
		if err != nil {
			t.Fatal(err)
		}
		return report{p, v}
	}
	stopped := []RequestID{rec, plays[0]}
	before := map[RequestID]report{}
	for _, id := range stopped {
		if err := rig.m.Stop(id); err != nil {
			t.Fatal(err)
		}
		before[id] = read(id)
	}
	rig.m.RunUntilDone() // plays[1] keeps the rounds going and finishes
	for _, id := range stopped {
		if after := read(id); !reflect.DeepEqual(after, before[id]) {
			t.Fatalf("request %d reported %+v before retirement, %+v after", id, before[id], after)
		}
	}
	if p := read(plays[1]).p; !p.Done || p.BlocksServed != blocks || p.BlocksTotal != blocks {
		t.Fatalf("finished play reports %+v, want all %d blocks served", p, blocks)
	}
	for _, id := range plays {
		ps := rig.m.retired[id].play
		if ps.plan.Blocks != nil || ps.plan.comp != nil || ps.pm != nil {
			t.Fatalf("retired play %d holds %d plan blocks, plan map %v", id, len(ps.plan.Blocks), ps.pm != nil)
		}
	}
	if rp := rig.m.retired[rec].rec.plan; rp.Source != nil || rp.Writer != nil {
		t.Fatalf("retired record holds source %v, writer %v", rp.Source != nil, rp.Writer != nil)
	}
}

// TestResumeAfterStopTakesNoSlot: a play stopped while destructively
// paused, then retired, can still be resumed, as before retirement —
// but it only leaves its pause: no admission, no slot, no round.
func TestResumeAfterStopTakesNoSlot(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 60, seed: 46})
	ids := []RequestID{rig.play(s, PlanOptions{ReadAhead: 2}), rig.play(s, PlanOptions{ReadAhead: 2})}
	rig.m.RunRound()
	if err := rig.m.Pause(ids[0], true); err != nil {
		t.Fatal(err)
	}
	if err := rig.m.Stop(ids[0]); err != nil {
		t.Fatal(err)
	}
	rig.m.RunUntilDone()
	if _, err := rig.m.Resume(ids[0]); err != nil {
		t.Fatal(err)
	}
	if p, _ := rig.m.Progress(ids[0]); !p.Done || p.Paused {
		t.Fatalf("resumed stopped play reports %+v", p)
	}
	if len(rig.m.reqs) != 0 || rig.m.RunRound() {
		t.Fatalf("resuming a stopped play put %d request(s) back in service", len(rig.m.reqs))
	}
}

func TestScatteringWithinDerivedBounds(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 150, seed: 7})
	dv, err := continuity.Derive(continuity.Config{Arch: continuity.Pipelined}, 6,
		continuity.Media{Name: "video", UnitBits: 18000 * 8, Rate: 30}, DeviceFor(rig.d.Geometry()))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanStrandPlay(rig.d, s, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sec := plan.Admission.Scattering; sec > dv.MaxScattering {
		t.Fatalf("realized scattering %.4fs exceeds bound %.4fs", sec, dv.MaxScattering)
	}
}

func TestAdmissionRejectsBeyondNMax(t *testing.T) {
	rig := newRig(t, shape{})
	// A demanding request template: large blocks, modest device. Each
	// play below is charged exactly this.
	tmpl := continuity.Request{Name: "tmpl", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: 0.02}
	nmax := rig.m.adm.NMax(tmpl)
	if nmax < 1 {
		t.Fatalf("nmax = %d; geometry too slow for even one stream", nmax)
	}
	s := rig.record(take{units: 60, seed: 1})
	// Admitting runs no round: the clock stays frozen across admissions,
	// so no stream can finish mid-test and free its slot.
	admitted := 0
	for i := 0; i <= nmax; i++ {
		if _, _, err := rig.tryPlay(rig.m, s, PlanOptions{ReadAhead: 2, Scattering: 0.02}); err != nil {
			break
		}
		admitted++
	}
	if admitted > nmax {
		t.Fatalf("admitted %d requests, Eq. 17 bound is %d", admitted, nmax)
	}
	if admitted == 0 {
		t.Fatal("no request admitted at all")
	}
}

func TestPauseResumeShiftsDeadlines(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 90, seed: 3})
	id := rig.play(s, PlanOptions{ReadAhead: 2})
	// Service a few rounds, pause, let virtual time pass, resume.
	for i := 0; i < 3; i++ {
		rig.m.RunRound()
	}
	if err := rig.m.Pause(id, false); err != nil {
		t.Fatal(err)
	}
	// With everything paused a round does nothing; simulate elapsed
	// wall time via a second, trivial request.
	if _, err := rig.m.Resume(id); err != nil {
		t.Fatal(err)
	}
	rig.m.RunUntilDone()
	if v, _ := rig.m.Violations(id); len(v) != 0 {
		t.Fatalf("pause/resume caused %d violations", len(v))
	}
}

func TestDestructivePauseFreesAdmissionSlot(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 60, seed: 9})
	id := rig.play(s, PlanOptions{ReadAhead: 2})
	before := rig.m.ActiveRequests()
	if err := rig.m.Pause(id, true); err != nil {
		t.Fatal(err)
	}
	if got := rig.m.ActiveRequests(); got != before-1 {
		t.Fatalf("destructive pause left %d active, want %d", got, before-1)
	}
	if _, err := rig.m.Resume(id); err != nil {
		t.Fatalf("resume re-admission failed: %v", err)
	}
	if got := rig.m.ActiveRequests(); got != before {
		t.Fatalf("resume left %d active, want %d", got, before)
	}
	rig.m.RunUntilDone()
}

func TestSilenceEliminationStoresNoData(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 400, seed: 11, audio: true}) // 0.1 s audio units
	silent := 0
	for i := 0; i < s.NumBlocks(); i++ {
		e, _ := s.Block(i)
		if e.Silent() {
			silent++
		}
	}
	if silent == 0 {
		t.Fatal("no silence blocks eliminated from a half-silent source")
	}
	if silent == s.NumBlocks() {
		t.Fatal("all blocks silent; detector threshold broken")
	}
	// Stored sectors should be roughly half of a no-elimination strand.
	stored := 0
	for _, r := range s.MediaRuns() {
		stored += r.Sectors
	}
	full := s.NumBlocks() * s.BlockSectors(rig.d.Geometry().SectorSize)
	if stored >= full {
		t.Fatalf("stored %d sectors, full strand would be %d", stored, full)
	}
}

func TestPauseSemanticsAtCapacity(t *testing.T) {
	// §4.1: "a destructive PAUSE … causes resources to be deallocated
	// during the PAUSE"; a non-destructive one keeps them. At
	// capacity, only a destructive pause frees a slot for a new
	// request, and the paused request's later RESUME must re-run
	// admission — and can be rejected.
	rig := newRig(t, shape{})
	tmpl := continuity.Request{Name: "tmpl", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
	nmax := rig.m.adm.NMax(tmpl)
	if nmax < 2 {
		t.Skip("device too slow for the scenario")
	}
	s := rig.record(take{units: 120, seed: 77})
	opts := PlanOptions{ReadAhead: 2, Scattering: rig.scattering()}

	var ids []RequestID
	for i := 0; i < nmax; i++ {
		id, _, err := rig.tryPlay(rig.m, s, opts)
		if err != nil {
			t.Fatalf("admission %d of %d: %v", i+1, nmax, err)
		}
		ids = append(ids, id)
	}

	// Full: the next admission must fail.
	if _, _, err := rig.tryPlay(rig.m, s, opts); err == nil {
		t.Fatal("admission beyond n_max accepted")
	}

	// A non-destructive pause does NOT free the slot.
	if err := rig.m.Pause(ids[0], false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rig.tryPlay(rig.m, s, opts); err == nil {
		t.Fatal("non-destructive pause freed an admission slot")
	}
	if _, err := rig.m.Resume(ids[0]); err != nil {
		t.Fatal(err)
	}

	// A destructive pause DOES free the slot…
	if err := rig.m.Pause(ids[1], true); err != nil {
		t.Fatal(err)
	}
	newID, _, err := rig.tryPlay(rig.m, s, opts)
	if err != nil {
		t.Fatalf("slot not freed by destructive pause: %v", err)
	}
	// …and the paused request's resume now fails admission.
	if _, err := rig.m.Resume(ids[1]); err == nil {
		t.Fatal("resume re-admission succeeded beyond n_max")
	}
	// After the interloper stops, the resume goes through.
	if err := rig.m.Stop(newID); err != nil {
		t.Fatal(err)
	}
	if _, err := rig.m.Resume(ids[1]); err != nil {
		t.Fatalf("resume after slot reopened: %v", err)
	}
	rig.m.RunUntilDone()
}
