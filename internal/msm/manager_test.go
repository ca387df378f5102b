package msm

import (
	"reflect"
	"testing"

	"mmfs/internal/alloc"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/strand"
)

// testRig bundles the substrate a manager test needs.
type testRig struct {
	d   *disk.Disk
	a   *alloc.Allocator
	st  *strand.Store
	m   *Manager
	dev continuity.Device
}

func newRig(t *testing.T, g disk.Geometry) *testRig {
	t.Helper()
	d := disk.MustNew(g)
	a, err := alloc.New(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	dev := DeviceFor(g)
	return &testRig{
		d:   d,
		a:   a,
		st:  strand.NewStore(d, a),
		m:   New(d, continuity.AdmissionFor(dev)),
		dev: dev,
	}
}

// targetCylinders is the test placement policy: blocks of a strand are
// kept within this many cylinders of each other, so the realizable
// scattering (and hence the admission-control β) stays far below the
// continuity-derived maximum, leaving slack for concurrent requests.
const targetCylinders = 32

// scattering is the admission-control scattering estimate matching the
// placement policy.
func (r *testRig) scattering() float64 {
	return continuity.Seconds(r.d.Geometry().AccessTime(targetCylinders))
}

// recordVideo records a synthetic video strand through the manager and
// returns it.
func (r *testRig) recordVideo(t *testing.T, frames, frameBytes, gran int, rate float64, seed int64) *strand.Strand {
	t.Helper()
	dv, err := continuity.Derive(continuity.Config{Arch: continuity.Pipelined}, 2*gran,
		continuity.Media{Name: "video", UnitBits: float64(frameBytes * 8), Rate: rate},
		r.dev)
	if err != nil {
		t.Fatalf("derive: %v", err)
	}
	if dv.MaxScattering < r.scattering() {
		t.Fatalf("placement policy scattering %.4fs exceeds continuity bound %.4fs", r.scattering(), dv.MaxScattering)
	}
	cons := alloc.Constraint{MinCylinders: 1, MaxCylinders: targetCylinders}
	w, err := strand.NewWriter(r.d, r.a, strand.WriterConfig{
		ID:          r.st.NewID(),
		Medium:      layout.Video,
		Rate:        rate,
		UnitBytes:   frameBytes,
		Granularity: gran,
		Constraint:  cons,
	})
	if err != nil {
		t.Fatalf("writer: %v", err)
	}
	src := media.NewVideoSource(frames, frameBytes, rate, seed)
	plan := PlanRecord("rec", w, src, gran, uint64(frames), r.scattering(), 4)
	id, _, err := r.m.AdmitRecord(plan)
	if err != nil {
		t.Fatalf("admit record: %v", err)
	}
	r.m.RunUntilDone()
	if v, _ := r.m.Violations(id); len(v) != 0 {
		t.Fatalf("record had %d violations: %+v", len(v), v[0])
	}
	s, err := w.Close()
	if err != nil {
		t.Fatalf("close: %v", err)
	}
	r.st.Put(s)
	return s
}

func TestRecordThenPlayRoundTrip(t *testing.T) {
	rig := newRig(t, disk.DefaultGeometry())
	const frames, frameBytes, gran = 120, 18000, 3
	s := rig.recordVideo(t, frames, frameBytes, gran, 30, 42)

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
	plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := rig.m.AdmitPlay(plan)
	if err != nil {
		t.Fatalf("admit play: %v", err)
	}
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
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 60, 18000, 3, 30, 43)
	var ids []RequestID
	for i := 0; i < 5; i++ {
		plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := rig.m.AdmitPlay(plan)
		if err != nil {
			t.Fatalf("admit play %d: %v", i, err)
		}
		ids = append(ids, id)
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
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 90, 18000, 3, 30, 44)
	w, err := strand.NewWriter(rig.d, rig.a, strand.WriterConfig{
		ID: rig.st.NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 18000, Granularity: 3,
		Constraint: alloc.Constraint{MinCylinders: 1, MaxCylinders: targetCylinders},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, _, err := rig.m.AdmitRecord(PlanRecord("rec", w, media.NewVideoSource(90, 18000, 30, 45), 3, 90, rig.scattering(), 4))
	if err != nil {
		t.Fatal(err)
	}
	var plays []RequestID
	var blocks int
	for i := 0; i < 2; i++ {
		plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := rig.m.AdmitPlay(plan)
		if err != nil {
			t.Fatal(err)
		}
		plays, blocks = append(plays, id), len(plan.Blocks)
	}
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
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 60, 18000, 3, 30, 46)
	var ids []RequestID
	for i := 0; i < 2; i++ {
		plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := rig.m.AdmitPlay(plan)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
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
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 150, 18000, 3, 30, 7)
	dv, err := continuity.Derive(continuity.Config{Arch: continuity.Pipelined}, 6,
		continuity.Media{Name: "video", UnitBits: 18000 * 8, Rate: 30}, rig.dev)
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
	rig := newRig(t, disk.DefaultGeometry())
	// A demanding request template: large blocks, modest device.
	tmpl := continuity.Request{Name: "tmpl", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: 0.02}
	nmax := rig.m.adm.NMax(tmpl)
	if nmax < 1 {
		t.Fatalf("nmax = %d; geometry too slow for even one stream", nmax)
	}
	s := rig.recordVideo(t, 60, 18000, 3, 30, 1)
	// Admitting runs no round: the clock stays frozen across admissions,
	// so no stream can finish mid-test and free its slot.
	admitted := 0
	for i := 0; i <= nmax; i++ {
		plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2, Scattering: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		plan.Admission = tmpl
		if _, _, err := rig.m.AdmitPlay(plan); err != nil {
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
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 90, 18000, 3, 30, 3)
	plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := rig.m.AdmitPlay(plan)
	if err != nil {
		t.Fatal(err)
	}
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
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 60, 18000, 3, 30, 9)
	plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := rig.m.AdmitPlay(plan)
	if err != nil {
		t.Fatal(err)
	}
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
	rig := newRig(t, disk.DefaultGeometry())
	const units, unitBytes, gran = 400, 800, 4 // 0.1 s audio units
	det := media.DefaultSilenceDetector()
	w, err := strand.NewWriter(rig.d, rig.a, strand.WriterConfig{
		ID:          rig.st.NewID(),
		Medium:      layout.Audio,
		Rate:        10,
		UnitBytes:   unitBytes,
		Granularity: gran,
		Constraint:  alloc.Constraint{MinCylinders: 1, MaxCylinders: 50},
		Silence:     &det,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewAudioSource(units, unitBytes, 10, 0.5, 8, 11)
	plan := PlanRecord("audio", w, src, gran, units, 0.01, 4)
	if _, _, err := rig.m.AdmitRecord(plan); err != nil {
		t.Fatal(err)
	}
	rig.m.RunUntilDone()
	s, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
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
	rig := newRig(t, disk.DefaultGeometry())
	tmpl := continuity.Request{Name: "tmpl", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
	nmax := rig.m.adm.NMax(tmpl)
	if nmax < 2 {
		t.Skip("device too slow for the scenario")
	}
	s := rig.recordVideo(t, 120, 18000, 3, 30, 77)

	var ids []RequestID
	for i := 0; i < nmax; i++ {
		plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2, Scattering: rig.scattering()})
		if err != nil {
			t.Fatal(err)
		}
		id, _, err := rig.m.AdmitPlay(plan)
		if err != nil {
			t.Fatalf("admission %d of %d: %v", i+1, nmax, err)
		}
		ids = append(ids, id)
	}
	newPlan := func() PlayPlan {
		plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 2, Scattering: rig.scattering()})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	// Full: the next admission must fail.
	if _, _, err := rig.m.AdmitPlay(newPlan()); err == nil {
		t.Fatal("admission beyond n_max accepted")
	}

	// A non-destructive pause does NOT free the slot.
	if err := rig.m.Pause(ids[0], false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rig.m.AdmitPlay(newPlan()); err == nil {
		t.Fatal("non-destructive pause freed an admission slot")
	}
	if _, err := rig.m.Resume(ids[0]); err != nil {
		t.Fatal(err)
	}

	// A destructive pause DOES free the slot…
	if err := rig.m.Pause(ids[1], true); err != nil {
		t.Fatal(err)
	}
	newID, _, err := rig.m.AdmitPlay(newPlan())
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
