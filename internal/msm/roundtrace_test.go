package msm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/obs"
	"mmfs/internal/strand"
)

var update = flag.Bool("update", false, "rewrite testdata/round_trace.golden from the current tree")

// traceRounds is a trace ring large enough to keep every round of a
// scenario (dumpTrace fails one that fills it).
const traceRounds = 1 << 14

// traced wires a manager to such a ring.
func traced(m *Manager) *obs.TraceRing {
	ring := obs.NewTraceRing(traceRounds)
	m.SetObs(obs.NewRegistry(), ring)
	return ring
}

// dumpTrace writes everything a scenario's rounds made observable: one
// line per round record, the manager's counters and clock, the cache's
// counters, and every request's progress and violations.
func dumpTrace(t *testing.T, w *bytes.Buffer, name string, m *Manager, ring *obs.TraceRing, ids []RequestID) {
	t.Helper()
	rounds := ring.Snapshot()
	if len(rounds) == traceRounds {
		t.Fatalf("%s: the trace ring is full (%d rounds) and may have wrapped", name, len(rounds))
	}
	fmt.Fprintf(w, "== %s\n# round start k active cached served blocks busy hits viol retries degraded slack rebuild\n", name)
	for _, tr := range rounds {
		fmt.Fprintln(w, tr.Round, tr.Start, tr.K, tr.Active, tr.CacheServed, tr.StreamsServed, tr.BlocksRead, tr.DiskBusyNs,
			tr.CacheHits, tr.Violations, tr.Retries, tr.Degraded, tr.RetrySlackNs, tr.RebuildBlocks)
	}
	fmt.Fprintf(w, "now=%d k=%d stats=%+v\n", m.Now(), m.K(), m.Stats())
	if c := m.Cache(); c != nil {
		fmt.Fprintf(w, "cache=%+v\n", c.Stats())
	}
	for _, id := range ids {
		p, err := m.Progress(id)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(w, "request %d: %+v\n", id, p)
		vs, _ := m.Violations(id)
		for _, v := range vs {
			fmt.Fprintln(w, " ", v.Cause, v.Block, int64(v.Deadline), int64(v.Actual))
		}
	}
}

// admitTraced plans a whole-strand play and admits it; a rejection is
// part of the trace, not a failure.
func admitTraced(t *testing.T, w *bytes.Buffer, m *Manager, d disk.Device, s *strand.Strand, opts PlanOptions) RequestID {
	t.Helper()
	plan, err := PlanStrandPlay(d, s, opts)
	if err != nil {
		t.Fatal(err)
	}
	id, dec, err := m.AdmitPlay(plan)
	fmt.Fprintf(w, "admit strand %d class=%v: id=%d k=%d stride=%d cached=%v err=%v\n", s.ID(), opts.Class, id, dec.K, dec.Stride, dec.CacheServed, err)
	return id
}

// writeVideo records a synthetic video strand straight through a writer
// (no manager rounds), from the given logical cylinder.
func writeVideo(t *testing.T, d disk.Device, a *alloc.Allocator, st *strand.Store, startCyl, frames int, seed int64) *strand.Strand {
	t.Helper()
	w, err := strand.NewWriter(d, a, strand.WriterConfig{
		ID: st.NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 18000, Granularity: 3,
		Constraint:    alloc.Constraint{MinCylinders: 1, MaxCylinders: targetCylinders},
		StartCylinder: startCyl,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewVideoSource(frames, 18000, 30, seed)
	for u, ok := src.Next(); ok; u, ok = src.Next() {
		if _, err := w.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	s, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	st.Put(s)
	return s
}

// traceIntervalLifecycle: one disk, a leader and three followers of one
// strand plus an unrelated disk-bound play; a follower is paused and
// resumed both ways, then the leader stops and the orphans demote.
// forceK pins k so the population is concurrent; without it every
// admission and demotion schedules §3.4's transition rounds.
func traceIntervalLifecycle(t *testing.T, w *bytes.Buffer, forceK bool) {
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 450, 18000, 3, 30, 501)
	other := rig.recordVideo(t, 240, 18000, 3, 30, 502)
	rig.m = New(rig.d, continuity.AdmissionFor(rig.dev))
	rig.m.SetCache(cache.New(16 << 20))
	name := "interval lifecycle, stepwise k"
	if forceK {
		name = "interval lifecycle, k forced"
		tmpl := continuity.Request{Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
		rig.m.ForceK(cacheRigK(t, rig.m.adm, tmpl, 4))
	}
	ring := traced(rig.m)
	opts := PlanOptions{ReadAhead: 2, Buffers: 4, Scattering: rig.scattering()}
	var ids []RequestID
	for i := 0; i < 4; i++ {
		ids = append(ids, admitTraced(t, w, rig.m, rig.d, s, opts))
		rig.m.RunFor(300 * time.Millisecond)
	}
	ids = append(ids, admitTraced(t, w, rig.m, rig.d, other, opts))
	rig.m.RunFor(700 * time.Millisecond)
	step := func(what string, err error) {
		fmt.Fprintf(w, "%s at %d: err=%v\n", what, rig.m.Now(), err)
	}
	step("pause 2 (keeps resources)", rig.m.Pause(ids[1], false))
	step("pause 3 (destructive)", rig.m.Pause(ids[2], true))
	rig.m.RunFor(500 * time.Millisecond)
	_, err := rig.m.Resume(ids[1])
	step("resume 2", err)
	_, err = rig.m.Resume(ids[2])
	step("resume 3", err)
	rig.m.RunFor(900 * time.Millisecond)
	step("stop leader", rig.m.Stop(ids[0]))
	// Late joiners while the orphans are resolving.
	ids = append(ids, admitTraced(t, w, rig.m, rig.d, s, opts))
	rig.m.RunFor(200 * time.Millisecond)
	ids = append(ids, admitTraced(t, w, rig.m, rig.d, s, opts))
	rig.m.RunUntilDone()
	dumpTrace(t, w, name, rig.m, ring, ids)
}

// traceOrphans: three plays of one strand admitted at the same instant,
// the leader stopped before a round runs — the orphans sit at one
// position, adopt each other once, then each takes full admission and
// waits out its transition rounds.
func traceOrphans(t *testing.T, w *bytes.Buffer) {
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 300, 18000, 3, 30, 511)
	rig.m = New(rig.d, continuity.AdmissionFor(rig.dev))
	rig.m.SetCache(cache.New(16 << 20))
	ring := traced(rig.m)
	opts := PlanOptions{ReadAhead: 2, Buffers: 4, Scattering: rig.scattering()}
	var ids []RequestID
	for i := 0; i < 3; i++ {
		ids = append(ids, admitTraced(t, w, rig.m, rig.d, s, opts))
	}
	if err := rig.m.Stop(ids[0]); err != nil {
		t.Fatal(err)
	}
	rig.m.RunUntilDone()
	dumpTrace(t, w, "orphaned followers", rig.m, ring, ids)
}

// traceSilentAudio: silence-eliminated audio under the cache. A leader
// asks the cache for every block, silence holders included; a follower
// regenerates silence without asking.
func traceSilentAudio(t *testing.T, w *bytes.Buffer) {
	rig := newRig(t, disk.DefaultGeometry())
	const units, unitBytes, gran = 480, 800, 4
	det := media.DefaultSilenceDetector()
	sw, err := strand.NewWriter(rig.d, rig.a, strand.WriterConfig{
		ID: rig.st.NewID(), Medium: layout.Audio, Rate: 10, UnitBytes: unitBytes, Granularity: gran,
		Constraint: alloc.Constraint{MinCylinders: 1, MaxCylinders: 50},
		Silence:    &det,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := traced(rig.m)
	rec, _, err := rig.m.AdmitRecord(PlanRecord("audio", sw, media.NewAudioSource(units, unitBytes, 10, 0.5, 8, 11), gran, units, 0.01, 4))
	if err != nil {
		t.Fatal(err)
	}
	rig.m.RunUntilDone()
	s, err := sw.Close()
	if err != nil {
		t.Fatal(err)
	}
	rig.st.Put(s)
	dumpTrace(t, w, "silence-eliminated audio: record", rig.m, ring, []RequestID{rec})

	rig.m = New(rig.d, continuity.AdmissionFor(rig.dev))
	rig.m.SetCache(cache.New(4 << 20))
	ring = traced(rig.m)
	opts := PlanOptions{ReadAhead: 2, Buffers: 4, Scattering: 0.01}
	// A gap holding a silence block is never resident, so followers are
	// only adopted at the leader's own position: admit them together.
	var ids []RequestID
	for i := 0; i < 3; i++ {
		ids = append(ids, admitTraced(t, w, rig.m, rig.d, s, opts))
	}
	rig.m.RunFor(1500 * time.Millisecond)
	ids = append(ids, admitTraced(t, w, rig.m, rig.d, s, opts))
	rig.m.RunUntilDone()
	if st := rig.m.Stats(); rig.m.Cache().Stats().Adoptions != 2 || st.SilenceBlocks == 0 || st.Demotions != 0 {
		t.Fatalf("the followers did not trail the leader through the silence: %+v, cache %+v", st, rig.m.Cache().Stats())
	}
	dumpTrace(t, w, "silence-eliminated audio: leader and followers", rig.m, ring, ids)
}

// traceArray: a 4-spindle striped array under the cache carrying one
// play per spindle, a play whose strand crosses stripe groups, a second
// play of one strand with a follower trailing it, and a record, with
// transient faults on one spindle spending retry slack. Every play that
// reads the disk from one spindle — a leader feeding the cache included —
// rides that spindle's lane; the crossing play, the follower and the
// record ride the serial lane.
func traceArray(t *testing.T, w *bytes.Buffer) {
	const p, stripe = 4, 120
	rig := newStripedRig(t, p, stripe, 2, fault.Scenario{Seed: 5, ReadErrorRate: 0.08, SlowdownRate: 0.05, SlowdownFactor: 3})
	rig.m.SetCache(cache.New(8 << 20))
	ring := traced(rig.m)
	opts := PlanOptions{ReadAhead: 1, Buffers: 16, Scattering: rig.scattering()}
	var ids []RequestID
	for sp := 0; sp < p; sp++ {
		s := rig.recordOn(t, sp, 0, 90*(sp+1), int64(520+sp))
		ids = append(ids, admitTraced(t, w, rig.m, rig.arr, s, opts))
	}
	crossing := writeVideo(t, rig.arr, rig.a, rig.st, rig.logicalStart(0, 112), 300, 530)
	spindles := map[int]bool{}
	for i := 0; i < crossing.NumBlocks(); i++ {
		e, err := crossing.Block(i)
		if err != nil {
			t.Fatal(err)
		}
		sp, _ := rig.arr.Locate(int(e.Sector))
		spindles[sp] = true
	}
	if len(spindles) < 2 {
		t.Fatalf("the crossing strand stayed on one spindle: %v", spindles)
	}
	ids = append(ids, admitTraced(t, w, rig.m, rig.arr, crossing, opts))
	shared := rig.recordOn(t, 1, 40, 240, 531)
	ids = append(ids, admitTraced(t, w, rig.m, rig.arr, shared, opts))
	rig.m.RunFor(400 * time.Millisecond)
	ids = append(ids, admitTraced(t, w, rig.m, rig.arr, shared, opts))

	rw, err := strand.NewWriter(rig.arr, rig.a, strand.WriterConfig{
		ID: rig.st.NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 18000, Granularity: 3,
		Constraint:    alloc.Constraint{MinCylinders: 1, MaxCylinders: targetCylinders},
		StartCylinder: rig.logicalStart(3, 60),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec, dec, err := rig.m.AdmitRecord(PlanRecord("rec", rw, media.NewVideoSource(150, 18000, 30, 532), 3, 150, rig.scattering(), 4))
	fmt.Fprintf(w, "admit record: id=%d k=%d err=%v\n", rec, dec.K, err)
	if err == nil {
		ids = append(ids, rec)
	}
	rig.m.RunUntilDone()
	dumpTrace(t, w, "striped array", rig.m, ring, ids)
}

// traceMirroredRebuild: a mirrored array loses a spindle mid-run, its
// streams re-steer to the twin, the operator rebuilds it while plays
// continue, and repair-only rounds finish the copy.
func traceMirroredRebuild(t *testing.T, w *bytes.Buffer) {
	const p, stripe, victim = 4, 120, 1
	rig := newMirroredRig(t, p, stripe, victim, fault.Scenario{Seed: 7, DieRound: 5})
	ring := traced(rig.m)
	var ids []RequestID
	strands := make([]*strand.Strand, p)
	for sp := 0; sp < p; sp++ {
		strands[sp] = rig.recordPreferring(t, sp, 0, 240, int64(540+sp))
	}
	for sp := 0; sp < p; sp++ {
		ids = append(ids, rig.play(t, strands[sp], 32))
	}
	for i := 0; i < 12 && rig.m.RunRound(); i++ {
	}
	fmt.Fprintf(w, "rebuild at %d: err=%v\n", rig.m.Now(), rig.m.Rebuild(victim))
	ids = append(ids, rig.play(t, strands[0], 32))
	rig.m.RunUntilDone()
	done, total := rig.m.RepairProgress()
	fmt.Fprintf(w, "repair %d/%d active=%v victim=%v\n", done, total, rig.m.RepairActive(), rig.arr.SpindleState(victim))
	rig.arr.RefreshSteering()
	ids = append(ids, rig.play(t, strands[victim], 32))
	rig.m.RunUntilDone()
	dumpTrace(t, w, "mirrored rebuild", rig.m, ring, ids)
}

// traceQoS: one disk driven past n_max with classes at a pinned k:
// best-effort and standard plays are shed for premium candidates or
// admitted sub-sampled themselves, and promoted back as the population
// drains.
func traceQoS(t *testing.T, w *bytes.Buffer) {
	rig := newRig(t, disk.DefaultGeometry())
	tmpl := continuity.Request{Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
	nmax := rig.m.adm.NMax(tmpl)
	k := cacheRigK(t, rig.m.adm, tmpl, nmax)
	var strands []*strand.Strand
	for i := 0; i < 3; i++ {
		strands = append(strands, writeVideo(t, rig.d, rig.a, rig.st, 100+300*i, 600+150*i, int64(550+i)))
	}
	rig.m = New(rig.d, continuity.AdmissionFor(rig.dev))
	rig.m.SetPolicy(NaiveJump)
	rig.m.ForceK(k)
	rig.m.SetQoS(QoSPolicy{MaxStride: 4})
	ring := traced(rig.m)
	var ids []RequestID
	for i := 0; i < nmax+5; i++ {
		class := continuity.Class(i % continuity.NumClasses)
		if i >= nmax {
			class = continuity.Class((i + 2) % continuity.NumClasses)
		}
		id := admitTraced(t, w, rig.m, rig.d, strands[i%len(strands)], PlanOptions{ReadAhead: 2, Buffers: 2 * k, Scattering: rig.scattering(), Class: class})
		rig.m.ForceK(k)
		if id != 0 {
			ids = append(ids, id)
		}
		rig.m.RunRound()
	}
	if st := rig.m.Stats(); st.LoadDemotions == 0 {
		t.Fatalf("the overload shed nothing: %+v", st)
	}
	rig.m.RunUntilDone()
	if st := rig.m.Stats(); st.ShedBlocks == 0 || st.Promotions == 0 {
		t.Fatalf("no block was skipped or no stream promoted back: %+v", st)
	}
	dumpTrace(t, w, "QoS shedding", rig.m, ring, ids)
}

// TestRoundTraceGolden pins what service rounds make observable — every
// round's trace record, the manager and cache counters, each request's
// progress and violations — for seeded scenarios covering every way
// through a round. The golden file was generated at the commit before
// the play loops were merged and the serial lane took a private cursor:
// a refactor of the round passes it without -update or has moved
// behaviour.
func TestRoundTraceGolden(t *testing.T) {
	var w bytes.Buffer
	traceIntervalLifecycle(t, &w, true)
	traceIntervalLifecycle(t, &w, false)
	traceOrphans(t, &w)
	traceSilentAudio(t, &w)
	traceArray(t, &w)
	traceMirroredRebuild(t, &w)
	traceQoS(t, &w)

	path := filepath.Join("testdata", "round_trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, w.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want) {
		got, wantLines := bytes.Split(w.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range got {
			if i >= len(wantLines) || !bytes.Equal(got[i], wantLines[i]) {
				wl := []byte("<end of file>")
				if i < len(wantLines) {
					wl = wantLines[i]
				}
				t.Fatalf("round trace diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, got[i], wl)
			}
		}
		t.Fatalf("round trace is a strict prefix of %s (%d of %d lines)", path, len(got), len(wantLines))
	}
}
