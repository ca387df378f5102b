package msm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/fault"
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

// admitTraced admits a whole-strand play to the rig's manager and
// writes the outcome: a rejection is part of the trace, not a failure.
func admitTraced(w *bytes.Buffer, rig *testRig, s *strand.Strand, opts PlanOptions) RequestID {
	rig.t.Helper()
	id, dec, err := rig.tryPlay(rig.m, s, opts)
	fmt.Fprintf(w, "admit strand %d class=%v: id=%d k=%d stride=%d cached=%v err=%v\n", s.ID(), opts.Class, id, dec.K, dec.Stride, dec.CacheServed, err)
	return id
}

// traceIntervalLifecycle: one disk, a leader and three followers of one
// strand plus an unrelated disk-bound play; a follower is paused and
// resumed both ways, then the leader stops and the orphans demote.
// forceK pins k so the population is concurrent; without it every
// admission and demotion schedules §3.4's transition rounds.
func traceIntervalLifecycle(t *testing.T, w *bytes.Buffer, forceK bool) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 450, seed: 501})
	other := rig.record(take{units: 240, seed: 502})
	c := config{cache: 16 << 20}
	name := "interval lifecycle, stepwise k"
	if forceK {
		name = "interval lifecycle, k forced"
		tmpl := continuity.Request{Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
		c.k = cacheRigK(t, rig.m.adm, tmpl, 4)
	}
	rig.m = rig.manager(c)
	ring := traced(rig.m)
	opts := rig.std
	var ids []RequestID
	for i := 0; i < 4; i++ {
		ids = append(ids, admitTraced(w, rig, s, opts))
		rig.m.RunFor(300 * time.Millisecond)
	}
	ids = append(ids, admitTraced(w, rig, other, opts))
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
	ids = append(ids, admitTraced(w, rig, s, opts))
	rig.m.RunFor(200 * time.Millisecond)
	ids = append(ids, admitTraced(w, rig, s, opts))
	rig.m.RunUntilDone()
	dumpTrace(t, w, name, rig.m, ring, ids)
}

// traceOrphans: three plays of one strand admitted at the same instant,
// the leader stopped before a round runs — the orphans sit at one
// position, adopt each other once, then each takes full admission and
// waits out its transition rounds.
func traceOrphans(t *testing.T, w *bytes.Buffer) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 300, seed: 511})
	rig.m = rig.manager(config{cache: 16 << 20})
	ring := traced(rig.m)
	var ids []RequestID
	for i := 0; i < 3; i++ {
		ids = append(ids, admitTraced(w, rig, s, rig.std))
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
	rig := newRig(t, shape{})
	ring := traced(rig.m)
	s := rig.record(take{units: 480, seed: 11, audio: true})
	// The record is the first request the rig's manager admitted.
	dumpTrace(t, w, "silence-eliminated audio: record", rig.m, ring, []RequestID{1})

	rig.m = rig.manager(config{cache: 4 << 20})
	ring = traced(rig.m)
	opts := PlanOptions{ReadAhead: 2, Buffers: 4, Scattering: 0.01}
	// A gap holding a silence block is never resident, so followers are
	// only adopted at the leader's own position: admit them together.
	var ids []RequestID
	for i := 0; i < 3; i++ {
		ids = append(ids, admitTraced(w, rig, s, opts))
	}
	rig.m.RunFor(1500 * time.Millisecond)
	ids = append(ids, admitTraced(w, rig, s, opts))
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
	rig := newRig(t, shape{spindles: p, stripe: stripe, fault: fault.Scenario{Seed: 5, ReadErrorRate: 0.08, SlowdownRate: 0.05, SlowdownFactor: 3}, faultOn: 2})
	rig.m = rig.manager(config{cache: 8 << 20})
	ring := traced(rig.m)
	opts := rig.std
	var ids []RequestID
	for sp := 0; sp < p; sp++ {
		s := rig.write(take{units: 90 * (sp + 1), seed: int64(520 + sp), spindle: sp, pin: true})
		ids = append(ids, admitTraced(w, rig, s, opts))
	}
	crossing := rig.write(take{units: 300, seed: 530, cyl: 112})
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
	ids = append(ids, admitTraced(w, rig, crossing, opts))
	shared := rig.write(take{units: 240, seed: 531, spindle: 1, cyl: 40, pin: true})
	ids = append(ids, admitTraced(w, rig, shared, opts))
	rig.m.RunFor(400 * time.Millisecond)
	ids = append(ids, admitTraced(w, rig, shared, opts))

	rec, dec, err := rig.m.AdmitRecord(rig.recording(take{units: 150, seed: 532, spindle: 3, cyl: 60}))
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
	rig := newRig(t, shape{spindles: p, stripe: stripe, mirror: true, fault: fault.Scenario{Seed: 7, DieRound: 5}, faultOn: victim})
	ring := traced(rig.m)
	opts := PlanOptions{ReadAhead: 1, Buffers: 32, Scattering: rig.scattering()}
	var ids []RequestID
	strands := make([]*strand.Strand, p)
	for sp := 0; sp < p; sp++ {
		strands[sp] = rig.write(take{units: 240, seed: int64(540 + sp), spindle: sp, pin: true})
	}
	for sp := 0; sp < p; sp++ {
		ids = append(ids, rig.play(strands[sp], opts))
	}
	for i := 0; i < 12 && rig.m.RunRound(); i++ {
	}
	fmt.Fprintf(w, "rebuild at %d: err=%v\n", rig.m.Now(), rig.m.Rebuild(victim))
	ids = append(ids, rig.play(strands[0], opts))
	rig.m.RunUntilDone()
	done, total := rig.m.RepairProgress()
	fmt.Fprintf(w, "repair %d/%d active=%v victim=%v\n", done, total, rig.m.RepairActive(), rig.arr.SpindleState(victim))
	rig.arr.RefreshSteering()
	ids = append(ids, rig.play(strands[victim], opts))
	rig.m.RunUntilDone()
	dumpTrace(t, w, "mirrored rebuild", rig.m, ring, ids)
}

// traceQoS: one disk driven past n_max with classes at a pinned k:
// best-effort and standard plays are shed for premium candidates or
// admitted sub-sampled themselves, and promoted back as the population
// drains.
func traceQoS(t *testing.T, w *bytes.Buffer) {
	rig := newRig(t, shape{})
	tmpl := continuity.Request{Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30, Scattering: rig.scattering()}
	nmax := rig.m.adm.NMax(tmpl)
	k := cacheRigK(t, rig.m.adm, tmpl, nmax)
	var strands []*strand.Strand
	for i := 0; i < 3; i++ {
		strands = append(strands, rig.write(take{units: 600 + 150*i, seed: int64(550 + i), cyl: 100 + 300*i}))
	}
	rig.m = rig.manager(config{policy: NaiveJump, k: k, qos: 4})
	ring := traced(rig.m)
	var ids []RequestID
	for i := 0; i < nmax+5; i++ {
		class := continuity.Class(i % continuity.NumClasses)
		if i >= nmax {
			class = continuity.Class((i + 2) % continuity.NumClasses)
		}
		id := admitTraced(w, rig, strands[i%len(strands)], PlanOptions{ReadAhead: 2, Buffers: 2 * k, Scattering: rig.scattering(), Class: class})
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
