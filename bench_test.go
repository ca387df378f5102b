package mmfs

// bench_test.go regenerates every quantitative artifact of Rangan &
// Vin (SOSP '91) as a benchmark — one benchmark per experiment ID of
// DESIGN.md §4 — plus micro-benchmarks of the hot paths (disk model,
// allocator, admission math, index lookups, block retrieval, plan
// compilation, wire codec). Experiment benchmarks report headline
// numbers via b.ReportMetric so `go test -bench=.` reproduces the
// paper's tables' key values alongside the timing.

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/experiments"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
	"mmfs/internal/server"
	"mmfs/internal/strand"
	"mmfs/internal/wire"
)

// --- Experiment benchmarks: one per table/figure -------------------

func cellFloat(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(s), "%"), 64)
	if err != nil {
		b.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// BenchmarkFigure4KvsN regenerates Figure 4 (EXP-F4): the k-versus-n
// curve of the admission control algorithm, analytic and simulated.
func BenchmarkFigure4KvsN(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.F4()
	}
	last := res.Rows[len(res.Rows)-1]
	b.ReportMetric(float64(len(res.Rows)), "n_max")
	b.ReportMetric(cellFloat(b, last[2]), "k_transient@n_max")
	b.ReportMetric(cellFloat(b, last[3]), "k_simulated@n_max")
}

// BenchmarkSequentialContinuity regenerates Eq. 1's frontier (EXP-E1).
func BenchmarkSequentialContinuity(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.E1Sequential()
	}
	b.ReportMetric(cellFloat(b, res.Rows[0][3]), "max_lds_ms@q1")
}

// BenchmarkPipelinedContinuity regenerates Eq. 2's frontier (EXP-E2).
func BenchmarkPipelinedContinuity(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.E2Pipelined()
	}
	b.ReportMetric(cellFloat(b, res.Rows[0][3]), "max_lds_ms@q1")
	b.ReportMetric(cellFloat(b, res.Rows[0][6]), "viol_past_bound@q1")
}

// BenchmarkConcurrentContinuity regenerates Eq. 3's frontier (EXP-E3).
func BenchmarkConcurrentContinuity(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.E3Concurrent()
	}
	b.ReportMetric(cellFloat(b, res.Rows[1][2]), "max_lds_ms@p2q3")
}

// BenchmarkMixedMedia regenerates Eqs. 4–6 (EXP-E46).
func BenchmarkMixedMedia(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.E46MixedMedia()
	}
	b.ReportMetric(float64(len(res.Rows)), "layout_rows")
}

// BenchmarkNMax regenerates Eq. 17 (EXP-N17).
func BenchmarkNMax(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.NMax()
	}
	b.ReportMetric(cellFloat(b, res.Rows[1][4]), "n_max_default")
}

// BenchmarkTransition regenerates the Eq. 18 transition contrast
// (EXP-TR).
func BenchmarkTransition(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Transition()
	}
	b.ReportMetric(cellFloat(b, res.Rows[0][4]), "viol_stepwise")
	b.ReportMetric(cellFloat(b, res.Rows[1][4]), "viol_naive")
}

// BenchmarkEditCopy regenerates Eqs. 19–20 (EXP-ED).
func BenchmarkEditCopy(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.EditCopy()
	}
	b.ReportMetric(cellFloat(b, res.Rows[0][3]), "copied_sparse_fwd")
}

// BenchmarkReadAhead regenerates the §3.3.2 provisioning sweep
// (EXP-RA).
func BenchmarkReadAhead(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.ReadAhead()
	}
	b.ReportMetric(cellFloat(b, res.Rows[0][4]), "viol_underprovisioned")
	b.ReportMetric(cellFloat(b, res.Rows[len(res.Rows)-1][4]), "viol_provisioned")
}

// BenchmarkSilence regenerates §4's silence elimination (EXP-SIL).
func BenchmarkSilence(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Silence()
	}
	b.ReportMetric(cellFloat(b, res.Rows[len(res.Rows)-1][5]), "saved_pct@80")
}

// BenchmarkHDTVMotivation regenerates §3's motivating arithmetic
// (EXP-HDTV).
func BenchmarkHDTVMotivation(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.HDTV()
	}
	b.ReportMetric(cellFloat(b, res.Rows[0][2]), "random_gbps")
	b.ReportMetric(cellFloat(b, res.Rows[2][2]), "constrained_gbps")
}

// BenchmarkFastForward regenerates §3.3.2's fast-forward analysis
// (EXP-FF).
func BenchmarkFastForward(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.FastForward()
	}
	b.ReportMetric(float64(len(res.Rows)), "speed_rows")
}

// --- Micro-benchmarks: hot paths -----------------------------------

// BenchmarkDiskAccessModel measures the seek/latency/transfer
// computation at the heart of every timed access.
func BenchmarkDiskAccessModel(b *testing.B) {
	d := disk.MustNew(disk.DefaultGeometry())
	spc := d.Geometry().SectorsPerCylinder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.PeekServiceTime(0, (i%1000)*spc, 9)
	}
}

// BenchmarkTimedBlockRead measures the owning timed read (ReadInto into
// a buffer of the caller's own, allocated per read as bench/baseline.json
// has always counted it): charge, head movement, statistics and the copy
// off the platters.
func BenchmarkTimedBlockRead(b *testing.B) {
	d := disk.MustNew(disk.DefaultGeometry())
	payload := make([]byte, 9*2048)
	spc := d.Geometry().SectorsPerCylinder()
	for c := 0; c < 64; c++ {
		if err := d.WriteAt(c*16*spc, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.ReadInto(0, (i%64)*16*spc, 9, make([]byte, len(payload))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConstrainedAllocation measures constrained placement plus
// free, the write path's allocation cost.
func BenchmarkConstrainedAllocation(b *testing.B) {
	g := disk.DefaultGeometry()
	a, err := alloc.New(g, 64)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := a.AllocateNearCylinder(600, 9)
	if err != nil {
		b.Fatal(err)
	}
	c := alloc.Constraint{MinCylinders: 1, MaxCylinders: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := a.AllocateConstrained(prev, 9, c)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(run)
	}
}

// BenchmarkAdmissionControl measures the α/β/γ + k computation run on
// every admission decision.
func BenchmarkAdmissionControl(b *testing.B) {
	g := disk.DefaultGeometry()
	adm := continuity.Admission{
		MaxAccess:    continuity.Seconds(g.MaxAccessTime()),
		TransferRate: g.TransferRateBits(),
	}
	m := continuity.NTSCVideo()
	reqs := make([]continuity.Request, 4)
	for i := range reqs {
		reqs[i] = continuity.Request{Granularity: 3, UnitBits: m.UnitBits, Rate: m.Rate, Scattering: 0.011}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := adm.KTransient(reqs); !ok {
			b.Fatal("unserviceable")
		}
	}
}

// BenchmarkIndexBuildLoad measures the 3-level index round trip for a
// 1000-block strand.
func BenchmarkIndexBuildLoad(b *testing.B) {
	d := disk.MustNew(disk.DefaultGeometry())
	entries := make([]layout.PrimaryEntry, 1000)
	for i := range entries {
		entries[i] = layout.PrimaryEntry{Sector: uint32(10000 + i*16), SectorCount: 9}
	}
	h := layout.Header{StrandID: 1, Medium: layout.Video, RateMilli: 30000, UnitBits: 144000, Granularity: 3, UnitCount: 3000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := 1000
		ix, err := layout.BuildIndex(h, entries, 2048, func(n int) (int, error) {
			lba := next
			next += n
			return lba, nil
		}, d)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := layout.LoadIndex(d, int(ix.HeaderRun.Sector), int(ix.HeaderRun.SectorCount), 2048); err != nil {
			b.Fatal(err)
		}
	}
}

// benchFS builds a small file system with one recorded AV rope.
func benchFS(b *testing.B) (*core.FS, *rope.Rope) {
	b.Helper()
	return benchFSWith(b, core.Options{})
}

// benchFSWith is benchFS on a file system formatted with opts.
func benchFSWith(b *testing.B, opts core.Options) (*core.FS, *rope.Rope) {
	b.Helper()
	fs, err := core.Format(opts)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := fs.Record(core.RecordSpec{
		Creator: "bench",
		Video:   media.NewVideoSource(300, 18000, 30, 1),
		Audio:   media.NewAudioSource(100, 800, 10, 0.3, 20, 2),
	})
	if err != nil {
		b.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	r, err := sess.Finish()
	if err != nil {
		b.Fatal(err)
	}
	return fs, r
}

// BenchmarkRopePlanCompile measures compiling a rope into an MSM
// playback plan.
func BenchmarkRopePlanCompile(b *testing.B) {
	fs, r := benchFS(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Ropes().CompilePlay(fs.Disk(), r, rope.VideoOnly, 0, r.Length(), msm.PlanOptions{ReadAhead: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlaybackRound measures the service-round loop two ways.
// The full variant is one complete 10-second playback simulation per
// op (admission + service rounds + deadline accounting), reporting the
// simulated disk work per play so cache wins elsewhere in the suite
// have a disk-bound baseline. The steady variant times single service
// rounds on a warmed manager — admission, plan compilation, and
// re-admission all happen off the clock — and its allocs/op must be
// zero: that is the real-time path discipline (DESIGN.md §12), which
// this measurement is the proof of, gated in CI.
func BenchmarkPlaybackRound(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		fs, r := benchFS(b)
		before := fs.Disk().Stats()
		snap0 := fs.Metrics().Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mgr := fs.NewManager()
			plan, err := fs.Ropes().CompilePlay(fs.Disk(), r, rope.VideoOnly, 0, r.Length(), msm.PlanOptions{ReadAhead: 2})
			if err != nil {
				b.Fatal(err)
			}
			id, _, err := mgr.AdmitPlay(plan)
			if err != nil {
				b.Fatal(err)
			}
			mgr.RunUntilDone()
			if v, _ := mgr.Violations(id); len(v) != 0 {
				b.Fatal("violations in benchmark playback")
			}
		}
		b.StopTimer()
		after := fs.Disk().Stats()
		b.ReportMetric(float64((after.BusyTime()-before.BusyTime()).Milliseconds())/float64(b.N), "disk_busy_ms/op")
		b.ReportMetric(float64(after.Reads-before.Reads)/float64(b.N), "disk_blocks/op")
		// The same work as seen by the observability registry: obs-sourced
		// values must track the raw disk stats, and archiving both lets the
		// CI compare catch a divergence between the two accountings.
		snap1 := fs.Metrics().Snapshot()
		r0, _ := snap0.Counter("mmfs_rounds_total")
		r1, _ := snap1.Counter("mmfs_rounds_total")
		b.ReportMetric(float64(r1-r0)/float64(b.N), "rounds/op")
		b0, _ := snap0.Counter("mmfs_disk_busy_ns_total")
		b1, _ := snap1.Counter("mmfs_disk_busy_ns_total")
		b.ReportMetric(float64(b1-b0)/1e6/float64(b.N), "obs_disk_busy_ms/op")
	})
	b.Run("steady", func(b *testing.B) {
		fs, r := benchFS(b)
		admit := func(b *testing.B) *msm.Manager {
			mgr := fs.NewManager()
			plan, err := fs.Ropes().CompilePlay(fs.Disk(), r, rope.VideoOnly, 0, r.Length(), msm.PlanOptions{ReadAhead: 2})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := mgr.AdmitPlay(plan); err != nil {
				b.Fatal(err)
			}
			// Warm the scratch arenas (block buffer, round scratch,
			// trace ring) so the measured rounds run at steady state.
			for i := 0; i < 4; i++ {
				if !mgr.RunRound() {
					b.Fatal("playback drained during warm-up")
				}
			}
			return mgr
		}
		mgr := admit(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !mgr.RunRound() {
				// The play drained: re-admit off the clock.
				b.StopTimer()
				mgr = admit(b)
				b.StartTimer()
			}
		}
	})
}

// BenchmarkCacheCoupledRound times single service rounds on the path
// `mmfsd -disks 4 -cachemb 64` runs for a PLAY: a 4-spindle array, the
// interval cache on, one AV play. Its two requests hold open cache
// streams, so the partition hands the parallel lanes nothing and the
// serial lane does the round: miss, lent read, Put. Steady state is
// reached the way the daemon and the serve workloads reach it — an
// earlier play has grown the cache to the clip's residency and every
// later manager is handed those frames — so the measured rounds allocate
// nothing (CI-gated, like PlaybackRound/steady) and spawn nothing.
func BenchmarkCacheCoupledRound(b *testing.B) {
	fs, r := benchFSWith(b, core.Options{Disks: 4, CacheMB: 64})
	admit := func(b *testing.B) *msm.Manager {
		mgr := fs.NewManager()
		if _, err := fs.Play("bench", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if !mgr.RunRound() {
				b.Fatal("playback drained during warm-up")
			}
		}
		return mgr
	}
	admit(b).RunUntilDone()
	mgr := admit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !mgr.RunRound() {
			b.StopTimer()
			mgr = admit(b)
			b.StartTimer()
		}
	}
	b.StopTimer()
	st := mgr.Stats()
	if st.Violations != 0 {
		b.Fatalf("%d violation(s) in %d cache-coupled rounds", st.Violations, st.Rounds)
	}
	if cs := mgr.Cache().Stats(); cs.Inserts == 0 {
		b.Fatalf("the play never fed the cache: %+v", cs)
	}
}

// BenchmarkCachedConcurrentPlayback plays one rope four times at once
// (a leader plus three staggered followers), with and without the
// interval cache, and reports how much disk work the cache removes at
// an equal stream count. The lent variant runs the cached case on the
// daemon benchmark's 4-spindle array, where a block is lent by a spindle
// through the array: every block the leader feeds the cache must be
// retained as a view — the run fails if the cache ends owning a byte.
func BenchmarkCachedConcurrentPlayback(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		mb    int
		disks int
	}{{"cache", 16, 1}, {"nocache", 0, 1}, {"lent", 16, 4}} {
		b.Run(cfg.name, func(b *testing.B) {
			var admitted, diskBlocks, hitPct, obsHitPct, owned float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs, err := core.Format(core.Options{CacheMB: cfg.mb, Disks: cfg.disks})
				if err != nil {
					b.Fatal(err)
				}
				sess, err := fs.Record(core.RecordSpec{
					Creator: "bench",
					Video:   media.NewVideoSource(300, 18000, 30, 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				fs.Manager().RunUntilDone()
				r, err := sess.Finish()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				mgr := fs.NewManager()
				before := fs.Disk().Stats()
				var ids []msm.RequestID
				for p := 0; p < 4; p++ {
					plan, err := fs.Ropes().CompilePlay(fs.Disk(), r, rope.VideoOnly, 0, r.Length(), msm.PlanOptions{ReadAhead: 2})
					if err != nil {
						b.Fatal(err)
					}
					id, _, err := mgr.AdmitPlay(plan)
					if err != nil {
						b.Fatal(err)
					}
					ids = append(ids, id)
					mgr.RunFor(400 * time.Millisecond)
				}
				mgr.RunUntilDone()
				for _, id := range ids {
					if v, _ := mgr.Violations(id); len(v) != 0 {
						b.Fatal("violations in cached concurrent playback")
					}
				}
				st := mgr.Stats()
				after := fs.Disk().Stats()
				admitted += float64(len(ids))
				diskBlocks += float64(after.Reads - before.Reads)
				if st.BlocksFetched > 0 {
					hitPct += 100 * float64(st.CacheHits) / float64(st.BlocksFetched)
				}
				// Hit ratio as the observability registry reports it
				// (the fs is fresh per iteration, so the counters cover
				// exactly this iteration's work).
				snap := fs.Metrics().Snapshot()
				oh, _ := snap.Counter("mmfs_round_cache_hits_total")
				of, _ := snap.Counter("mmfs_blocks_fetched_total")
				if of > 0 {
					obsHitPct += 100 * float64(oh) / float64(of)
				}
				if c := mgr.Cache(); c != nil {
					owned += float64(c.Stats().OwnedBytes)
				}
			}
			n := float64(b.N)
			if cfg.name == "lent" {
				b.ReportMetric(owned/n, "cache_owned_B")
				if owned != 0 {
					b.Fatalf("the cache copied %.0f B of blocks the array lent", owned/n)
				}
			}
			b.ReportMetric(admitted/n, "n_admitted")
			b.ReportMetric(diskBlocks/n, "disk_blocks")
			b.ReportMetric(hitPct/n, "cache_hit_pct")
			b.ReportMetric(obsHitPct/n, "obs_hit_pct")
		})
	}
}

// BenchmarkEditInsert measures the INSERT operation including
// scattering maintenance and GC.
func BenchmarkEditInsert(b *testing.B) {
	fs, r1 := benchFS(b)
	sess, err := fs.Record(core.RecordSpec{
		Creator: "bench",
		Video:   media.NewVideoSource(60, 18000, 30, 3),
	})
	if err != nil {
		b.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	r2, err := sess.Finish()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.Insert("bench", r1.ID, 0, rope.VideoOnly, r2.ID, 0, r2.Length()); err != nil {
			b.Fatal(err)
		}
		// Undo so the rope stays the same size across iterations.
		if _, err := fs.DeleteRange("bench", r1.ID, rope.AudioVisual, 0, r2.Length()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrandWrite measures the recording write path (allocation +
// timed write) per media block.
func BenchmarkStrandWrite(b *testing.B) {
	g := disk.DefaultGeometry()
	d := disk.MustNew(g)
	a, err := alloc.New(g, 64)
	if err != nil {
		b.Fatal(err)
	}
	st := strand.NewStore(d, a)
	payload := media.FramePayload(1, 0, 18000)
	b.SetBytes(18000)
	b.ResetTimer()
	i := 0
	for i < b.N {
		w, err := strand.NewWriter(d, a, strand.WriterConfig{
			ID: st.NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 18000, Granularity: 1,
			Constraint:    alloc.Constraint{MinCylinders: 1, MaxCylinders: 32},
			StartCylinder: (i * 131) % g.Cylinders,
		})
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 256 && i < b.N; j++ {
			if _, err := w.Append(media.Unit{Seq: uint64(j), Payload: payload}); err != nil {
				b.Fatal(err)
			}
			i++
		}
		w.Abort() // release space so the disk never fills
	}
}

// BenchmarkWireCodec measures request encode + decode for a PLAY call.
func BenchmarkWireCodec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := wire.NewEncoder().Str("user").U64(7).U16(1).I64(0).I64(5e9).U32(2)
		body := wire.Request(wire.OpPlay, e.Bytes())
		op, payload, err := wire.ParseRequest(body)
		if err != nil || op != wire.OpPlay {
			b.Fatal("parse")
		}
		d := wire.NewDecoder(payload)
		_ = d.Str()
		_ = d.U64()
		_ = d.U16()
		_ = d.I64()
		_ = d.I64()
		_ = d.U32()
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}

// BenchmarkCodecSmall measures a STATS-shaped reply — thirty-odd fixed-
// width fields, no strings — encoded into a reused encoder, framed in
// place and decoded in place: the per-RPC codec cost of every small
// op. Nothing in it allocates (CI-gated at 0 allocs/op).
func BenchmarkCodecSmall(b *testing.B) {
	e := wire.NewEncoder()
	e.Grow(256)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.F64(0.5).U32(5).U32(3).U64(uint64(i)).U32(2).U32(1).U32(1).U64(99).U64(1 << 20).U64(64 << 20).U32(1).
			U64(3).U64(2).U64(1)
		for c := 0; c < continuity.NumClasses; c++ {
			e.U32(1).U32(0).F64(29.97)
		}
		e.U64(4).U64(5).U64(6).U32(0).U32(7).U32(120).U64(840)
		frame, err := e.Frame(wire.StatusOK)
		if err != nil {
			b.Fatal(err)
		}
		body, err := wire.ParseResponse(frame[4:])
		if err != nil {
			b.Fatal(err)
		}
		d := wire.NewDecoder(body)
		sink += uint64(d.F64()) + uint64(d.U32()) + uint64(d.U32()) + d.U64() + uint64(d.U32()) + uint64(d.U32()) +
			uint64(d.U32()) + d.U64() + d.U64() + d.U64() + uint64(d.U32()) + d.U64() + d.U64() + d.U64()
		for c := 0; c < continuity.NumClasses; c++ {
			sink += uint64(d.U32()) + uint64(d.U32()) + uint64(d.F64())
		}
		sink += d.U64() + d.U64() + d.U64() + uint64(d.Count(2)) + uint64(d.U32()) + uint64(d.U32()) + d.U64()
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
	if sink == 0 {
		b.Fatal("decoded nothing")
	}
}

// BenchmarkFetchReply measures the server's FETCH handler for one
// second of video on a 4-spindle array, dispatched into a warmed
// connection encoder: decode, walk the rope, copy each lent frame once
// into the reply buffer, frame in place. The reply is 540 KB; what a
// call allocates must not scale with it (gated below 8 KiB/op here, and
// on allocs/op by make bench-check).
func BenchmarkFetchReply(b *testing.B) {
	fs, r := benchFSWith(b, core.Options{Disks: 4})
	srv := server.New(fs)
	req := wire.NewEncoder().Str("bench").U64(uint64(r.ID)).U16(rope.VideoOnly.Code()).
		I64(0).I64(int64(time.Second)).Bytes()
	e := wire.NewEncoder()
	fetch := func() int {
		frame := srv.Handle(wire.OpFetch, req, e)
		if _, err := wire.ParseResponse(frame[4:]); err != nil {
			b.Fatal(err)
		}
		return len(frame)
	}
	const want = 4 + 2 + 4 + 30*(4+18000)
	if got := fetch(); got != want { // also warms the encoder
		b.Fatalf("reply of %d bytes, want %d", got, want)
	}
	if perOp := allocatedPerOp(b, func() { fetch() }); perOp >= 8<<10 {
		b.Fatalf("%d B/op allocated for a %d-byte reply: something scales with the payload", perOp, want)
	}
}

// allocatedPerOp runs fn b.N times under the timer and returns the bytes
// it allocated per call, from the runtime's own counter (ReportAllocs
// shows the same figure; a benchmark that gates itself needs it in hand).
func allocatedPerOp(b *testing.B, fn func()) uint64 {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
}

// BenchmarkEditCycle is the write path of one wire-edit cycle on the
// host: INSERT two seconds of a clip into a ten-second rope, DELETE them
// again, Sync — on a rope aged by 100 earlier cycles, each of which left
// its splits and its copy strands behind. Every cycle smooths dozens of
// junctions, and a copied 54 000-byte video block must cost one copy into
// the platters, not a buffer: the benchmark fails itself at 16 KiB
// allocated per copied block (a copy strand's three index sectors and
// its registry entry come to about 7), so neither the smoothing read,
// nor WriteAt's padding, nor Sync's tables may allocate in proportion to
// the bytes they move. (The ageing cycles have materialised every
// cylinder page the copies land in, so the platters no longer grow.)
func BenchmarkEditCycle(b *testing.B) {
	fs, base := benchFS(b)
	sess, err := fs.Record(core.RecordSpec{
		Creator: "bench",
		Video:   media.NewVideoSource(150, 18000, 30, 3),
		Audio:   media.NewAudioSource(50, 800, 10, 0.3, 20, 4),
	})
	if err != nil {
		b.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	clip, err := sess.Finish()
	if err != nil {
		b.Fatal(err)
	}
	copied, n := 0, 0
	cycle := func() {
		pos := time.Duration(1+n%8) * time.Second
		from := time.Duration(n%4) * time.Second
		n++
		res, err := fs.Insert("bench", base.ID, pos, rope.AudioVisual, clip.ID, from, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		copied += res.CopiedBlocks()
		if res, err = fs.DeleteRange("bench", base.ID, rope.AudioVisual, pos, 2*time.Second); err != nil {
			b.Fatal(err)
		}
		copied += res.CopiedBlocks()
		if err := fs.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	copied = 0
	perOp := allocatedPerOp(b, cycle)
	if problems := fs.Check(); len(problems) != 0 {
		b.Fatalf("fsck after %d cycles: %v", n, problems)
	}
	if copied == 0 {
		b.Fatal("no cycle smoothed a junction; the benchmark must exercise the copy path")
	}
	perBlock := perOp * uint64(b.N) / uint64(copied)
	b.ReportMetric(float64(copied)/float64(b.N), "copied_blocks/op")
	b.ReportMetric(float64(perBlock), "B/copied_block")
	if perBlock >= 16<<10 {
		b.Fatalf("%d B allocated per copied block (%d B/op): something scales with the bytes copied or synced", perBlock, perOp)
	}
}

// BenchmarkSync is FS.Sync over the population a wire-edit run ends
// with — 600 strands, 7 ropes of 80 intervals each — with nothing
// changed between calls: the wholesale rewrite of the three tables, the
// bitmap and the superblock. It fails itself at 16 KiB/op: the sorted ID
// lists are the only allocations left, so a per-field or per-table
// buffer (the tables are ≈ 40 KB, the bitmap 67 KB) would show.
func BenchmarkSync(b *testing.B) {
	fs, _ := benchFS(b)
	var ids []strand.ID
	for i := 0; i < 600; i++ {
		w, err := strand.NewWriter(fs.Disk(), fs.Allocator(), strand.WriterConfig{
			ID: fs.Strands().NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 2048, Granularity: 1,
			Constraint:    fs.Constraint(),
			StartCylinder: (i * 131) % fs.Disk().Geometry().Cylinders,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Append(media.Unit{Payload: media.FramePayload(5, uint64(i), 2048)}); err != nil {
			b.Fatal(err)
		}
		s, err := w.Close()
		if err != nil {
			b.Fatal(err)
		}
		fs.Strands().Put(s)
		ids = append(ids, s.ID())
	}
	for r := 0; r < 7; r++ {
		rp := fs.Ropes().Create("bench")
		for i := 0; i < 80; i++ {
			rp.Intervals = append(rp.Intervals, rope.Interval{
				Video:    &rope.ComponentRef{Strand: ids[(r*80+i)%len(ids)]},
				Audio:    &rope.ComponentRef{Strand: ids[(r*80+i+300)%len(ids)]},
				Duration: time.Second / 30,
				Corr:     []rope.Correspondence{{}},
			})
		}
		fs.Ropes().SyncInterests(rp)
	}
	if err := fs.Sync(); err != nil { // sizes the scratch buffer
		b.Fatal(err)
	}
	perOp := allocatedPerOp(b, func() {
		if err := fs.Sync(); err != nil {
			b.Fatal(err)
		}
	})
	if problems := fs.Check(); len(problems) != 0 {
		b.Fatalf("fsck: %v", problems)
	}
	if perOp >= 16<<10 {
		b.Fatalf("%d B/op allocated by a Sync of 600 strands and 7 ropes: something allocates per field or per table", perOp)
	}
}

// BenchmarkVBRCompression regenerates the §6.2 variable-rate
// compression extension (EXP-VBR).
func BenchmarkVBRCompression(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.VBR()
	}
	for _, row := range res.Rows {
		if row[0] == "storage gain" {
			b.ReportMetric(cellFloat(b, strings.TrimSuffix(row[2], "×")), "storage_gain_x")
		}
	}
}

// BenchmarkScanOrdering regenerates the §6.2 seek-ordered servicing
// ablation (EXP-SCAN).
func BenchmarkScanOrdering(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Scan()
	}
	b.ReportMetric(cellFloat(b, res.Rows[0][3]), "seek_ms_zigzag")
	b.ReportMetric(cellFloat(b, res.Rows[2][3]), "seek_ms_cscan")
}

// BenchmarkReorganization regenerates the §6.2 storage reorganization
// scenario (EXP-REORG).
func BenchmarkReorganization(b *testing.B) {
	var res experiments.Result
	for i := 0; i < b.N; i++ {
		res = experiments.Reorg()
	}
	b.ReportMetric(cellFloat(b, res.Rows[0][3]), "blocks_before")
	b.ReportMetric(cellFloat(b, res.Rows[1][3]), "blocks_after")
}

// BenchmarkIntegrityCheck measures the full fsck pass over a populated
// file system.
func BenchmarkIntegrityCheck(b *testing.B) {
	fs, _ := benchFS(b)
	if err := fs.Sync(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if problems := fs.Check(); len(problems) != 0 {
			b.Fatalf("fsck: %v", problems)
		}
	}
}

// --- Striped-array benchmarks --------------------------------------

// stripedBench builds a p-spindle array rig with stripe-group-aligned
// video strands: per spindle, `per` strands of `frames` frames, each
// starting `gap` spindle-local cylinders after the previous.
type stripedBench struct {
	arr *disk.Array
	a   *alloc.Allocator
	dev continuity.Device
	p   int
}

// newStripedBench builds the array rig; mirror pairs the spindles into
// p/2 redundancy pairs (logical capacity halved, whole-spindle loss
// survivable).
func newStripedBench(b *testing.B, g disk.Geometry, p, stripe int, mirror bool) *stripedBench {
	b.Helper()
	devs := make([]disk.Device, p)
	for i := range devs {
		devs[i] = disk.MustNew(g)
	}
	arr, err := disk.NewArray(devs, stripe, mirror)
	if err != nil {
		b.Fatal(err)
	}
	a, err := alloc.New(arr.Geometry(), 64)
	if err != nil {
		b.Fatal(err)
	}
	lg := arr.Geometry()
	return &stripedBench{
		arr: arr, a: a, p: p,
		dev: msm.DeviceFor(lg),
	}
}

// record writes one strand onto the given spindle starting at the given
// spindle-local cylinder of a stripe-group (stripe cylinders wide).
func (sb *stripedBench) record(b *testing.B, cfg strand.WriterConfig, spindle, localCyl, stripe, units int, payload int) *strand.Strand {
	b.Helper()
	cfg.StartCylinder = sb.start(spindle, localCyl, stripe)
	return sb.write(b, cfg, media.NewVideoSource(units, payload, cfg.Rate, int64(1000*spindle+localCyl)))
}

// start is the logical cylinder a strand starts at to land on the given
// spindle at the given spindle-local cylinder.
func (sb *stripedBench) start(spindle, localCyl, stripe int) int {
	return (localCyl/stripe*sb.p+spindle)*stripe + localCyl%stripe
}

// recordMirrored writes one strand into the within'th stripe group
// whose balanced steering prefers the given spindle of a mirrored
// array: pair spindle/2, slot spindle%2 + 2*within.
func (sb *stripedBench) recordMirrored(b *testing.B, cfg strand.WriterConfig, spindle, within, units, payload int) *strand.Strand {
	b.Helper()
	group := (spindle%2+2*within)*sb.arr.MirrorGroups() + spindle/2
	cfg.StartCylinder = group * sb.arr.StripeCylinders()
	return sb.write(b, cfg, media.NewVideoSource(units, payload, cfg.Rate, int64(1000*spindle+within)))
}

// write records the source's units into a fresh strand at
// cfg.StartCylinder.
func (sb *stripedBench) write(b *testing.B, cfg strand.WriterConfig, src media.Source) *strand.Strand {
	b.Helper()
	w, err := strand.NewWriter(sb.arr, sb.a, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		if _, err := w.Append(u); err != nil {
			b.Fatal(err)
		}
	}
	s, err := w.Close()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStripedRound saturates a 4-spindle striped array with the
// per-spindle n_max on every spindle — 4× the single-disk admissible
// population, five plays a spindle. The full variant plays the whole set
// of 10 s plays to completion per op; its scaling_x metric (admitted /
// single-spindle n_max) is the headline: the committed baseline gates it
// at 4.0, and the benchmark itself fails below 3.6× (the 10%-of-ideal
// floor). The steady variant times single service rounds at the k
// admission steps to once every play has joined: a round's host cost
// must follow the blocks it moves, not k, and its allocs/op is CI-gated
// at zero like the other steady rounds'.
func BenchmarkStripedRound(b *testing.B) {
	const p, stripe = 4, 120
	sb := newStripedBench(b, disk.DefaultGeometry(), p, stripe, false)
	adm := continuity.AdmissionFor(sb.dev)
	scattering := continuity.Seconds(sb.arr.Geometry().AccessTime(32))
	nmax := adm.NMax(continuity.Request{
		Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30,
		Scattering: scattering,
	})
	total := p * nmax
	cfg := strand.WriterConfig{
		Medium: layout.Video, Rate: 30, UnitBytes: 18000, Granularity: 3,
		Constraint: alloc.Constraint{MinCylinders: 1, MaxCylinders: 32},
	}
	opts := msm.PlanOptions{ReadAhead: 1, Buffers: 16, Scattering: scattering}
	// The full variant's strands hop a cylinder or more a block, which is
	// what admission charges. The steady variant's are run-placed, the
	// layout serve-striped plays, and 50 s long, so its rounds settle
	// where serve-striped's do and stay there: a block costs far less
	// than its charge, k is at what admission stepped to, every play's
	// buffers are full, and a round moves only what the display freed.
	// Each spindle holds its five of either kind, in stripe groups of
	// their own; the long ones repeat one frame (their bytes are never
	// looked at, and generating them would dominate the set-up).
	run := cfg
	run.Constraint = alloc.RunPlacement(32)
	frame := media.FramePayload(1, 0, 18000)
	frames := make([]media.Unit, 1500)
	for i := range frames {
		frames[i] = media.Unit{Seq: uint64(i), Payload: frame}
	}
	plans := make([]msm.PlayPlan, total)
	runs := make([]msm.PlayPlan, total)
	planOf := func(s *strand.Strand) msm.PlayPlan {
		plan, err := msm.PlanStrandPlay(sb.arr, s, opts)
		if err != nil {
			b.Fatal(err)
		}
		return plan
	}
	for j := range plans {
		cfg.ID, run.ID = strand.ID(j+1), strand.ID(total+j+1)
		plans[j] = planOf(sb.record(b, cfg, j%p, (j/p)*stripe, stripe, 300, 18000))
		run.StartCylinder = sb.start(j%p, (nmax+j/p)*stripe, stripe)
		runs[j] = planOf(sb.write(b, run, media.NewSliceSource(frames, 30, 18000)))
	}
	// admitAll admits a population to a fresh manager and reports the k
	// admission stepped to.
	admitAll := func(b *testing.B, plans []msm.PlayPlan) (*msm.Manager, []msm.RequestID, int) {
		mgr := msm.New(sb.arr, adm)
		ids := make([]msm.RequestID, 0, total)
		k := 0
		for _, plan := range plans {
			id, dec, err := mgr.AdmitPlay(plan)
			if err != nil {
				b.Fatalf("admission lost capacity at n=%d: %v", len(ids), err)
			}
			ids = append(ids, id)
			k = max(k, dec.K)
		}
		return mgr, ids, k
	}
	b.Run("full", func(b *testing.B) {
		before := sb.arr.Stats()
		var admitted, violations, rounds float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mgr, ids, _ := admitAll(b, plans)
			mgr.RunUntilDone()
			admitted += float64(len(ids))
			for _, id := range ids {
				v, err := mgr.Violations(id)
				if err != nil {
					b.Fatal(err)
				}
				violations += float64(len(v))
			}
			rounds += float64(mgr.Stats().Rounds)
		}
		b.StopTimer()
		after := sb.arr.Stats()
		n := float64(b.N)
		scaling := admitted / n / float64(nmax)
		b.ReportMetric(float64(nmax), "nmax_single")
		b.ReportMetric(admitted/n, "n_admitted")
		b.ReportMetric(scaling, "scaling_x")
		b.ReportMetric(violations/n, "viol")
		b.ReportMetric(rounds/n, "rounds/op")
		b.ReportMetric(float64(after.Reads-before.Reads)/n, "disk_blocks/op")
		if scaling < 3.6 {
			b.Fatalf("aggregate admission scaled only %.2f× the single-disk n_max (want ≥ 3.6×)", scaling)
		}
		if violations != 0 {
			b.Fatalf("%v continuity violations at p·n_max", violations)
		}
	})
	b.Run("steady", func(b *testing.B) {
		// join admits the population, runs the transition rounds, and
		// warms the scratch arenas: the measured rounds run at the k
		// admission stepped to, with every play in the sweep.
		join := func(b *testing.B) (*msm.Manager, []msm.RequestID, int) {
			mgr, ids, k := admitAll(b, runs)
			for mgr.K() < k {
				mgr.RunRound()
			}
			for i := 0; i < 4; i++ {
				mgr.RunRound()
			}
			return mgr, ids, k
		}
		// The rounds are virtual-time deterministic, so a probe finds how
		// many rounds after the warm-up every play is still fetching; a
		// manager is replaced, off the clock, after that many.
		mgr, ids, k := join(b)
		steady := 0
		for running := true; running; steady++ {
			mgr.RunRound()
			for _, id := range ids {
				if pr, _ := mgr.Progress(id); pr.BlocksServed == pr.BlocksTotal {
					running = false
				}
			}
		}
		mgr, _, _ = join(b)
		var rounds, blocks uint64
		st0 := mgr.Stats()
		tally := func() {
			st := mgr.Stats()
			if st.Violations != 0 {
				b.Fatalf("%d continuity violations", st.Violations)
			}
			rounds, blocks = rounds+st.Rounds-st0.Rounds, blocks+st.BlocksFetched-st0.BlocksFetched
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i, left := 0, steady; i < b.N; i, left = i+1, left-1 {
			if left == 0 {
				b.StopTimer()
				tally()
				mgr, _, _ = join(b)
				st0, left = mgr.Stats(), steady
				b.StartTimer()
			}
			mgr.RunRound()
		}
		b.StopTimer()
		tally()
		b.ReportMetric(float64(k), "k")
		b.ReportMetric(float64(blocks)/float64(rounds), "blocks/round")
	})
}

// BenchmarkRound1000Streams times single service rounds with 1000
// concurrently admitted streams on a 4-spindle array — 250 per spindle,
// a population far past any single disk — using a scaled-down geometry
// (fast spindles, 2 KB blocks at 1 unit/s) so the per-spindle Eq. 18
// admits the load with k=3. Like BenchmarkPlaybackRound/steady, the
// measured rounds run on a warmed manager and the allocs/op figure is
// the CI-gated invariant: the parallel sub-round fan-out must not
// allocate in steady state. The -race CI subset runs this benchmark
// once to exercise the lane goroutines under the race detector.
func BenchmarkRound1000Streams(b *testing.B) {
	const (
		p, stripe = 4, 500
		perSp     = 250
		units     = 240 // 240 one-sector blocks ≈ 8 local cylinders
	)
	g := disk.Geometry{
		Cylinders: 2000, Surfaces: 1, SectorsPerTrack: 32, SectorSize: 2048,
		RPM: 36000, MinSeek: 200 * time.Microsecond, MaxSeek: 5 * time.Millisecond, Heads: 1,
	}
	sb := newStripedBench(b, g, p, stripe, false)
	adm := continuity.AdmissionFor(sb.dev)
	scattering := continuity.Seconds(sb.arr.Geometry().AccessTime(1))
	tmpl := continuity.Request{
		Name: "lite", Granularity: 1, UnitBits: 2048 * 8, Rate: 1,
		Scattering: scattering,
	}
	reqs := make([]continuity.Request, perSp)
	for i := range reqs {
		reqs[i] = tmpl
	}
	k, ok := adm.KTransient(reqs)
	if !ok {
		b.Fatalf("no feasible k for %d streams per spindle", perSp)
	}
	// One contiguous strand per spindle; each is played 250 times over
	// (the plays are independent streams to admission and servicing —
	// no interval cache is attached, so nothing is deduplicated).
	plans := make([]msm.PlayPlan, 0, p*perSp)
	for sp := 0; sp < p; sp++ {
		s := sb.record(b, strand.WriterConfig{
			ID: strand.ID(sp + 1), Medium: layout.Video, Rate: 1,
			UnitBytes: 2048, Granularity: 1,
			Constraint: alloc.Constraint{MaxCylinders: 1}, // contiguous: minimal l_ds
		}, sp, 0, stripe, units, 2048)
		plan, err := msm.PlanStrandPlay(sb.arr, s, msm.PlanOptions{
			ReadAhead: k, Buffers: 2 * k, Scattering: scattering,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perSp; i++ {
			plans = append(plans, plan)
		}
	}
	admit := func(b *testing.B) *msm.Manager {
		mgr := msm.New(sb.arr, adm)
		// Forced k with no stepwise transitions: the full population is
		// admitted at virtual time zero so warmed rounds run at the
		// steady-state operating point.
		mgr.SetPolicy(msm.NaiveJump)
		mgr.ForceK(k)
		for i, plan := range plans {
			if _, _, err := mgr.AdmitPlay(plan); err != nil {
				b.Fatalf("stream %d: %v", i, err)
			}
			mgr.ForceK(k)
		}
		for i := 0; i < 4; i++ {
			if !mgr.RunRound() {
				b.Fatal("population drained during warm-up")
			}
		}
		return mgr
	}
	mgr := admit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !mgr.RunRound() {
			b.StopTimer()
			mgr = admit(b)
			b.StartTimer()
		}
	}
	b.StopTimer()
	st := mgr.Stats()
	b.ReportMetric(float64(len(plans)), "streams")
	b.ReportMetric(float64(k), "k")
	b.ReportMetric(float64(st.BlocksFetched)/float64(st.Rounds), "blocks/round")
	if st.Violations != 0 {
		b.Fatalf("%d continuity violations", st.Violations)
	}
}

// BenchmarkQoSClassPass times steady service rounds with the QoS
// class pass enabled and a population that keeps it working: the
// round depth is forced to the tightest k at which the standard-class
// streams fit only if the best-effort riders run degraded, so the
// first class pass sheds the riders and every later round's promotion
// pass re-sorts the population and re-probes their strides against a
// still-full Eq. 18 budget — the most expensive steady-state shape the
// pass has. Like the other steady-round benchmarks the allocs/op
// figure is the CI-gated invariant: the class pass must run off the
// manager's scratch arenas.
func BenchmarkQoSClassPass(b *testing.B) {
	const (
		p, stripe = 4, 500
		units     = 1920 // 240 16 KB blocks ≈ 60 local cylinders
		nBE       = 2    // best-effort riders per spindle
		kTight    = 3    // the BenchmarkRound1000Streams operating depth
	)
	g := disk.Geometry{
		Cylinders: 2000, Surfaces: 1, SectorsPerTrack: 32, SectorSize: 2048,
		RPM: 36000, MinSeek: 200 * time.Microsecond, MaxSeek: 5 * time.Millisecond, Heads: 1,
	}
	sb := newStripedBench(b, g, p, stripe, false)
	adm := continuity.AdmissionFor(sb.dev)
	scattering := continuity.Seconds(sb.arr.Geometry().AccessTime(1))
	// Unlike BenchmarkRound1000Streams' seek-dominated 2 KB/1 Hz
	// streams, these are transfer-dominated (16 KB blocks at 16
	// units/s): sub-sampling a stream then frees real Eq. 18 capacity,
	// which is what gives the class pass a shedding operating point.
	tmpl := continuity.Request{
		Name: "lite", Granularity: 8, UnitBits: 2048 * 8, Rate: 16,
		Scattering: scattering,
	}
	// feasible probes one spindle's Eq. 18 set: n full-rate streams
	// plus nBE riders at the given stride (0 = riders absent).
	feasible := func(n, k, beStride int) bool {
		set := make([]continuity.Request, 0, n+nBE)
		for i := 0; i < n; i++ {
			set = append(set, tmpl)
		}
		if beStride > 0 {
			for i := 0; i < nBE; i++ {
				set = append(set, continuity.Degraded(tmpl, beStride))
			}
		}
		return adm.FeasibleTransient(set, k)
	}
	// Fill the spindle: nStd is one below the largest full-rate
	// population Eq. 18 takes at kTight, so the slack left fits the two
	// riders only sub-sampled — full rate would need nStd+2 > max — and
	// the warm-up class pass must shed them.
	nStd := 1
	for feasible(nStd+2, kTight, 0) {
		nStd++
	}
	if feasible(nStd, kTight, 1) || !feasible(nStd, kTight, continuity.DefaultMaxStride) {
		b.Fatalf("no shedding operating point at k=%d, n=%d", kTight, nStd)
	}
	plans := make([]msm.PlayPlan, 0, p*(nStd+nBE))
	for sp := 0; sp < p; sp++ {
		s := sb.record(b, strand.WriterConfig{
			ID: strand.ID(sp + 1), Medium: layout.Video, Rate: 16,
			UnitBytes: 2048, Granularity: 8,
			Constraint: alloc.Constraint{MaxCylinders: 1}, // contiguous: minimal l_ds
		}, sp, 0, stripe, units, 2048)
		for i := 0; i < nStd+nBE; i++ {
			class := continuity.Standard
			if i >= nStd {
				class = continuity.BestEffort
			}
			plan, err := msm.PlanStrandPlay(sb.arr, s, msm.PlanOptions{
				ReadAhead: kTight, Buffers: 2 * kTight, Scattering: scattering,
				Class: class,
			})
			if err != nil {
				b.Fatal(err)
			}
			plans = append(plans, plan)
		}
	}
	admit := func(b *testing.B) *msm.Manager {
		mgr := msm.New(sb.arr, adm)
		mgr.SetPolicy(msm.NaiveJump)
		mgr.SetQoS(msm.QoSPolicy{MaxStride: continuity.DefaultMaxStride})
		for i, plan := range plans {
			if _, _, err := mgr.AdmitPlay(plan); err != nil {
				b.Fatalf("stream %d (class %v): %v", i, plan.Class, err)
			}
		}
		mgr.ForceK(kTight)
		for i := 0; i < 4; i++ {
			if !mgr.RunRound() {
				b.Fatal("population drained during warm-up")
			}
		}
		if mgr.QoSStats()[continuity.BestEffort].Degraded == 0 {
			b.Fatal("no best-effort stream degraded at k_tight: the class pass has nothing to probe")
		}
		return mgr
	}
	mgr := admit(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !mgr.RunRound() {
			b.StopTimer()
			mgr = admit(b)
			b.StartTimer()
		}
	}
	b.StopTimer()
	st := mgr.Stats()
	b.ReportMetric(float64(len(plans)), "streams")
	b.ReportMetric(float64(kTight), "k")
	b.ReportMetric(float64(st.LoadDemotions), "demotions")
	b.ReportMetric(float64(st.Promotions), "promotions")
	// Shedding is the only violation this population may record: every
	// entry must be a CauseLoadShed from the warm-up demotions, never a
	// missed deadline.
	if st.Violations != st.LoadDemotions {
		b.Fatalf("%d violations vs %d load demotions: deadline misses in a feasible QoS set",
			st.Violations, st.LoadDemotions)
	}
}

// BenchmarkRebuildRound times steady service rounds while an online
// rebuild is in flight: a 4-spindle mirrored array carries 200 live
// streams on its healthy pair while the repair engine copies a dead
// spindle's cylinders from the twin in each round's leftover slack
// (rate-capped at 1 chunk/round so the rebuild spans many rounds).
// Like the other steady-round benchmarks the allocs/op figure is the
// CI-gated invariant: the repair step must run off the chunk buffer
// StartRebuild sized up front, and a rebuild-active round must not
// allocate. When a rebuild completes mid-measurement the spindle is
// re-killed and a fresh rebuild started off-timer.
func BenchmarkRebuildRound(b *testing.B) {
	const (
		p, stripe = 4, 500
		perSp     = 100 // streams per healthy-pair spindle
		units     = 240 // 240 one-sector blocks ≈ 8 local cylinders
		srcUnits  = 960 // rebuild source on pair 0: ≈ 30 spindle cylinders
		victim    = 1
	)
	g := disk.Geometry{
		Cylinders: 2000, Surfaces: 1, SectorsPerTrack: 32, SectorSize: 2048,
		RPM: 36000, MinSeek: 200 * time.Microsecond, MaxSeek: 5 * time.Millisecond, Heads: 1,
	}
	sb := newStripedBench(b, g, p, stripe, true)
	adm := continuity.AdmissionFor(sb.dev)
	scattering := continuity.Seconds(sb.arr.Geometry().AccessTime(1))
	tmpl := continuity.Request{
		Name: "lite", Granularity: 1, UnitBits: 2048 * 8, Rate: 1,
		Scattering: scattering,
	}
	reqs := make([]continuity.Request, perSp)
	for i := range reqs {
		reqs[i] = tmpl
	}
	k, ok := adm.KTransient(reqs)
	if !ok {
		b.Fatalf("no feasible k for %d streams per spindle", perSp)
	}
	// The rebuild source: 30 cylinders of data on pair 0, played by
	// just nSrc streams. The bulk stream load rides on the healthy
	// pair 1, so killing, rebuilding, and re-killing spindle 1 never
	// changes the admission picture the mid-measurement re-populations
	// run against — while the nSrc twin-lane streams keep lane 0's
	// Eq. 18 retry slack positive, which is the budget the repair step
	// charges its copies against (an idle lane has zero slack and
	// would starve the rebuild).
	src := sb.recordMirrored(b, strand.WriterConfig{
		ID: strand.ID(99), Medium: layout.Video, Rate: 1,
		UnitBytes: 2048, Granularity: 1,
		Constraint: alloc.Constraint{MaxCylinders: 1},
	}, 0, 0, srcUnits, 2048)
	srcPlan, err := msm.PlanStrandPlay(sb.arr, src, msm.PlanOptions{
		ReadAhead: k, Buffers: 2 * k, Scattering: scattering,
	})
	if err != nil {
		b.Fatal(err)
	}
	const nSrc = 2
	plans := make([]msm.PlayPlan, 0, 2*perSp+nSrc)
	for i := 0; i < nSrc; i++ {
		plans = append(plans, srcPlan)
	}
	for sp := 2; sp < p; sp++ {
		s := sb.recordMirrored(b, strand.WriterConfig{
			ID: strand.ID(sp + 1), Medium: layout.Video, Rate: 1,
			UnitBytes: 2048, Granularity: 1,
			Constraint: alloc.Constraint{MaxCylinders: 1},
		}, sp, 0, units, 2048)
		plan, err := msm.PlanStrandPlay(sb.arr, s, msm.PlanOptions{
			ReadAhead: k, Buffers: 2 * k, Scattering: scattering,
		})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perSp; i++ {
			plans = append(plans, plan)
		}
	}
	mgr := msm.New(sb.arr, adm)
	mgr.SetRebuildRate(1)
	populate := func(b *testing.B) {
		mgr.SetPolicy(msm.NaiveJump)
		mgr.ForceK(k)
		for i, plan := range plans {
			if _, _, err := mgr.AdmitPlay(plan); err != nil {
				b.Fatalf("stream %d: %v", i, err)
			}
			mgr.ForceK(k)
		}
	}
	// warm absorbs the one-off work of the latest transition (admission
	// arenas, the resteer renegotiation after a kill) off-timer.
	warm := func(b *testing.B, n int) {
		for i := 0; i < n; i++ {
			if !mgr.RunRound() {
				populate(b)
			}
		}
	}
	// kill replaces the victim with a factory-fresh disk and starts the
	// online rebuild, like Manager.Rebuild — but it pre-materializes
	// the replacement's cylinder pages first: a simulated disk's
	// backing page allocates once on first write (disk.page), and the
	// gated invariant is the service round's own zero-alloc hot path,
	// not the simulator's lazy backing store.
	zeros := make([]byte, sb.arr.RepairBufferSectors()*g.SectorSize)
	mat := sb.arr.Spindle(sb.arr.Twin(victim)).(interface{ CylinderMaterialized(int) bool })
	spc := g.SectorsPerCylinder()
	kill := func(b *testing.B) {
		sb.arr.SetSpindleState(victim, disk.Dead)
		fresh := disk.MustNew(g)
		for c := 0; c < g.Cylinders; c++ {
			if mat.CylinderMaterialized(c) {
				if err := fresh.WriteAt(c*spc, zeros); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := sb.arr.ReplaceSpindle(victim, fresh); err != nil {
			b.Fatal(err)
		}
		if err := mgr.StartRebuild(victim); err != nil {
			b.Fatal(err)
		}
	}
	populate(b)
	warm(b, 4)
	kill(b)
	warm(b, 2)
	rebuilds := 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !mgr.RepairActive() {
			b.StopTimer()
			rebuilds++
			kill(b)
			warm(b, 1)
			b.StartTimer()
		}
		if !mgr.RunRound() {
			b.StopTimer()
			populate(b)
			b.StartTimer()
		}
	}
	b.StopTimer()
	st := mgr.Stats()
	if st.RebuildBlocks == 0 {
		b.Fatal("no repair chunks copied: the measured rounds were not rebuild-active")
	}
	b.ReportMetric(float64(len(plans)), "streams")
	b.ReportMetric(float64(k), "k")
	b.ReportMetric(float64(st.RebuildBlocks)/float64(st.Rounds), "chunks/round")
	b.ReportMetric(float64(rebuilds), "rebuilds")
	if st.Violations != 0 {
		b.Fatalf("%d continuity violations during online rebuild", st.Violations)
	}
}
