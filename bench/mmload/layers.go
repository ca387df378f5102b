package main

import (
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/layout"
	"mmfs/internal/msm"
	"mmfs/internal/obs"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// Layers whose calls are too short or too entangled to time one by one
// inside a run are priced by microloops instead: the traced run calls
// the layer's exported functions in a tight loop, at the run's own
// block size and on population samples taken from the run, and reports
// the unit cost. msm.round_self_us is then a round minus its reads and
// cache operations at those unit costs.

// perCall returns the median cost in ns of f over five batches, each
// sized to take a few milliseconds.
func perCall(f func()) float64 {
	t0 := time.Now()
	f()
	once := time.Since(t0)
	n := int(4 * time.Millisecond / max(once, time.Nanosecond))
	n = min(max(n, 3), 1<<16)
	batches := make([]float64, 5)
	for b := range batches {
		t0 = time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(batches)
}

// microCosts holds the unit costs, in the unit each metric names.
type microCosts struct {
	cacheGetNs, cachePutNs              float64
	diskReadIntoNs, strandReadNs        float64
	strandAppendUs                      float64
	allocConstrainedNs                  float64
	gcCollectUs, obsSnapshotUs          float64
	obsTraceAppendNs                    float64
	admitNs, classAwareNs               float64
	codec                               map[opKind]codecCost
	codecReqNs, codecRespNs, bytesPerOp float64 // script-weighted means
}

// measureLayers runs the microloops on a scratch file system formatted
// like the workload's, so nothing here disturbs the run's counters.
// residents are per-spindle live-stream counts sampled from the run.
func measureLayers(w workloadSpec, residents [][]int) (microCosts, error) {
	var mc microCosts
	fs, err := core.Format(fsOptions(w))
	if err != nil {
		return mc, err
	}
	master := makeClip(ropeSeconds, 1)
	id, err := recordDirect(fs, benchUser, master, true, false)
	if err != nil {
		return mc, err
	}
	r, _ := fs.Ropes().Get(id)
	s, _ := fs.Strands().Get(r.Intervals[0].Video.Strand)
	dev := fs.MediaDevice()
	ss := dev.Geometry().SectorSize

	// disk and strand: read the rope's video blocks round and round.
	first, err := s.Block(0)
	if err != nil {
		return mc, err
	}
	dst := make([]byte, int(first.SectorCount)*ss)
	i := 0
	mc.diskReadIntoNs = perCall(func() {
		e, _ := s.Block(i % s.NumBlocks())
		if _, err := dev.ReadInto(0, int(e.Sector), int(e.SectorCount), dst[:int(e.SectorCount)*ss]); err != nil {
			panic(err) // reading back a block this function just recorded
		}
		i++
	})
	rd := strand.NewReader(dev, s)
	var buf []byte
	mc.strandReadNs = perCall(func() {
		if _, _, _, err := rd.ReadBlockInto(0, i%s.NumBlocks(), &buf); err != nil {
			panic(err)
		}
		i++
	})

	// strand writer: append a clip's frames at the catalogue's
	// granularity, then give the blocks back.
	mc.strandAppendUs = perCall(func() {
		wr, err := strand.NewWriter(dev, fs.Allocator(), strand.WriterConfig{
			ID: fs.Strands().NewID(), Medium: layout.Video, Rate: videoRate, UnitBytes: frameBytes,
			Granularity: s.Granularity(), Constraint: fs.Constraint(), StartCylinder: 300,
		})
		if err != nil {
			panic(err)
		}
		for _, u := range master.video[:60] {
			if _, err := wr.Append(u); err != nil {
				panic(err)
			}
		}
		wr.Abort()
	}) / 60 / 1e3

	// allocator: a chain of constrained allocations, then free them.
	a := fs.Allocator()
	runs := make([]alloc.Run, 0, 64)
	mc.allocConstrainedNs = perCall(func() {
		prev, err := a.AllocateNearCylinder(600, int(first.SectorCount))
		if err != nil {
			panic(err)
		}
		runs = append(runs[:0], prev)
		for j := 0; j < 32; j++ {
			if prev, err = a.AllocateConstrained(prev, int(first.SectorCount), fs.Constraint()); err != nil {
				panic(err)
			}
			runs = append(runs, prev)
		}
		for _, run := range runs {
			a.Free(run)
		}
	}) / 33

	mc.gcCollectUs = perCall(func() {
		if _, err := fs.Collect(); err != nil {
			panic(err)
		}
	}) / 1e3
	mc.obsSnapshotUs = perCall(func() { _ = fs.Metrics().Snapshot() }) / 1e3
	ring := obs.NewTraceRing(0)
	mc.obsTraceAppendNs = perCall(func() { ring.Append(obs.RoundTrace{}) })

	// cache: a leader puts blocks, an adopted follower gets them.
	const nblk = 128
	data := make([]byte, len(dst))
	var c *cache.Cache
	mc.cachePutNs = perCall(func() {
		c = cache.New(64 << 20)
		c.OpenStream(1, s.ID(), 0, nblk, videoRate)
		for j := 0; j < nblk; j++ {
			c.Put(1, j, data)
		}
	}) / nblk
	mc.cacheGetNs = perCall(func() {
		c.OpenStream(2, s.ID(), 0, nblk, videoRate)
		c.Adopt(2)
		for j := 0; j < nblk-1; j++ {
			c.Get(2, j)
		}
		c.CloseStream(2)
	}) / (nblk - 1)

	// continuity: the workload's own controller on the sampled sets.
	plan, err := fs.Ropes().CompilePlay(dev, r, rope.VideoOnly, 0, r.Length(), msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		return mc, err
	}
	tmpl := plan.Admission
	adm := continuity.AdmissionFor(fs.Device())
	if len(residents) == 0 {
		residents = [][]int{make([]int, max(1, w.Disks))}
	}
	sets := make([][][]continuity.Request, 0, 64)
	for j := 0; j < len(residents); j += max(1, len(residents)/64) {
		per := make([][]continuity.Request, len(residents[j]))
		for sp, n := range residents[j] {
			for ; n > 0; n-- {
				per[sp] = append(per[sp], tmpl)
			}
		}
		sets = append(sets, per)
	}
	mc.admitNs = perCall(func() {
		for _, per := range sets {
			switch {
			case w.Disks > 1:
				continuity.Striped{A: adm, P: w.Disks}.Admit(per, 0, 2, tmpl)
			case w.CacheMB > 0:
				continuity.CacheAware{A: adm}.Admit(per[0], 2, tmpl, false)
			default:
				adm.Admit(per[0], 2, tmpl)
			}
		}
	}) / float64(len(sets))
	// QoS has no timed workload (README, "Known gaps"); this fixed
	// near-saturated set is its only coverage.
	full := make([]continuity.Request, max(1, adm.NMax(tmpl)-1))
	for j := range full {
		full[j] = tmpl
	}
	ca := continuity.ClassAware{A: adm, P: 1, MaxStride: 4}
	mc.classAwareNs = perCall(func() { ca.Admit([][]continuity.Request{full}, 0, 2, tmpl, continuity.Standard) })
	return mc, nil
}

// weighCodec reduces per-op codec costs to script-weighted means.
func (mc *microCosts) weighCodec(counts [numOpKinds]int) {
	var n, req, resp, bytes float64
	for k, cnt := range counts {
		c, ok := mc.codec[opKind(k)]
		if !ok || cnt == 0 {
			continue
		}
		n += float64(cnt)
		req += float64(cnt) * c.ReqNs
		resp += float64(cnt) * c.RespNs
		bytes += float64(cnt) * float64(c.Bytes)
	}
	mc.codecReqNs, mc.codecRespNs, mc.bytesPerOp = ratio(req, n), ratio(resp, n), ratio(bytes, n)
}
