package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"mmfs/internal/core"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// servePass is one execution of a serve-* script: multi-stream rounds,
// admission refusal and interval-cache adoption can only be driven
// in-process (over the wire a PLAY runs to completion under the server
// lock, alone in the manager), so these workloads call core.FS the way
// internal/experiments and examples/newsstation do.
type servePass struct {
	common
	fs *core.FS

	cat         []rope.ID
	ropeSpindle []int // home spindle per catalogue rope (arrays only)

	msPerPlay  []float64 // per epoch: wall ÷ plays admitted
	fetchUs    []float64
	playCallUs []float64
	startupVms []float64

	offered, admitted, rejected int
	blocks, hits, late          int
	rounds                      int
	roundWall                   time.Duration
	diskBusy                    time.Duration
	// residents samples the per-spindle live population at admission
	// time (traced pass), for the continuity microloops.
	residents [][]int
}

// session is one arrival's state within an epoch.
type session struct {
	h       core.PlayHandle
	admitAt time.Duration
	rope    int
	ok      bool // admitted
	stopped bool
	paused  bool
}

// setup formats the file system and records the catalogue through
// fs.Record. It returns how long that took: set-up is the work mmfs
// does before it can serve, not the harness's warm-up.
func (p *servePass) setup() (time.Duration, error) {
	t0 := time.Now()
	fs, err := core.Format(fsOptions(p.w))
	if err != nil {
		return 0, err
	}
	p.fs = fs
	master := makeClip(ropeSeconds, 1)
	p.cat = p.cat[:0]
	for i := 0; i < p.w.Ropes; i++ {
		id, err := recordDirect(fs, benchUser, master, false, false)
		if err != nil {
			return 0, fmt.Errorf("recording catalogue rope %d: %w", i, err)
		}
		p.cat = append(p.cat, id)
	}
	d := time.Since(t0)
	return d, p.describeCatalogue()
}

// warm brings the process to the state a long-lived one is in before
// timing starts: the heap grown to its steady size with its pages
// faulted in (prefaultHeap), and the script's first epochs run once,
// unmeasured.
func (p *servePass) warm() error {
	prefaultHeap()
	w := &servePass{common: common{w: p.w, sc: p.sc, m: newMeasured()}, fs: p.fs, cat: p.cat}
	for i := 0; i < min(warmEpochs, len(p.sc.Epochs)); i++ {
		w.epoch(&p.sc.Epochs[i])
	}
	if w.m.Failed != 0 {
		return fmt.Errorf("warm-up epochs: %s", w.m.Problems[0])
	}
	return nil
}

const warmEpochs = 5

// prefaultHeap grows the Go heap to the size the collector will let it
// reach anyway (twice the live heap, at the default GOGC) and touches
// every page, then frees the ballast. Without it the first half of a
// run allocates from never-touched memory and pays a page fault per
// 4 KiB — on the reference VM about three times the cost of the
// allocation itself — and the second half does not, so a median would
// depend on where the first collection happened to fall.
func prefaultHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ballast := make([][]byte, ms.HeapAlloc>>20)
	for i := range ballast {
		b := make([]byte, 1<<20)
		for off := 0; off < len(b); off += 4096 {
			b[off] = 1
		}
		ballast[i] = b
	}
	runtime.KeepAlive(ballast)
	ballast = nil
	runtime.GC()
}

// describeCatalogue finds each rope's home spindle, for the
// population samples the continuity microloops run on.
func (p *servePass) describeCatalogue() error {
	fs := p.fs
	p.ropeSpindle = p.ropeSpindle[:0]
	for _, id := range p.cat {
		r, _ := fs.Ropes().Get(id)
		plan, err := fs.Ropes().CompilePlay(fs.MediaDevice(), r, rope.VideoOnly, 0, r.Length(), msm.PlanOptions{ReadAhead: 2})
		if err != nil {
			return err
		}
		sp := 0
		if arr := fs.Array(); arr != nil {
			b := plan.Blocks[0]
			e, err := b.Reader.Strand().Block(b.Index)
			if err != nil {
				return err
			}
			sp, _ = arr.Locate(int(e.Sector))
		}
		p.ropeSpindle = append(p.ropeSpindle, sp)
	}
	return nil
}

// run executes epochs until the script ends or the deadline passes.
func (p *servePass) run(deadline time.Duration) {
	p.before, p.diskBefore = p.fs.Metrics().Snapshot(), p.fs.Disk().Stats()
	runtime.ReadMemStats(&p.memBefore)
	start := time.Now()
	for i := range p.sc.Epochs {
		if time.Since(start) > deadline {
			p.truncated = true
			break
		}
		p.tr.setOp(i)
		p.epoch(&p.sc.Epochs[i])
		p.units++
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&p.memAfter)
	p.after, p.diskAfter = p.fs.Metrics().Snapshot(), p.fs.Disk().Stats()
	if problems := p.fs.Check(); len(problems) != 0 {
		p.m.fail("final Check: %d problem(s), first: %v", len(problems), problems[0])
	}
}

// live reports whether a session still has a request in the manager.
func (s *session) live(mgr *msm.Manager) bool {
	if !s.ok || s.stopped {
		return false
	}
	pr, err := mgr.Progress(s.h.VideoReq)
	return err == nil && !pr.Done
}

// epoch is one playback trial on a fresh storage manager.
func (p *servePass) epoch(ep *epoch) {
	t0 := time.Now()
	root := p.tr.begin("epoch")
	fs := p.fs
	mgr := fs.NewManager()
	busy0 := fs.Disk().Stats().BusyTime()
	sess := make([]session, ep.Arrivals)
	admitted := 0
	rounds := func(d time.Duration) {
		n, w := runRounds(mgr, p.tr, d)
		p.rounds += n
		p.roundWall += w
	}
	call := func(name string, f func() error) {
		sp := p.tr.begin(name)
		err := f()
		p.tr.end(sp)
		if err != nil {
			p.m.fail("%s: %v", name, err)
		}
	}
	for _, ev := range ep.Events {
		if d := ev.At - mgr.Now(); d > 0 {
			rounds(d)
		}
		s := &sess[ev.Session]
		switch ev.Kind {
		case evArrive:
			p.offered++
			p.m.Attempted++
			if p.tr != nil && p.offered%8 == 0 {
				p.sampleResidents(mgr, sess)
			}
			// The newsstation idiom: ask for read-ahead that follows k.
			opts := msm.PlanOptions{ReadAhead: max(2, mgr.K())}
			s.rope, s.admitAt = ev.Rope, mgr.Now()
			t := time.Now()
			var err error
			if p.tr != nil {
				s.h, err = tracedPlayCall(fs, p.tr, benchUser, p.cat[ev.Rope], rope.VideoOnly, 0, 0, opts)
			} else {
				s.h, err = fs.Play(benchUser, p.cat[ev.Rope], rope.VideoOnly, 0, 0, opts)
			}
			p.playCallUs = append(p.playCallUs, float64(time.Since(t))/1e3)
			switch {
			case err == nil:
				s.ok = true
				admitted++
			case errors.Is(err, msm.ErrAdmissionRejected):
				p.rejected++
			default:
				p.m.fail("play rope %d: %v", p.cat[ev.Rope], err)
			}
			p.kMax = max(p.kMax, mgr.K())
			if c := mgr.Cache(); c != nil {
				p.cacheBytesPeak = max(p.cacheBytesPeak, c.Stats().Bytes)
			}
		case evStop:
			if s.live(mgr) {
				call("msm.stop", func() error { return fs.StopPlay(s.h) })
				s.stopped = true
			}
		case evPause:
			if s.live(mgr) {
				call("msm.pause", func() error { return fs.PausePlay(s.h, false) })
				s.paused = true
			}
		case evResume:
			if s.paused {
				call("msm.resume", func() error { return fs.ResumePlay(s.h) })
				s.paused = false
			}
		}
	}
	rounds(-1)

	for i := range sess {
		s := &sess[i]
		if !s.ok {
			continue
		}
		ps, err := gatherPlay(fs, s.h)
		if err != nil {
			p.m.fail("gathering session: %v", err)
			continue
		}
		p.blocks += ps.Blocks
		p.hits += ps.CacheHits
		p.late += ps.Late
		if ps.Blocks > 0 {
			p.startupVms = append(p.startupVms, float64(ps.Start-s.admitAt)/1e6)
		}
	}
	p.admitted += admitted
	p.diskBusy += fs.Disk().Stats().BusyTime() - busy0

	// One direct fetch per epoch, validated frame by frame: the serve
	// workloads' output check.
	sp := p.tr.begin("core.fetch")
	t := time.Now()
	units, err := fs.FetchUnits(benchUser, p.cat[ep.FetchRope], rope.VideoOnly, ep.FetchStart, time.Second)
	p.fetchUs = append(p.fetchUs, float64(time.Since(t))/1e3)
	p.tr.end(sp)
	p.m.Attempted++
	if err == nil {
		err = checkFrames(units, frameRange(nil, ep.FetchStart, 1))
	}
	if err != nil {
		p.m.fail("fetch rope %d: %v", p.cat[ep.FetchRope], err)
	}

	st := mgr.Stats()
	p.idle += st.IdleTime
	p.virtual += mgr.Now()
	p.tr.end(root)
	wall := time.Since(t0)
	p.opUs = append(p.opUs, float64(wall)/1e3/float64(ep.Arrivals))
	if admitted > 0 {
		p.msPerPlay = append(p.msPerPlay, float64(wall)/1e6/float64(admitted))
	}
}

// sampleResidents records how many live sessions sit on each spindle.
func (p *servePass) sampleResidents(mgr *msm.Manager, sess []session) {
	n := max(1, p.w.Disks)
	set := make([]int, n)
	for i := range sess {
		if s := &sess[i]; s.live(mgr) && !s.paused {
			set[p.ropeSpindle[s.rope]%n]++
		}
	}
	if len(p.residents) < 4096 {
		p.residents = append(p.residents, set)
	}
}

// endToEnd derives the pass's end-to-end metrics.
func (p *servePass) endToEnd() {
	m := p.m
	if p.w.CacheMB > 0 && p.late != 0 {
		m.fail("%d late violations on a workload that must have none", p.late)
	}
	m.dist("fetch_ms", scale(p.fetchUs, 1e-3))
	m.dist("play_call_us", p.playCallUs)
	m.dist("startup_vms", p.startupVms)
	m.set("op_us", m.dist("op_us", p.opUs).P50)
	m.set("play_p50_ms", m.dist("play_ms", p.msPerPlay).P50)
	m.set("round_us", ratio(float64(p.roundWall)/1e3, float64(p.rounds)))
	m.set("on_time_pct", 100*(1-ratio(float64(p.late), float64(p.blocks))))
	m.set("admitted_pct", 100*ratio(float64(p.admitted), float64(p.offered)))
	m.set("disk_vms_per_block", ratio(float64(p.diskBusy)/1e6, float64(p.blocks-p.hits)))
	m.set("disk_read_pct", 100*ratio(float64(p.blocks-p.hits), float64(p.blocks)))
	m.Counts["units"] = p.units
	p.ops = p.offered
	m.Counts["ops"] = p.offered
	m.Counts["plays"] = p.admitted
	m.Counts["rejected"] = p.rejected
	m.Counts["rounds"] = p.rounds
	m.Counts["blocks_delivered"] = p.blocks
	m.Counts["cache_hits"] = p.hits
	m.Counts["late_violations"] = p.late
	m.Truncated = p.truncated
	m.WallS = p.wall.Seconds()
}
