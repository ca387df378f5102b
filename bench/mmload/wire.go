package main

import (
	"fmt"
	"runtime"
	"time"

	"mmfs/internal/client"
	"mmfs/internal/core"
	"mmfs/internal/obs"
	"mmfs/internal/rope"
)

// wirePass is one execution of a wire workload's script against one
// server: the measured pass talks to a real mmfsd child; the traced
// pass talks to internal/server hosted in-process and mirrors every
// op onto a twin.
type wirePass struct {
	common
	srv *wireServer
	c   *client.Client
	tw  *twin // nil unless traced

	cat   []rope.ID // catalogue (wire-vod) or base ropes (wire-edit)
	twCat []rope.ID
	clips []clip // wire-edit uploads

	lat     [numOpKinds][]float64 // round trips, µs
	cycleUs []float64             // wire-edit: INSERT+SUBSTRING+CONCATE+DELETEs per cycle
	probe   *prober
	idleUs  []float64 // unloaded STATS round trips

	plays             int
	blocks, hits      int
	violations        int
	copied, reclaimed int
	roundWall         time.Duration // round trips that ran service rounds
	daemonRSSMB       float64
}

// vodBatch is how many consecutive wire-vod ops share one op_us sample.
const vodBatch = 50

// rpc times one client call as a client.rpc.<op> span and a latency
// sample, and counts it as attempted; a returned error fails it.
func (p *wirePass) rpc(kind opKind, f func() error) bool {
	sp := p.tr.begin("client.rpc." + kind.String())
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	p.tr.end(sp)
	p.lat[kind] = append(p.lat[kind], float64(d)/1e3)
	p.m.Attempted++
	p.ops++
	if err != nil {
		p.m.fail("%v: %v", kind, err)
		return false
	}
	return true
}

// mirror applies an op to the twin in a traced pass (and does nothing
// in an untraced one); an error from f — a twin-side failure or a
// served/twin disagreement — fails the op.
func (p *wirePass) mirror(kind opKind, f func(t *twin) error) {
	if p.tw == nil {
		return
	}
	if err := f(p.tw); err != nil {
		p.m.fail("twin %v: %v", kind, err)
	}
}

// setup brings up a server and its catalogue; it returns how long that
// took. The measured run sets up three times and reports the median.
func (p *wirePass) setup(daemonBin string) (time.Duration, error) {
	t0 := time.Now()
	var err error
	if p.tw != nil {
		p.srv, err = startInproc(fsOptions(p.w))
	} else {
		p.srv, err = startDaemon(daemonBin, p.w.daemonArgs())
	}
	if err != nil {
		return 0, err
	}
	if p.c, err = p.srv.dial(); err != nil {
		return 0, err
	}
	if p.tw != nil {
		if p.tw.fs, err = core.Format(fsOptions(p.w)); err != nil {
			return 0, err
		}
	}
	master := makeClip(ropeSeconds, 1)
	p.cat, p.twCat = p.cat[:0], p.twCat[:0]
	for i := 0; i < p.w.Ropes; i++ {
		id, _, err := p.c.RecordClip(benchUser, master.videoSource(), master.audioSource(), false)
		if err != nil {
			return 0, fmt.Errorf("recording catalogue rope %d: %w", i, err)
		}
		p.cat = append(p.cat, id)
		if p.tw != nil {
			tid, err := recordDirect(p.tw.fs, benchUser, master, true, false)
			if err != nil {
				return 0, fmt.Errorf("twin catalogue rope %d: %w", i, err)
			}
			p.twCat = append(p.twCat, tid)
		}
	}
	if p.sc.Edit != nil && p.clips == nil {
		for i := 0; i < editClips; i++ {
			p.clips = append(p.clips, makeClip(clipSeconds, uint64(100+i)))
		}
	}
	return time.Since(t0), nil
}

// warm brings the server to the state a long-lived daemon is in: it
// fetches whole ropes until the server's resident set stops growing —
// until its heap has reached the size the collector lets it reach and
// allocations reuse faulted-in pages instead of touching fresh ones
// (on the reference VM a FETCH costs 2.7× more before that point than
// after) — then takes the unloaded STATS round trip the probe is
// compared with.
func (p *wirePass) warm() error {
	const window, limit = 80, 400 // fetches without growth that end the warm-up; hard cap
	pid := p.srv.pid()
	peak, since := 0.0, 0
	for i := 0; i < limit && since < window; i++ {
		if _, err := p.c.Fetch(benchUser, p.cat[i%len(p.cat)], rope.VideoOnly, 0, 0); err != nil {
			return err
		}
		if rss := peakRSSMB(pid); rss > peak+8 {
			peak, since = rss, 0
		} else {
			since++
		}
	}
	p.idleUs = p.idleUs[:0]
	for i := 0; i < 300; i++ {
		t := time.Now()
		if _, err := p.c.Stats(); err != nil {
			return err
		}
		p.idleUs = append(p.idleUs, float64(time.Since(t))/1e3)
	}
	_, err := p.c.Info(p.cat[0])
	return err
}

// teardown stops the server; a daemon that does not drain cleanly
// fails the run.
func (p *wirePass) teardown() {
	if p.c != nil {
		_ = p.c.Close()
		p.c = nil
	}
	if p.srv != nil {
		if err := p.srv.stop(); err != nil {
			p.m.fail("server shutdown: %v", err)
		}
		p.srv = nil
	}
}

// run executes the script until it ends or the deadline passes.
func (p *wirePass) run(deadline time.Duration) error {
	var err error
	if p.before, err = p.c.Metrics(); err != nil {
		return err
	}
	if p.sc.Vod != nil {
		pc, err := p.srv.dial()
		if err != nil {
			return err
		}
		defer pc.Close()
		p.probe = startProber(pc, 10*time.Millisecond)
	}
	runtime.ReadMemStats(&p.memBefore)
	// The pass's clock leaves out the time spent applying ops to the
	// twin, so a traced pass is sized and timed like an untraced one.
	start, twin0 := time.Now(), p.tw.spent()
	clock := func() time.Duration { return time.Since(start) - (p.tw.spent() - twin0) }
	batch := 1 // units per op_us sample: an edit cycle, or vodBatch ops
	if p.sc.Vod != nil {
		batch = vodBatch
	}
	var batchStart time.Duration
	batchOps := 0
	for i := 0; i < p.sc.units(); i++ {
		if i%batch == 0 {
			if batchStart, batchOps = clock(), p.ops; batchStart > deadline {
				p.truncated = true
				break
			}
		}
		p.tr.setOp(i)
		if p.sc.Vod != nil {
			p.vodOp(p.sc.Vod[i])
		} else {
			p.editCycle(p.sc.Edit[i])
		}
		p.units++
		if (i+1)%batch == 0 {
			p.opUs = append(p.opUs, float64(clock()-batchStart)/1e3/float64(p.ops-batchOps))
		}
	}
	p.wall = clock()
	runtime.ReadMemStats(&p.memAfter)
	if p.probe != nil {
		p.probe.join()
		p.m.Attempted += p.probe.n
		for i := 0; i < p.probe.errs; i++ {
			p.m.fail("probe STATS failed")
		}
	}
	if p.after, err = p.c.Metrics(); err != nil {
		return err
	}
	p.noteCacheBytes(p.after)
	// End-state checks: a clean fsck, and in the traced pass a twin
	// that ended where the served file system did.
	problems, err := p.c.Check()
	if err != nil {
		return err
	}
	if len(problems) != 0 {
		p.m.fail("final CHECK: %d problem(s), first: %s", len(problems), problems[0])
	}
	if p.tw != nil {
		if _, err := p.tw.check(); err != nil {
			return err
		}
		st, err := p.c.Stats()
		if err != nil {
			return err
		}
		if err := sameStats(st, p.tw.stats()); err != nil {
			p.m.fail("twin diverged: %v", err)
		}
	}
	return nil
}

func (p *wirePass) vodOp(op vodOp) {
	id := p.cat[op.Rope]
	switch op.Kind {
	case opPlay:
		p.play(id, op.Rope, op.Start, op.Dur)
	case opFetch:
		var units [][]byte
		if p.rpc(opFetch, func() (err error) {
			units, err = p.c.Fetch(benchUser, id, rope.VideoOnly, op.Start, op.Dur)
			return err
		}) {
			if err := checkFrames(units, frameRange(nil, op.Start, int(op.Dur/time.Second))); err != nil {
				p.m.fail("fetch rope %d: %v", id, err)
			}
		}
		p.mirror(opFetch, func(t *twin) error {
			_, err := t.fetch(p.twCat[op.Rope], op.Start, op.Dur)
			return err
		})
	case opInfo:
		var info client.RopeInfo
		if p.rpc(opInfo, func() (err error) { info, err = p.c.Info(id); return err }) {
			if info.Length != ropeSeconds*time.Second || !info.HasVideo || !info.HasAudio {
				p.m.fail("info rope %d: %+v", id, info)
			}
		}
		p.mirror(opInfo, func(t *twin) error { return t.readOnly(opInfo, p.twCat[op.Rope]) })
	case opListRopes:
		var ids []rope.ID
		if p.rpc(opListRopes, func() (err error) { ids, err = p.c.ListRopes(); return err }) {
			if len(ids) != len(p.cat) {
				p.m.fail("listropes: %d ropes, want %d", len(ids), len(p.cat))
			}
		}
		p.mirror(opListRopes, func(t *twin) error { return t.readOnly(opListRopes, 0) })
	case opMetrics:
		var snap obs.Snapshot
		if p.rpc(opMetrics, func() (err error) { snap, err = p.c.Metrics(); return err }) {
			if _, ok := snap.Counter("mmfs_rounds_total"); !ok {
				p.m.fail("metrics: snapshot lacks mmfs_rounds_total")
			}
			p.noteCacheBytes(snap)
		}
		p.mirror(opMetrics, func(t *twin) error { return t.readOnly(opMetrics, 0) })
	}
}

// play issues one PLAY and checks the reply: blocks delivered, zero
// violations (a lone play on an otherwise idle manager must never
// miss), and agreement with the twin.
func (p *wirePass) play(id rope.ID, catIdx int, start, dur time.Duration) {
	var res client.PlayResult
	t0 := time.Now()
	ok := p.rpc(opPlay, func() (err error) {
		res, err = p.c.Play(benchUser, id, rope.AudioVisual, start, dur, 2, "")
		return err
	})
	p.roundWall += time.Since(t0)
	p.plays++
	if ok {
		p.blocks += res.Blocks
		p.hits += res.CacheHits
		p.violations += res.Violations
		if res.Blocks == 0 || res.Violations != 0 {
			p.m.fail("play rope %d: %d blocks, %d violations", id, res.Blocks, res.Violations)
		}
	}
	p.mirror(opPlay, func(t *twin) error {
		tid := id
		if catIdx >= 0 {
			tid = p.twCat[catIdx]
		}
		ps, err := t.play(tid, start, dur)
		if ok && err == nil && (ps.Blocks != res.Blocks || ps.CacheHits != res.CacheHits || ps.Violations != res.Violations) {
			err = fmt.Errorf("served %d/%d/%d blocks/hits/violations, twin %d/%d/%d",
				res.Blocks, res.CacheHits, res.Violations, ps.Blocks, ps.CacheHits, ps.Violations)
		}
		return err
	})
}

// editCycle runs one wire-edit cycle. Rope ids on the twin equal the
// served ones because both sides create ropes in the same order.
func (p *wirePass) editCycle(cy editCycle) {
	base := p.cat[cy.Base]
	c := p.clips[cy.Clip]
	var editUs float64
	timed := func(kind opKind, f func() error) bool {
		n := len(p.lat[kind])
		ok := p.rpc(kind, f)
		editUs += p.lat[kind][n]
		return ok
	}
	// sameRope is a twin step that must create the rope id the server did.
	sameRope := func(served *rope.ID, f func(t *twin) (rope.ID, error)) func(*twin) error {
		return func(t *twin) error {
			id, err := f(t)
			if err == nil && id != *served {
				err = fmt.Errorf("served rope %d, twin rope %d", *served, id)
			}
			return err
		}
	}

	var clipID rope.ID
	t0 := time.Now()
	ok := p.rpc(opRecord, func() (err error) {
		clipID, _, err = p.c.RecordClip(benchUser, c.videoSource(), c.audioSource(), true)
		return err
	})
	p.roundWall += time.Since(t0)
	p.mirror(opRecord, sameRope(&clipID, func(t *twin) (rope.ID, error) { return t.record(benchUser, c, true) }))
	if !ok {
		return
	}

	var copied int
	if timed(opInsert, func() (err error) {
		copied, err = p.c.Insert(benchUser, base, cy.Pos, rope.AudioVisual, clipID, cy.From, insertSecs*time.Second)
		return err
	}) {
		p.copied += copied
	}
	p.mirror(opInsert, func(t *twin) error {
		_, err := t.insert(base, cy.Pos, clipID, cy.From, insertSecs*time.Second)
		return err
	})

	// The substring spans one base second either side of the splice.
	var sub, cat rope.ID
	subStart, subDur := cy.Pos-time.Second, (insertSecs+2)*time.Second
	timed(opSubstring, func() (err error) {
		sub, err = p.c.Substring(benchUser, base, rope.AudioVisual, subStart, subDur)
		return err
	})
	p.mirror(opSubstring, sameRope(&sub, func(t *twin) (rope.ID, error) { return t.substring(base, subStart, subDur) }))
	if timed(opConcate, func() (err error) {
		cat, copied, err = p.c.Concate(benchUser, sub, clipID)
		return err
	}) {
		p.copied += copied
	}
	p.mirror(opConcate, sameRope(&cat, func(t *twin) (rope.ID, error) { return t.concate(sub, clipID) }))

	p.play(cat, -1, 0, 0)

	// The edited range: a base second, the inserted clip seconds, the
	// next base second.
	var units [][]byte
	if p.rpc(opFetch, func() (err error) {
		units, err = p.c.Fetch(benchUser, cat, rope.VideoOnly, 0, subDur)
		return err
	}) {
		want := frameRange(nil, cy.Pos-time.Second, 1)
		want = frameRange(want, cy.From, insertSecs)
		want = frameRange(want, cy.Pos, 1)
		if err := checkFrames(units, want); err != nil {
			p.m.fail("fetch edited rope %d: %v", cat, err)
		}
	}
	p.mirror(opFetch, func(t *twin) error { _, err := t.fetch(cat, 0, subDur); return err })

	if timed(opDelRange, func() (err error) {
		copied, err = p.c.DeleteRange(benchUser, base, rope.AudioVisual, cy.Pos, insertSecs*time.Second)
		return err
	}) {
		p.copied += copied
	}
	p.mirror(opDelRange, func(t *twin) error { _, err := t.delRange(base, cy.Pos, insertSecs*time.Second); return err })
	for _, id := range []rope.ID{cat, sub, clipID} {
		var n int
		if timed(opDelRope, func() (err error) { n, err = p.c.DeleteRope(benchUser, id); return err }) {
			p.reclaimed += n
		}
		p.mirror(opDelRope, func(t *twin) error { _, err := t.delRope(id); return err })
	}
	p.cycleUs = append(p.cycleUs, editUs)

	if cy.Check {
		var problems []string
		if p.rpc(opCheck, func() (err error) { problems, err = p.c.Check(); return err }) && len(problems) != 0 {
			p.m.fail("CHECK: %d problem(s), first: %s", len(problems), problems[0])
		}
		p.mirror(opCheck, func(t *twin) error {
			n, err := t.check()
			if err == nil && n != 0 {
				err = fmt.Errorf("%d problem(s)", n)
			}
			return err
		})
	}
}

// endToEnd derives the pass's end-to-end metrics.
func (p *wirePass) endToEnd() {
	m := p.m
	m.dist("fetch_ms", scale(p.lat[opFetch], 1e-3))
	m.set("op_us", m.dist("op_us", p.opUs).P50)
	m.set("play_p50_ms", m.dist("play_ms", scale(p.lat[opPlay], 1e-3)).P50)
	rounds := p.counterDelta("mmfs_rounds_total")
	m.set("round_us", ratio(float64(p.roundWall)/1e3, rounds))
	m.set("on_time_pct", 100*(1-ratio(float64(p.violations), float64(p.blocks))))
	m.set("admitted_pct", 100) // a wire PLAY runs alone in the manager (n ≤ 2): refusal is a failure, counted above
	fetched := p.counterDelta("mmfs_blocks_fetched_total")
	hits := p.counterDelta("mmfs_round_cache_hits_total")
	written := p.counterDelta("mmfs_blocks_written_total")
	m.set("disk_vms_per_block", ratio(p.counterDelta("mmfs_disk_busy_ns_total")/1e6, fetched-hits+written))
	m.set("disk_read_pct", 100*ratio(fetched-hits, fetched))
	m.Counts["units"] = p.units
	m.Counts["ops"] = p.ops
	m.Counts["plays"] = p.plays
	m.Counts["rounds"] = int(rounds)
	m.Counts["blocks_delivered"] = p.blocks
	m.Counts["cache_hits"] = p.hits
	m.Counts["late_violations"] = p.violations
	m.Truncated = p.truncated
	m.WallS = p.wall.Seconds()
}
