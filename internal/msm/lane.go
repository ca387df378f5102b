package msm

import (
	"errors"
	"math/bits"
	"time"

	"mmfs/internal/cache"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
)

// This file is the service round. The paper has one service algorithm —
// n requests serviced in rounds of k blocks (§3.4) — and its concurrent
// retrieval architecture (§3.1, degree p) is that same round run once
// per spindle of a p-spindle disk.Array, so there is one round body
// (serviceRound) and one executor (the lane). The round splits into one
// sub-round per spindle, and the sub-rounds run concurrently in *virtual*
// time: each starts at the round's opening clock and they are joined at
// the slowest one's end. Whatever cannot ride one spindle — records,
// cache-served followers, boundary-crossing fetches — is then serviced by
// the serial lane from where they joined. A leader feeding the interval
// cache rides its spindle's lane like any disk-bound play. A single device is the case of
// zero parallel lanes: everything rides the serial lane.
//
// Each parallel lane owns its spindle for the round — its requests' next
// blocks all live on that spindle — sweeps its requests in the manager's
// service order (arrival order; a C-SCAN over the spindle's local
// cylinders only under ScanOrder), charges service time to a private
// virtual-time cursor, and spends a private Eq. 18 retry-slack budget
// computed over the spindle's entry in the resident table. The serial
// lane is a lane like them; it starts at the slowest lane's cursor and
// the manager's clock advances to where it ends. Every lane counts
// straight into the manager's counters: one goroutine sweeps them all.
//
// In host time the manager sweeps the busy lanes one after another on its
// own goroutine. A sweep lends rather than copies and is under a
// microsecond of bookkeeping; handing it to a goroutine cost a spawn and a
// futex wake that together outweighed the sweep (DESIGN §13), and the
// virtual numbers — cursors, join, counters — cannot tell the two
// apart. For the same reason the interval cache, which is not safe for
// concurrent use, can be fed from any lane: a leader reads on its own
// spindle's lane, and its followers, on the serial lane after the join,
// find what it fetched this round.

// lane is one spindle's service context. The manager also keeps one
// "serial" lane (spindle -1) over the whole logical device, which starts
// where the parallel lanes joined; it services what the round's
// partition could not hand to a spindle — on a single device, every
// request.
type lane struct {
	m *Manager
	// spindle is the lane's spindle index, -1 for the serial lane.
	spindle int
	// at is the lane's virtual-time cursor: service time is charged to
	// it, and the manager joins the cursors into the clock.
	at time.Duration
	// retrySlack is the lane's round retry budget: Eq. 18's measured
	// slack over the spindle-resident admission set.
	retrySlack time.Duration
	// Per-lane scratch arenas: reqs is the round's partition — the requests
	// this lane services; got is a step's per-block arrivals. blockBuf is
	// only the fallback scratch of the run read: a run normally arrives
	// lent by the lane's own spindle (a read-only slice of its store,
	// valid until the round's writes, which run on the serial lane after
	// the join), and the lane drops it — or the interval cache retains
	// views of its blocks (feedCache) — before the next read; only a
	// block that landed in blockBuf (a run of one that crosses a
	// cylinder) is copied.
	reqs     []*request
	got      []arrival
	blockBuf []byte
	// keys is scanSort's scratch: each request's sweep key.
	keys []int
	// worked reports whether any request transferred this round.
	worked bool
	// premium reports whether the round's partition assigned the lane
	// any premium-class stream; the rebuild engine halves its budget on
	// such lanes (repair yields to the strictest service class).
	premium bool
}

// sweep services the lane's sub-round: its requests in the service
// order — arrival order unless SetServiceOrder selects ScanOrder — k
// blocks each. On a parallel lane the partition guarantees disk-bound
// plays, so the dispatch never reaches the record path there; a leader
// among them feeds the interval cache from the lane (Get, Produced,
// PutView), which is safe because the lanes are swept one after another
// on the manager's goroutine. Records and cache-served followers ride
// the serial lane. A play whose display buffers stay full past the
// lane's cursor (request.wake) is passed over: its turn would find no
// room and do nothing.
//
// rt:hotpath
func (ln *lane) sweep() {
	ln.worked = false
	if ln.m.order == ScanOrder {
		ln.scanSort()
	}
	for _, r := range ln.reqs {
		if ln.at < r.wake {
			continue
		}
		if ln.serviceRequest(r, ln.m.k) {
			ln.worked = true
		}
	}
}

// scanSort reorders the lane's requests as a C-SCAN sweep: ascending
// cylinder of each request's next stored block, starting from the
// actuator's current position and wrapping. A parallel lane sweeps its
// spindle's local cylinders, the serial lane the logical device's.
// Requests without a known position (records, pure delays, nothing
// left) keep their arrival order at the end of the sweep. Keys are
// computed once per request into the lane's scratch storage and ordered
// by a stable insertion sort: a round holds a handful of requests.
//
// rt:hotpath
func (ln *lane) scanSort() {
	m := ln.m
	dev := m.d
	if ln.spindle >= 0 {
		dev = m.array.Spindle(ln.spindle)
	}
	head := dev.HeadCylinder()
	g := dev.Geometry()
	nc := g.Cylinders
	reqs := ln.reqs
	keys := ln.keys[:0]
	for _, r := range reqs {
		k := 2 * nc // after every positioned request
		if p, ok := r.nextStored(); ok {
			sector := int(p.sector)
			if ln.spindle >= 0 {
				_, sector = m.array.Locate(sector)
			}
			k = g.CylinderOf(sector) - head
			if k < 0 {
				k += nc
			}
		}
		keys = append(keys, k)
	}
	ln.keys = keys
	for i := 1; i < len(reqs); i++ {
		k, r := keys[i], reqs[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			keys[j+1], reqs[j+1] = keys[j], reqs[j]
			j--
		}
		keys[j+1], reqs[j+1] = k, r
	}
}

// serviceRequest transfers up to k blocks for the request; reports
// whether any work happened. A turn that leaves the request drained — a
// record's source exhausted, a play's last block read — raises the
// finish flag for the round's close (finishDrained).
//
// rt:hotpath
func (ln *lane) serviceRequest(r *request, k int) bool {
	if r.kind != Play {
		worked := ln.serviceRecord(r, k)
		if r.rec.exhausted {
			ln.m.finish = true
		}
		return worked
	}
	ps := r.play
	classes := ps.pm[ps.nextFetch].classes
	worked := ln.servicePlay(r, k)
	if ps.nextFetch >= len(ps.plan.Blocks) {
		ln.m.finish = true
	}
	if ps.pm[ps.nextFetch].classes != classes {
		// The turn read the play's last block of some stripe-group class:
		// its extent, and with it the resident table, shrank.
		ln.m.rt.invalidate()
	}
	return worked
}

// servicePlay delivers up to k blocks to a play request, respecting
// the display-buffer regulation, recording arrival-vs-deadline
// violations, and starting the display once the read-ahead is
// satisfied. The turn proceeds in steps. A step is one run (readRun): the
// request's next plan blocks, as many as lie back to back in one
// cylinder, read as one timed access — one positioning, then the
// transfer — each block arriving as the transfer passes its last sector,
// so deadlines, the display start and the cache's feed stay per block.
//
// A block has three sources. Pure delays and silence holders cost
// nothing and come from the plan and the strand. A request with an open
// cache stream asks the interval cache first, on whichever lane it rides
// (the lanes are swept one after another, so the cache is never reached
// from two at once). What the cache does not
// hold comes from the disk — if the request holds a disk slot. A
// cache-served follower holds none: a Wait (its leader has not produced
// the block yet) simply ends its turn with the blocks before it
// delivered, and a Miss (the interval broke — or its stream is closed,
// which the cache reports the same way) also flags the demotion that
// runs at the top of the next round. Either way it never reaches the
// timed read. A follower takes its blocks one at a time (a hit occupies
// no head), at full rate (a block that costs no disk time is not worth
// skipping), and never asks the cache for a silence holder, which no
// leader inserts; a stored block its leader has not produced ends its
// turn before the step is set up (cache.Stream.Waiting). A load-shed
// stream reads one block a step too: its plan is only valid at every
// stride-th index.
//
// A turn that finds the display buffers full notes when the next one
// frees (request.wake).
//
// rt:hotpath
func (ln *lane) servicePlay(r *request, k int) bool {
	m := ln.m
	ps := r.play
	single := ps.stride > 1 || r.cacheServed
	fetched := 0
	for fetched < k {
		// Load-shed sub-sampling: advance for free past the blocks the
		// stride drops. The retained neighbor already covers their
		// display time (it repeats on screen), so they occupy no buffer,
		// cost no disk time, and can never be late.
		if ps.stride > 1 && !r.cacheServed {
			for ps.nextFetch < len(ps.plan.Blocks) && (ps.nextFetch-ps.strideBase)%ps.stride != 0 {
				ps.nextFetch++
				ps.shed++
				ln.m.stats.ShedBlocks++
			}
		}
		if ps.nextFetch >= len(ps.plan.Blocks) {
			break
		}
		// The step's bound: the turn's k, the plan's end, and — once the
		// display runs — the free display buffers (regulation: never
		// overflow the display subsystem). Before the display starts a
		// run still stops at the buffers it would fill.
		most := min(k-fetched, len(ps.plan.Blocks)-ps.nextFetch)
		room := ps.plan.Buffers - ps.occupancyAt(ln.at)
		if ps.started {
			if room <= 0 {
				if ps.stride <= 1 {
					// The next buffer frees as the oldest unreleased block
					// finishes display; occupancyAt just found it.
					r.wake = ps.startTime + ps.pm[ps.released+1].offset
				}
				break
			}
			most = min(most, room)
		}
		first := ps.nextFetch
		if r.cacheServed && int(ps.pm[first].next) == first && ps.stream.Waiting(ps.plan.Blocks[first].Index) {
			return fetched > 0
		}
		got := ln.arrivals(most)
		if single {
			most = 1
		} else if !ps.started {
			most = min(most, max(room, 1))
		}
		n, span, next := ln.readRun(r, first, most, got)
		switch next {
		case stopRequest:
			return true
		case endTurn:
			return fetched > 0
		}
		start := ln.at
		ln.at += span
		for i, a := range got[:n] {
			j := first + i
			arrival := start + a.at
			ps.nextFetch++
			ln.m.stats.BlocksFetched++
			if a.degraded {
				ln.degradeBlock(r, j, arrival)
			} else if ps.started {
				if dl := ps.deadline(j); arrival > dl {
					ln.violate(&ps.violations, Violation{Block: j, Deadline: dl, Actual: arrival})
				}
			}
			if !ps.started && ps.nextFetch >= ps.readAhead {
				ps.started = true
				ps.startTime = arrival
			}
		}
		if m.ft.ConsecFailLimit > 0 && r.consecFails >= m.ft.ConsecFailLimit {
			// Escalation: every recent delivery degraded, so the
			// stream's output is unusable and its retries are eating
			// the shared slack round after round. Stop it; its slot
			// returns to the admission pool.
			ln.m.stats.FaultStops++
			m.end(r)
			return true
		}
		fetched += n
	}
	return fetched > 0
}

// arrival is one block's delivery in a step: when it became available,
// as an offset from the step's start, and whether a zero-fill stood in
// for it. For a stored block of a run, at is the end of the transfer of
// the run's sectors up to and including the block's; in the meantime
// end holds that sector count.
type arrival struct {
	at       time.Duration
	end      int
	degraded bool
}

// arrivals is the lane's per-step scratch, n entries long and zeroed.
// It is sized to a step's blocks (at most k, and grown by doubling as k
// steps up), never to bytes: the bytes of a run are lent.
func (ln *lane) arrivals(n int) []arrival {
	if cap(ln.got) < n {
		ln.got = make([]arrival, max(n, 2*cap(ln.got)))
	}
	ln.got = ln.got[:n]
	clear(ln.got)
	return ln.got
}

// turnStep says how a request's turn goes on after a readRun.
type turnStep int

const (
	// nextStep: the blocks were delivered; the turn goes on.
	nextStep turnStep = iota
	// endTurn: a follower must wait for (or demote from) its leader;
	// nothing was delivered.
	endTurn
	// stopRequest: the plan is broken; the request was stopped.
	stopRequest
)

// readRun is the one read body of the service round: it delivers plan
// block j and, when j is a stored block the disk must supply, the blocks
// stored back to back after it — at most most blocks in all — as one
// timed access. It reports how many blocks it delivered, the
// step's service time, and how the turn goes on; got[i] receives block
// j+i's arrival. A lone block is simply a run of one.
//
// A run grows while the next plan block is the next one the same reader
// stores: its first sector follows the run's last, the run stays inside
// the cylinder it started in (so the whole run is one lent view, DESIGN
// §12), and — for a leader feeding the interval cache — the cache does
// not already hold it. Pure delays, silence holders, cache hits, reader
// changes, gaps and cylinder crossings each end a run; so do most's
// bounds (k, the plan's end, the display buffers), and a follower or a
// load-shed stream passes most = 1. Each block of a run is handed to the
// cache as a view of the run.
//
// A run access that faults is retried block by block: a fault does not
// say which block it hit, so each block is read again on its own — a run
// of one, through retryRead and degradation — and a fault costs exactly
// the blocks it touches. The re-read pass is the run's retry: it counts
// as one, and the failed access's time comes out of the round's retry
// slack (the blocks' own Eq. 18 charges pay for their re-reads).
//
// rt:hotpath
func (ln *lane) readRun(r *request, j, most int, got []arrival) (int, time.Duration, turnStep) {
	m := ln.m
	ps := r.play
	b := ps.plan.Blocks[j]
	if b.Reader == nil {
		// Pure delay block (an interval whose medium is absent):
		// consumes playback time, no disk work.
		return 1, 0, nextStep
	}
	e, err := b.Reader.Strand().Block(b.Index)
	if err != nil {
		// A broken plan is a programming error in the layers above;
		// record it as a violation at this block and stop the request.
		ln.violate(&ps.violations, Violation{Block: j, Deadline: ln.at, Actual: ln.at})
		m.end(r)
		return 0, 0, stopRequest
	}
	open := ps.stream.Open()
	if (r.cacheServed && !e.Silent()) || (!r.cacheServed && open) {
		// A block still resident (pinned by an interval or retained by
		// the LRU from an earlier play) costs zero disk time.
		if _, res := ps.stream.Get(b.Index); res == cache.Hit {
			ps.cacheHits++
			ln.m.stats.CacheHits++
			return 1, 0, nextStep
		} else if r.cacheServed {
			if res == cache.Miss {
				m.flagDemotion(r)
			}
			return 0, 0, endTurn
		}
	}
	if e.Silent() {
		r.consecFails = 0
		ln.m.stats.SilenceBlocks++
		if open {
			// Silence is regenerated on read, never cached.
			ps.stream.Produced(b.Index)
		}
		return 1, 0, nextStep
	}
	n, end := 1, e.Sector+e.SectorCount
	cyl := int(e.Sector) / m.spc
	got[0].end = int(e.SectorCount)
	for n < most {
		nb := ps.plan.Blocks[j+n]
		if nb.Reader != b.Reader {
			break
		}
		ne, err := b.Reader.Strand().Block(nb.Index)
		if err != nil || ne.Sector != end || int(end+ne.SectorCount-1)/m.spc != cyl {
			break // a silence holder's NULL sector never follows a run
		}
		if open && ps.stream.Peek(nb.Index) == cache.Hit {
			break
		}
		end += ne.SectorCount
		got[n].end = int(end - e.Sector)
		n++
	}
	t, next, faulted := ln.readStored(r, j, n, got)
	if !faulted {
		return n, t, next
	}
	ln.spendSlack(t)
	ln.m.stats.Retries++
	span, lo := t, 0
	for i := 0; i < n; i++ {
		hi := got[i].end
		got[i].end = hi - lo // the block alone
		ti, next, _ := ln.readStored(r, j+i, 1, got[i:])
		if next != nextStep {
			return i, span, next
		}
		span += ti
		got[i].at = span
		lo = hi
	}
	return n, span, nextStep
}

// readStored is the timed read of the stored blocks [j, j+n), which
// readRun found back to back (got[i].end is the run's sector count
// through block j+i), and their delivery: arrivals into got, views of
// the run to the interval cache. A run of one that faults is retried
// (retryRead) and, failing that, degraded; a longer run that faults
// reports faulted, with the failed access's time, and delivers nothing.
//
// rt:hotpath
func (ln *lane) readStored(r *request, j, n int, got []arrival) (time.Duration, turnStep, bool) {
	m := ln.m
	ps := r.play
	b := ps.plan.Blocks[j]
	run, t, err := b.Reader.ReadRun(b.Index, n, &ln.blockBuf)
	if err != nil && isFault(err) {
		if n > 1 {
			return t, nextStep, true
		}
		run, t, err = ln.retryRead(b, t, err)
	}
	if err != nil {
		if !isFault(err) {
			ln.violate(&ps.violations, Violation{Block: j, Deadline: ln.at, Actual: ln.at})
			m.end(r)
			return 0, stopRequest, false
		}
		// Graceful degradation: the retry budget is exhausted (or the
		// sector is a persistent defect), so a zero-filled block stands
		// in for the unreadable data — the display glitches for one
		// block instead of the play aborting. The zero-fill is never
		// cached: a following stream misses here and falls back to disk
		// through the demotion path.
		got[0].at, got[0].degraded = t, true
		if ps.stream.Open() {
			ps.stream.Produced(b.Index)
		}
		return t, nextStep, false
	}
	r.consecFails = 0
	sectors := got[n-1].end
	lent, lo := disk.Lent(run, ln.blockBuf), 0
	ss := len(run) / sectors // a run is whole sectors
	open := ps.stream.Open()
	for i := range got[:n] {
		got[i].at = t - time.Duration(sectors-got[i].end)*m.sectorTime
		if open {
			pb := ps.plan.Blocks[j+i]
			feedCache(ps.stream, pb.Index, b.Reader.Payload(run[lo*ss:got[i].end*ss], pb.Index), lent)
		}
		lo = got[i].end
	}
	return t, nextStep, false
}

// feedCache hands the interval cache a block the lane just read for an
// open cache stream: a follower's pin, or plain LRU residency for future
// adoptions. A block the device lent is retained as the view it is —
// the cache is the third holder of lent bytes, after the lane and the
// FETCH visitor, and the one that keeps them past the round: strands
// are immutable and never relocated, so a view is good until its strand
// is removed (the strand store's removal hook invalidates it). A block
// that arrived in the lane's scratch is copied.
//
// rt:hotpath
func feedCache(s *cache.Stream, index int, data []byte, lent bool) {
	if lent {
		s.PutView(index, data)
		return
	}
	s.Put(index, data)
}

// spendSlack takes t out of the lane's retry budget, down to zero.
func (ln *lane) spendSlack(t time.Duration) {
	ln.retrySlack = max(ln.retrySlack-t, 0)
}

// retryRead re-attempts a faulted block read, bounded by the policy's
// MaxRetries and by the lane's remaining slack: an attempt is made
// only while its estimated service time fits the budget, and each
// attempt's actual service time is deducted. The returned t is the
// total time across all attempts (the caller's step charges it to the
// lane cursor); persistent defects (ErrBadSector) are never retried.
func (ln *lane) retryRead(b PlannedBlock, t0 time.Duration, err0 error) ([]byte, time.Duration, error) {
	m := ln.m
	total, err := t0, err0
	for attempt := 0; attempt < m.ft.MaxRetries; attempt++ {
		if !errors.Is(err, fault.ErrTransient) {
			break
		}
		est, perr := b.Reader.PeekBlockTime(b.Index)
		if perr != nil || est > ln.retrySlack {
			break
		}
		run, t, rerr := b.Reader.ReadRun(b.Index, 1, &ln.blockBuf)
		total += t
		ln.spendSlack(t)
		ln.m.stats.Retries++
		if rerr == nil {
			return run, total, nil
		}
		err = rerr
	}
	return nil, total, err
}

// degradeBlock records one zero-fill delivery: a Degraded violation at
// the block, the per-request and lane counters, and the consecutive-
// failure count the escalation threshold watches.
func (ln *lane) degradeBlock(r *request, j int, arrival time.Duration) {
	ps := r.play
	dl := arrival
	if ps.started {
		dl = ps.deadline(j)
	}
	ln.violate(&ps.violations, Violation{Block: j, Deadline: dl, Actual: arrival, Cause: CauseDegraded})
	ps.degraded++
	r.consecFails++
	ln.m.stats.DegradedBlocks++
}

// violate records one continuity violation on a request and in the
// lane counter the manager folds into the published total.
func (ln *lane) violate(dst *[]Violation, v Violation) {
	*dst = append(*dst, v)
	ln.m.stats.Violations++
}

// serviceRecord writes up to k captured blocks for a record request,
// recording buffer-overflow violations. Record requests only ever
// reach the serial lane: their write path touches allocator and
// strand-writer state no lane partition protects.
func (ln *lane) serviceRecord(r *request, k int) bool {
	rs := r.rec
	wrote := 0
	for wrote < k {
		if rs.exhausted {
			break
		}
		if rs.totalBlks > 0 && rs.nextWrite >= rs.totalBlks {
			rs.exhausted = true
			break
		}
		// Block b completes capture at start + (b+1)·blockDur.
		ready := rs.start + time.Duration(rs.nextWrite+1)*rs.blockDur
		if ln.at < ready {
			break // not yet captured
		}
		var flushTime time.Duration
		full := true
		for u := 0; u < rs.plan.UnitsPerBlock; u++ {
			unit, ok := rs.plan.Source.Next()
			if !ok {
				full = false
				break
			}
			t, err := rs.plan.Writer.Append(unit)
			if err != nil {
				ln.violate(&rs.violations, Violation{Block: rs.nextWrite, Deadline: ln.at, Actual: ln.at})
				rs.exhausted = true
				return true
			}
			flushTime += t
		}
		if !full {
			rs.exhausted = true
			if rs.plan.Writer.UnitsWritten()%uint64(rs.plan.UnitsPerBlock) == 0 {
				break // nothing partial pending
			}
		}
		ln.at += flushTime
		finish := ln.at
		// Overflow deadline: the capture device has Buffers block
		// buffers, so block b must be on disk before block b+Buffers
		// finishes capture.
		dl := rs.start + time.Duration(rs.nextWrite+rs.plan.Buffers+1)*rs.blockDur
		if finish > dl {
			ln.violate(&rs.violations, Violation{Block: rs.nextWrite, Deadline: dl, Actual: finish})
		}
		rs.nextWrite++
		ln.m.stats.BlocksWritten++
		wrote++
		if !full {
			break
		}
	}
	return wrote > 0
}

// serviceRound is the round body: partition the active requests onto
// the per-spindle lanes, sweep the busy lanes, join their cursors,
// sweep the leftovers on the serial lane from the slowest lane's cursor,
// advance the clock to where that ends, then let online repair spend
// what slack remains. The resident table holds the round's view (built
// after the round's re-steer). Reports whether anything transferred.
//
// rt:hotpath
func (m *Manager) serviceRound(act []*request) bool {
	serial := m.serial
	serial.reqs = serial.reqs[:0]
	for _, ln := range m.lanes {
		ln.reqs = ln.reqs[:0]
		ln.premium = false
	}
	for _, r := range act {
		ln := serial
		if sp, ok := m.laneSpindle(r); ok {
			ln = m.lanes[sp]
			if r.class == continuity.Premium {
				ln.premium = true
			}
		}
		ln.reqs = append(ln.reqs, r)
	}

	// Refill the retry budgets: the slack Eq. 18's worst-case charging
	// leaves unused in this round is what fault retries may spend, per
	// spindle over its resident set. The serial lane's budget — the one
	// the trace and the gauge report — is the most constrained spindle's,
	// before the sub-rounds and again after; on a single device, the one
	// set's.
	serial.at = m.clock.Now()
	serial.retrySlack = m.setSlack(0)
	for i, ln := range m.lanes {
		ln.at = serial.at
		ln.worked = false
		ln.retrySlack = m.setSlack(i)
		serial.retrySlack = min(serial.retrySlack, ln.retrySlack)
	}

	// A round costs what its work costs: only lanes the partition handed
	// a request are swept, in spindle order. An idle lane presents what the
	// refill above left, which is what an empty sweep would have: nothing
	// worked, the cursor at the round's start, the whole budget.
	for _, ln := range m.lanes {
		if len(ln.reqs) > 0 {
			ln.sweep()
		}
	}

	// Join the sub-rounds: the serial lane — records, cache-served
	// followers, and fetch windows the stripe map splits across spindles —
	// starts where the slowest lane ended, and the round ends, for the
	// clock, where the serial lane does.
	worked := false
	for _, ln := range m.lanes {
		worked = worked || ln.worked
		serial.at = max(serial.at, ln.at)
		serial.retrySlack = min(serial.retrySlack, ln.retrySlack)
	}
	serial.sweep()
	m.clock.AdvanceTo(serial.at)
	// Online repair rides the leftover slack after every stream has
	// been serviced (see rebuild.go).
	return m.repairRound(worked || serial.worked)
}

// roundSlack is Eq. 18's measured slack k·γ − n·α − n·k·β for one
// resident set at the current k, in virtual time.
func (m *Manager) roundSlack(set []continuity.Request) time.Duration {
	return continuity.Duration(m.adm.SlackSeconds(set, m.k))
}

// setSlack is roundSlack of set i of the resident table, which holds the
// round's view: worked out again only when the table was rebuilt or k
// moved since.
//
// rt:hotpath
func (m *Manager) setSlack(i int) time.Duration {
	t := &m.rt
	if t.slackK != m.k {
		t.slack = t.slack[:0]
		for _, set := range t.sets {
			t.slack = append(t.slack, m.roundSlack(set))
		}
		t.slackK = m.k
	}
	return t.slack[i]
}

// laneSpindle reports the spindle whose lane can service request r this
// round: r must be a disk-bound play — a leader feeding the cache
// included: its disk turn is charged to its spindle like any other, and
// on the serial lane the array's disk work ran on one timeline — and
// every stored block in its turn's window (window) must lie on that one
// spindle without straddling a stripe-group boundary. The plan map has
// cut the plan into stretches of one stripe group, so the walk looks up
// a spindle (classSpindles) once per stretch the window crosses —
// usually once — and never looks at a strand index: its cost follows the
// groups, not k. ok=false routes r to the serial lane — always, on a
// single device.
//
// rt:hotpath
func (m *Manager) laneSpindle(r *request) (int, bool) {
	if len(m.lanes) == 0 || r.kind != Play || r.cacheServed {
		return 0, false
	}
	ps := r.play
	end := min(ps.nextFetch+ps.window(m.k), len(ps.plan.Blocks))
	classSp := m.classSpindles()
	sp := -1
	for j := int(ps.pm[ps.nextFetch].next); j < end; {
		p := ps.pm[j]
		if p.group < 0 {
			return 0, false
		}
		s := classSp[int(p.group)%len(classSp)]
		if sp >= 0 && s != sp {
			return 0, false
		}
		sp, j = s, int(p.other)
	}
	// sp < 0: no disk work in the window (pure delay / silence); the
	// serial lane advances it for free.
	return sp, sp >= 0
}

// window is how many plan positions from nextFetch a turn of k fetches
// can reach: k, or — for a load-shed stream, which fetches only the
// positions a whole number of strides from strideBase — the blocks it
// skips to its first such position and its k fetches stride apart.
func (ps *playState) window(k int) int {
	s := ps.stride
	if s <= 1 {
		return k
	}
	skip := ((ps.strideBase-ps.nextFetch)%s + s) % s
	return skip + (k-1)*s + 1
}

// planPos is what the service round needs to know about plan position j.
// The plan and the strands it reads are immutable and stored bytes never
// move (DESIGN §12), so a plan's map — one entry per position and one past
// the end — is built once, by the compiler (PlanPlay), and only read from
// then on, by every play of the plan.
type planPos struct {
	// offset is block j's display offset from the display start: its
	// deadline once the display runs. Past the end it is the plan's
	// duration.
	offset time.Duration
	// classes is the suffix set of stripe-group classes
	// (disk.Array.SteerClasses) the stored blocks of plan[j:] occupy, a
	// block that straddles groups counting in each; zero — unknown — on
	// a single device or with more classes than a word has bits.
	classes uint64
	// next is the first position at or after j whose block is stored: a
	// disk access, not a pure delay, a silence holder or an entry its
	// strand cannot resolve. The plan's length when none is left.
	next int32
	// The rest describes a stored block j. sector is its first sector on
	// the logical device; group is its stripe group, -1 when it straddles
	// two. For a block inside one group, other is the first later stored
	// position whose block lies in another group or straddles, the plan's
	// length when none does.
	sector uint32
	group  int32
	other  int32
}

// nextStored is the map entry of the request's next stored block; ok is
// false for a record and for a play with none left.
func (r *request) nextStored() (planPos, bool) {
	if r.kind != Play {
		return planPos{}, false
	}
	ps := r.play
	j := ps.pm[ps.nextFetch].next
	return ps.pm[j], int(j) < len(ps.plan.Blocks)
}

// extent reports the spindles the request's remaining plan reads from
// under the steering of the moment, as a bit set: the plan map's class
// set at its position, through spindlesAt. Zero is unknown, which
// admission charges to every spindle: a record, a play with no stored
// block left, anything on a single device.
//
// rt:hotpath
func (m *Manager) extent(r *request) uint64 {
	if r.kind != Play {
		return 0
	}
	return m.spindlesAt(r.play.pm[r.play.nextFetch].classes)
}

// spindlesAt maps a set of stripe-group classes to the spindles that
// serve them now.
//
// rt:hotpath
func (m *Manager) spindlesAt(classes uint64) uint64 {
	if classes == 0 {
		return 0
	}
	classSp := m.classSpindles()
	var sps uint64
	for c := classes; c != 0; c &= c - 1 {
		sps |= 1 << classSp[bits.TrailingZeros64(c)]
	}
	return sps
}

// classSpindles is the spindle each stripe-group class
// (disk.Array.SteerClasses) is read from under the array's steering:
// Locate's answer for the class's first group, asked again only when the
// steer table's generation moves — whoever refreshed it. A steering
// change moves extents, so it stales the resident table too.
//
// rt:hotpath
func (m *Manager) classSpindles() []int {
	if g := m.array.SteerGeneration(); g != m.steerGen {
		m.steerGen = g
		for c := range m.steerSp {
			m.steerSp[c], _ = m.array.Locate(c * m.groupSec)
		}
		m.rt.invalidate()
	}
	return m.steerSp
}

// residentTable is the resident table — who is charged where: for each
// spindle (a single device is a table of one set) the requests admission
// control carries there, at their effective (load-shed) rate — with what
// is derived from it. Those are the live disk-bound requests,
// non-destructively paused ones included (their resources remain
// allocated); cache-served followers perform no disk work and are absent
// (cacheServed counts them). A play is charged on every spindle its
// remaining plan touches (extent) — Eq. 18 must hold on each spindle it
// will walk onto, not only where its next block lies — and a request of
// unknown extent on every spindle. Admission, QoS feasibility, the
// round's retry slack, re-steer and the trace all read this one table:
// admission's view with the requests waiting to join (pending), a round's
// without.
//
// The table is kept until an event changes what it is built from, and
// each such event stales it (invalidate): a request entering (register)
// or leaving (end) the live table, a pause, a resume, a demotion, a
// waiting request joining, a stride change (setStride), a play's turn
// reading its last block of a stripe-group class (serviceRequest), a
// steering change (classSpindles) and a cache handed over (SetCache).
// The slack follows k besides (setSlack).
type residentTable struct {
	sets [][]continuity.Request
	// n counts the distinct requests in sets; cacheServed the live
	// cache-served followers, which either view leaves out.
	n, cacheServed int
	// admission is the view sets holds; waiting counts the requests only
	// admission's view holds — with none, the two views are one table.
	admission bool
	waiting   int
	fresh     bool
	// slack is each set's Eq. 18 slack at k = slackK; slackK is 0 until
	// setSlack works it out for the table.
	slack  []time.Duration
	slackK int
}

// invalidate marks the table stale: the next read rebuilds it.
func (t *residentTable) invalidate() { t.fresh = false }

// residentSets returns the resident table in admission's view (pending)
// or a round's, rebuilding it first when an event staled it or it holds
// the other view and the two differ; n counts the distinct requests in
// it. The table is valid until the next call.
//
// rt:hotpath
func (m *Manager) residentSets(pending bool) (sets [][]continuity.Request, n int) {
	if m.array != nil {
		m.classSpindles() // a steering change stales the table
	}
	t := &m.rt
	if !t.fresh || (t.admission != pending && t.waiting > 0) {
		m.buildResident(pending)
	}
	return t.sets, t.n
}

// buildResident fills the resident table in the given view from the live
// request table.
//
// rt:hotpath
func (m *Manager) buildResident(pending bool) {
	t := &m.rt
	sets := t.sets
	for i := range sets {
		sets[i] = sets[i][:0]
	}
	t.n, t.cacheServed, t.waiting = 0, 0, 0
	for _, r := range m.reqs {
		switch {
		case r.done:
			continue
		case r.cacheServed:
			t.cacheServed++
			continue
		case r.pause != nil && r.pause.destructive:
			continue
		case r.pendingK > 0:
			t.waiting++
			if !pending {
				continue
			}
		}
		t.n++
		e := r.effAdm()
		sps := m.extent(r)
		if sps == 0 {
			for i := range sets {
				sets[i] = append(sets[i], e)
			}
			continue
		}
		for ; sps != 0; sps &= sps - 1 {
			sp := bits.TrailingZeros64(sps)
			sets[sp] = append(sets[sp], e)
		}
	}
	t.admission, t.fresh, t.slackK = pending, true, 0
}
