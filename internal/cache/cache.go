// Package cache implements an interval-caching block cache shared
// across play requests. When a trailing play of a strand range runs
// within a bounded distance of a leading play, the trailing stream is
// served from the blocks the leader just fetched instead of from the
// disk: the cache pins each block the leader produces until its
// follower consumes it, forming an *interval* between the two streams.
// Capacity not held by interval pins acts as a plain LRU block cache.
//
// The bound on the leader/follower distance is the cache capacity
// itself: a stream may only become a follower while every block
// between its position and its leader's is still resident, and a
// chain's pins can never exceed the capacity (a leader whose follower
// falls too far behind simply fails to insert, the follower misses,
// and the manager demotes it back through full admission).
//
// The cache is not safe for concurrent use; the storage manager's
// round loop (and the server above it) serialize access.
package cache

import (
	"math/bits"

	"mmfs/internal/obs"
	"mmfs/internal/strand"
)

// Result classifies a Get.
type Result int

const (
	// Miss: the block is not resident and no leader will produce it;
	// the caller must fetch from disk (or demote the stream).
	Miss Result = iota
	// Hit: the block was served from memory at zero disk cost.
	Hit
	// Wait: the block is not yet produced by the stream's leader; the
	// caller should retry after the leader makes progress rather than
	// touch the disk.
	Wait
)

// String names the result.
func (r Result) String() string {
	switch r {
	case Hit:
		return "hit"
	case Wait:
		return "wait"
	}
	return "miss"
}

// entry is one resident block. An entry is either pinned for exactly
// one claimant stream (the next follower that will consume it) and on
// that stream's pin list, or it sits on the LRU list: one pair of links
// serves both, since an entry is never on the two at once. A removed
// entry waits on the free list (linked through next) with its frame,
// for the next insert to refill.
//
// data is what Get returns; frame is a buffer the cache itself
// allocated. After PutView data is a view of the device's store (lent is
// set) and frame, if the entry ever had one, idles; after Put data is
// frame. Keeping the two apart is what makes a recycled entry safe: an
// owning copy always lands in frame, never through a view onto the
// platters.
type entry struct {
	rec        *strandRec // the strand's record; nil on the free list
	index      int        // the block's index in its strand
	data       []byte
	frame      []byte
	lent       bool
	claimant   *Stream // non-nil ⇒ pinned: on claimant.pins, off the LRU list
	prev, next *entry  // links of the one list the entry is on
}

// entryList is an intrusive doubly linked list of entries: the LRU list
// (head = most recently used) and every stream's pin list (head = lowest
// block index).
type entryList struct {
	head, tail *entry
}

func (l *entryList) pushFront(e *entry) { l.insertAfter(nil, e) }

// insertAfter links e behind p; a nil p puts e at the head.
func (l *entryList) insertAfter(p, e *entry) {
	e.prev = p
	if p != nil {
		e.next, p.next = p.next, e
	} else {
		e.next, l.head = l.head, e
	}
	if e.next != nil {
		e.next.prev = e
	} else {
		l.tail = e
	}
}

func (l *entryList) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *entryList) moveFront(e *entry) {
	if l.head != e {
		l.remove(e)
		l.pushFront(e)
	}
}

// Stream is one open play position over a strand, and the handle its
// opener keeps (OpenStream) to reach it without an id lookup. It is on
// the stream list of its strand's record (rec, linked through onNext)
// from OpenStream to CloseStream; a closed stream — CloseStream, Reset,
// or an id reopened — has no record and reads as an unknown id: Get
// misses, Peek reports Miss, and Put, PutView, Produced and Adopt do
// nothing. pos is the next block index the stream will produce (leader
// fetching from disk) or consume (follower reading from the cache);
// leader/follower link the interval chain L ← F1 ← F2 ordered by
// descending pos. pins lists the entries pinned for the stream in
// ascending block index, so closing it costs its own pins, not a walk of
// the cache.
type Stream struct {
	c                *Cache
	id               uint64
	rec              *strandRec
	onNext           *Stream
	pos              int
	end              int
	rate             float64
	leader, follower *Stream
	pins             entryList
}

// strandRec is the cache's record of one strand: its resident entries,
// filed by block index, and its open streams. Every lookup a stream
// makes goes through its own record, so finding a block is an index into
// a ring and finding a leader walks the strand's streams, never the
// cache's. A record exists while it holds an entry or a stream; the last
// of them to go drops it.
type strandRec struct {
	sid strand.ID
	// slots is a ring over the resident span [lo, hi): block i, when
	// resident, is slots[i&(len(slots)-1)], every other slot nil. Its
	// length is a power of two at least hi-lo, so it follows the span
	// (doubling as it widens), not the strand's length; lo and hi-1 are
	// resident whenever n > 0.
	slots   []*entry
	lo, hi  int
	n       int     // resident entries
	streams *Stream // head of the open streams' list, in no order
}

// minRingBits sizes a new record's ring: 1<<minRingBits slots.
const minRingBits = 4

// at returns the resident entry for block i, or nil.
func (r *strandRec) at(i int) *entry {
	if i < r.lo || i >= r.hi {
		return nil
	}
	return r.slots[i&(len(r.slots)-1)]
}

// file makes e, an entry for one of r's blocks, resident, widening the
// span — and the ring, from the cache's spares, when the span outgrows it.
func (c *Cache) file(r *strandRec, e *entry) {
	i := e.index
	if r.n == 0 {
		r.lo, r.hi = i, i+1
	} else {
		lo, hi := min(r.lo, i), max(r.hi, i+1)
		if hi-lo > len(r.slots) {
			c.regrow(r, hi-lo)
		}
		r.lo, r.hi = lo, hi
	}
	e.rec = r
	r.slots[i&(len(r.slots)-1)] = e
	r.n++
}

// unfile takes e off its record, narrowing the span past the slots that
// fall empty at either end, and drops a record left with nothing.
func (c *Cache) unfile(e *entry) {
	r, i := e.rec, e.index
	m := len(r.slots) - 1
	r.slots[i&m] = nil
	e.rec = nil
	r.n--
	switch {
	case r.n == 0:
		r.lo, r.hi = 0, 0
		c.dropIfIdle(r)
	case i == r.lo:
		for r.slots[r.lo&m] == nil {
			r.lo++
		}
	case i == r.hi-1:
		for r.slots[(r.hi-1)&m] == nil {
			r.hi--
		}
	}
}

// regrow moves r's entries onto a ring of at least span slots and
// returns the old ring, emptied, to the spares.
func (c *Cache) regrow(r *strandRec, span int) {
	old := r.slots
	r.slots = c.takeRing(bits.Len(uint(span - 1)))
	for i := r.lo; i < r.hi; i++ {
		if e := old[i&(len(old)-1)]; e != nil {
			r.slots[i&(len(r.slots)-1)] = e
		}
	}
	clear(old)
	c.giveRing(old)
}

// takeRing returns an empty ring of 1<<b slots, a spare if there is one.
func (c *Cache) takeRing(b int) []*entry {
	if b < len(c.rings) {
		if n := len(c.rings[b]); n > 0 {
			ring := c.rings[b][n-1]
			c.rings[b] = c.rings[b][:n-1]
			return ring
		}
	}
	return make([]*entry, 1<<b)
}

// giveRing keeps an empty ring as a spare for the next record that
// needs one of its size.
func (c *Cache) giveRing(ring []*entry) {
	b := bits.Len(uint(len(ring) - 1))
	for len(c.rings) <= b {
		c.rings = append(c.rings, nil)
	}
	c.rings[b] = append(c.rings[b], ring)
}

// dropIfIdle forgets a record that holds no entry and no stream; its
// ring goes to the spares.
func (c *Cache) dropIfIdle(r *strandRec) {
	if r.n > 0 || r.streams != nil {
		return
	}
	delete(c.strands, r.sid)
	c.giveRing(r.slots)
	r.slots = nil
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses, Waits uint64
	Inserts, Evictions  uint64
	Adoptions           uint64
	// Bytes/PinnedBytes/Capacity describe the model's residency — the
	// block lengths the interval cache accounts for, whoever's memory
	// holds them; PinnedBytes ≤ Bytes ≤ Capacity always holds.
	Bytes, PinnedBytes, Capacity int64
	// OwnedBytes is the host memory the cache itself allocated: the
	// capacities of its frames, resident or on the free list. Blocks held
	// as views of the device's store (PutView) add nothing to it.
	OwnedBytes int64
	// Streams is the number of open play positions; Intervals the
	// number of leader←follower links among them.
	Streams, Intervals int
}

// Cache is the interval cache.
type Cache struct {
	capacity int64
	bytes    int64
	pinned   int64
	// strands files the resident entries and the open streams by strand
	// (strandRec); streams finds a stream, and through it its record, by id,
	// for the id-keyed methods. unknown is the closed stand-in those methods
	// use for an id with no open stream.
	strands map[strand.ID]*strandRec
	streams map[uint64]*Stream
	unknown Stream
	// rings keeps the rings records outgrew or were dropped with, emptied,
	// by size (rings[b] holds rings of 1<<b slots): a record's ring is
	// taken from here first, so once every size a strand's span reaches has
	// been made, records come and go, widen and reset without allocating.
	rings [][][]*entry
	// intervals counts leader←follower links, maintained incrementally
	// by Adopt/CloseStream so the hot path never walks the stream map.
	intervals int
	// lru lists the unpinned entries, head = most recent.
	lru entryList
	// free lists removed entries, frames attached, for an insert to
	// recycle: at capacity it evicts one block and reuses its entry (and,
	// when it must own the bytes, copies into its frame), allocating
	// nothing. Only removals feed it and every insert drains it first, so
	// entries resident plus free never exceed the most the cache ever held
	// at once; free bytes count in neither bytes nor pinned.
	free *entry
	// owned is the sum of the frames' capacities (Stats.OwnedBytes).
	owned int64
	// stats is the one count of the cache's events; published, the part
	// the registry shows. The obs* handles (nil, hence inert, before
	// SetObs) publish it; unpublished marks a count or a residency
	// change they do not show yet.
	stats, published Stats
	unpublished      bool

	obsHits, obsMisses, obsWaits, obsInserts, obsEvictions, obsAdoptions *obs.Counter
	obsBytes, obsPinned, obsIntervals, obsOwned                          *obs.Gauge
}

// New creates a cache with the given capacity in bytes.
func New(capacity int64) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	c := &Cache{
		capacity: capacity,
		strands:  make(map[strand.ID]*strandRec),
		streams:  make(map[uint64]*Stream),
	}
	c.unknown.c = c
	return c
}

// SetObs publishes the cache's Stats into an observability registry
// (hit/miss/wait lookups, inserts, evictions, interval adoptions, and
// residency gauges): each counter moves by its field's growth from here
// on. Call once, at wiring time.
func (c *Cache) SetObs(reg *obs.Registry) {
	c.obsHits = reg.Counter("mmfs_cache_hits_total")
	c.obsMisses = reg.Counter("mmfs_cache_misses_total")
	c.obsWaits = reg.Counter("mmfs_cache_waits_total")
	c.obsInserts = reg.Counter("mmfs_cache_inserts_total")
	c.obsEvictions = reg.Counter("mmfs_cache_evictions_total")
	c.obsAdoptions = reg.Counter("mmfs_cache_adoptions_total")
	c.obsBytes = reg.Gauge("mmfs_cache_bytes")
	c.obsPinned = reg.Gauge("mmfs_cache_pinned_bytes")
	c.obsIntervals = reg.Gauge("mmfs_cache_intervals")
	c.obsOwned = reg.Gauge("mmfs_cache_owned_bytes")
	reg.Gauge("mmfs_cache_capacity_bytes").Set(c.capacity)
	c.published = c.stats
	c.publish()
}

// PublishGauges sends the registry what the per-block paths (Get,
// Waiting, Put, PutView, Produced) counted or moved since the last
// publication: the counters' growth and the residency gauges. The storage
// manager calls it as every RunRound returns; Adopt, CloseStream,
// InvalidateStrand, Reset and SetObs, which no round calls, publish as
// they return.
func (c *Cache) PublishGauges() {
	if c.unpublished {
		c.publish()
	}
}

// publish is PublishGauges whatever changed.
func (c *Cache) publish() {
	c.unpublished = false
	s, p := &c.stats, &c.published
	c.obsHits.Add(s.Hits - p.Hits)
	c.obsMisses.Add(s.Misses - p.Misses)
	c.obsWaits.Add(s.Waits - p.Waits)
	c.obsInserts.Add(s.Inserts - p.Inserts)
	c.obsEvictions.Add(s.Evictions - p.Evictions)
	c.obsAdoptions.Add(s.Adoptions - p.Adoptions)
	*p = *s
	c.obsBytes.Set(c.bytes)
	c.obsPinned.Set(c.pinned)
	c.obsIntervals.Set(int64(c.intervals))
	c.obsOwned.Set(c.owned)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Bytes, s.PinnedBytes, s.Capacity = c.bytes, c.pinned, c.capacity
	s.OwnedBytes = c.owned
	s.Streams = len(c.streams)
	s.Intervals = c.intervals
	return s
}

// OpenStream registers a play position and returns its handle: the
// stream will touch strand blocks [first, end) at the given playback
// rate (blocks/second class; only equality between streams matters).
// Reopening an id closes the previous registration, whose handle then
// reads as an unknown id.
func (c *Cache) OpenStream(id uint64, sid strand.ID, first, end int, rate float64) *Stream {
	c.Stream(id).Close()
	r := c.strands[sid]
	if r == nil {
		r = &strandRec{sid: sid, slots: c.takeRing(minRingBits)}
		c.strands[sid] = r
	}
	s := &Stream{c: c, id: id, rec: r, onNext: r.streams, pos: first, end: end, rate: rate}
	r.streams = s
	c.streams[id] = s
	return s
}

// Stream returns the handle of the open stream registered under id, or —
// for an id with none — a closed stand-in that behaves as the unknown id
// it is. The id-keyed methods are this lookup over the handle's.
func (c *Cache) Stream(id uint64) *Stream {
	if s := c.streams[id]; s != nil {
		return s
	}
	return &c.unknown
}

// Open reports whether the handle names an open stream; false for nil.
func (s *Stream) Open() bool { return s != nil && s.rec != nil }

// candidateLeader finds the stream a new follower at [first, …) of r's
// strand would trail: the hindmost follower-free stream at or ahead of
// first with a compatible rate, provided every gap block [first,
// leader.pos) is resident. Choosing the hindmost minimizes the gap (and
// therefore the pins), and chains followers L ← F1 ← F2 instead of
// fanning out. The search costs the strand's own streams plus the gap.
func candidateLeader(r *strandRec, first int, rate float64, self *Stream) *Stream {
	var best *Stream
	for t := r.streams; t != nil; t = t.onNext {
		if t == self || t.follower != nil {
			continue
		}
		if t.pos < first || !rateCompatible(t.rate, rate) {
			continue
		}
		if best == nil || t.pos < best.pos || (t.pos == best.pos && t.id < best.id) {
			best = t
		}
	}
	if best == nil {
		return nil
	}
	// The trailing gap must be fully resident; a larger gap is a
	// superset of this one, so no further-ahead candidate can pass
	// where the hindmost fails.
	for i := first; i < best.pos; i++ {
		if r.at(i) == nil {
			return nil
		}
	}
	return best
}

// rateCompatible reports whether a follower at rate rf can trail a
// leader at rate rl: the rates must match, or the follower would drift
// into (faster) or away from (slower) its leader.
func rateCompatible(rl, rf float64) bool {
	d := rl - rf
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*rl
}

// Adoptable reports whether a new stream over [first, …) of sid at the
// given rate would find a leader right now. It has no side effects;
// admission control uses it to decide cache-served admission before
// the stream exists.
func (c *Cache) Adoptable(sid strand.ID, first int, rate float64) bool {
	if c == nil || c.capacity <= 0 {
		return false
	}
	r := c.strands[sid]
	return r != nil && candidateLeader(r, first, rate, nil) != nil
}

// Adopt is Stream.Adopt by id.
func (c *Cache) Adopt(id uint64) bool { return c.Stream(id).Adopt() }

// Adopt attaches the open stream to a leader, pinning the gap blocks
// for it. It reports false when no leader qualifies (the stream then
// runs disk-bound). Between an Adoptable check and the matching Adopt
// the cache must not be mutated; the manager's serial admission path
// guarantees this.
func (s *Stream) Adopt() bool {
	c := s.c
	if c.capacity <= 0 || s.rec == nil || s.leader != nil {
		return false
	}
	l := candidateLeader(s.rec, s.pos, s.rate, s)
	if l == nil {
		return false
	}
	for i := s.pos; i < l.pos; i++ {
		// A block already claimed by another chain's follower keeps
		// that claim; it is resident either way.
		if e := s.rec.at(i); e.claimant == nil {
			c.pin(s, e)
		}
	}
	s.leader, l.follower = l, s
	c.intervals++
	c.stats.Adoptions++
	c.publish()
	return true
}

// Get is Stream.Get by id.
//
// rt:hotpath
func (c *Cache) Get(id uint64, index int) ([]byte, Result) { return c.Stream(id).Get(index) }

// Get serves the stream's read of the given block. A Hit advances the
// stream's position and hands down (or releases) the block's pin. A
// Wait means the block is not yet produced by the leader; a Miss means
// the stream has fallen off the cache and must be demoted to disk.
// The returned slice is the entry's bytes — the cache's own frame or a
// view of the device's store: read-only, and valid only until the next
// insert (an eviction recycles the entry).
//
// rt:hotpath
func (s *Stream) Get(index int) ([]byte, Result) {
	c := s.c
	if s.rec == nil {
		c.stats.Misses++
		c.unpublished = true
		return nil, Miss
	}
	if s.Waiting(index) {
		return nil, Wait
	}
	// A follower's next block is the head of its own ascending pin
	// list; any other is found on the stream's record.
	e := s.pins.head
	if e == nil || e.index != index {
		e = s.rec.at(index)
	}
	if e == nil {
		c.stats.Misses++
		c.unpublished = true
		return nil, Miss
	}
	c.consume(s, e)
	c.unpublished = true
	if index >= s.pos {
		s.pos = index + 1
	}
	c.stats.Hits++
	return e.data, Hit
}

// Waiting reports whether Get would answer Wait for the block — the
// stream's leader has not produced it yet — and if so counts the wait
// as that Get would, so a caller can end a follower's turn on it without
// asking for the block. Never read at or past the leader's position,
// even if the block is resident: it may be pinned for the
// leader-as-follower one level up the chain, and consuming it would
// reorder the chain.
//
// rt:hotpath
func (s *Stream) Waiting(index int) bool {
	if s.rec == nil || s.leader == nil || index < s.leader.pos {
		return false
	}
	s.c.stats.Waits++
	s.c.unpublished = true
	return true
}

// Peek classifies what Get would return, with no side effects. The
// manager's idle-time scan uses it to skip Wait-blocked streams.
//
// rt:hotpath
func (s *Stream) Peek(index int) Result {
	if s.rec == nil {
		return Miss
	}
	if s.leader != nil && index >= s.leader.pos {
		return Wait
	}
	// As in Get: a follower's next block heads its pin list.
	if e := s.pins.head; e != nil && e.index == index {
		return Hit
	}
	if s.rec.at(index) == nil {
		return Miss
	}
	return Hit
}

// consume handles the pin of a block the stream has read or skipped:
// a claim held for this stream is handed down, any other pin is left
// alone, and an unpinned block is touched.
func (c *Cache) consume(s *Stream, e *entry) {
	switch e.claimant {
	case s:
		c.handDown(s, e)
	case nil:
		c.lru.moveFront(e)
	}
}

// wants reports whether the stream (nil for none) has yet to consume the
// block at index.
func (s *Stream) wants(index int) bool {
	return s != nil && index >= s.pos && index < s.end
}

// pin claims the resident entry for s: off the LRU list — or, when the
// pin is handed down a chain, off its previous claimant's pin list — and
// onto s's pin list at its place in ascending block index. Streams
// produce and consume in ascending order, so that place is the tail; the
// walk back only runs when a re-adoption fills in below pins s kept.
func (c *Cache) pin(s *Stream, e *entry) {
	if e.claimant != nil {
		e.claimant.pins.remove(e)
	} else {
		c.lru.remove(e)
		c.pinned += int64(len(e.data))
	}
	e.claimant = s
	p := s.pins.tail
	for p != nil && p.index > e.index {
		p = p.prev
	}
	s.pins.insertAfter(p, e)
}

// handDown disposes of a pin held for s, which has read the block or is
// closing: the claim transfers to s's own follower (the next consumer
// in the chain) if it still wants the block, else — at the chain tail —
// the block unpins to the LRU as its most recently used.
func (c *Cache) handDown(s *Stream, e *entry) {
	if s.follower.wants(e.index) {
		c.pin(s.follower, e)
		return
	}
	c.unpin(e)
	c.lru.pushFront(e)
}

// unpin drops the entry's claim, leaving it on no list.
func (c *Cache) unpin(e *entry) {
	e.claimant.pins.remove(e)
	e.claimant = nil
	c.pinned -= int64(len(e.data))
}

// Put is Stream.Put by id.
//
// rt:hotpath
func (c *Cache) Put(id uint64, index int, data []byte) { c.Stream(id).Put(index, data) }

// Put records a block the stream fetched from disk, making it
// available to followers (pinned if one needs it) or to the plain LRU.
// The stream's position advances past the block either way. data is
// copied into a frame of the cache's own: the insert for bytes that
// will not outlive the caller's next read (the lane's scratch, when the
// device could not lend the block). Bytes lent from the device's store
// go through PutView, which copies nothing.
//
// rt:hotpath
func (s *Stream) Put(index int, data []byte) { s.insert(index, data, false) }

// PutView is Put for a block the device lent (disk.Lent): the entry
// keeps the view itself — no copy, no frame. The view must stay what it
// is for as long as the entry is resident, which is the caller's to
// arrange: strands are immutable and never relocated, so a view is good
// until its strand is removed (InvalidateStrand, wired to strand.Store's
// removal hook).
//
// rt:hotpath
func (s *Stream) PutView(index int, view []byte) { s.insert(index, view, true) }

// insert is the one bookkeeping body behind Put and PutView; the two
// differ only in how the entry comes to hold the bytes (hold).
func (s *Stream) insert(index int, data []byte, lent bool) {
	c := s.c
	if s.rec == nil {
		return
	}
	if index >= s.pos {
		s.pos = index + 1
	}
	size := int64(len(data))
	if size == 0 || size > c.capacity {
		return
	}
	c.unpublished = true
	if e := s.rec.at(index); e != nil {
		c.hold(e, data, lent)
		c.claimOrTouch(s, e)
		return
	}
	// Make room by evicting unpinned LRU entries; if the pins leave no
	// room the insert is skipped (the follower will miss and demote).
	for c.bytes+size > c.capacity {
		if !c.evictOne() {
			return
		}
	}
	e := c.free
	if e != nil {
		c.free, e.next = e.next, nil
	} else {
		e = &entry{}
	}
	e.index = index
	c.hold(e, data, lent)
	c.file(s.rec, e)
	c.bytes += size
	c.stats.Inserts++
	c.lru.pushFront(e)
	c.claimOrTouch(s, e)
}

// hold makes data the entry's bytes: retained as they are when lent,
// else copied into the entry's frame (grown only when too small).
func (c *Cache) hold(e *entry, data []byte, lent bool) {
	e.lent = lent
	if lent {
		e.data = data
		return
	}
	if cap(e.frame) < len(data) {
		c.owned += int64(len(data) - cap(e.frame))
		e.frame = make([]byte, len(data))
	}
	e.frame = e.frame[:len(data)]
	copy(e.frame, data)
	e.data = e.frame
}

// claimOrTouch pins the (resident) entry for the producing stream's
// follower if that follower still needs it, else refreshes its LRU
// position.
func (c *Cache) claimOrTouch(s *Stream, e *entry) {
	switch {
	case e.claimant != nil:
		// Another chain's claim stands.
	case s.follower.wants(e.index):
		c.pin(s.follower, e)
	default:
		c.lru.moveFront(e)
	}
}

// Produced advances the stream's position past a block that was
// serviced without touching the cache (silence blocks cost no disk
// time and are regenerated on read, so caching them is pure waste).
//
// rt:hotpath
func (s *Stream) Produced(index int) {
	if s.rec == nil {
		return
	}
	if e := s.rec.at(index); e != nil && e.claimant == s {
		s.c.handDown(s, e)
		s.c.unpublished = true
	}
	if index >= s.pos {
		s.pos = index + 1
	}
}

// CloseStream is Stream.Close by id; safe to call for unknown ids.
func (c *Cache) CloseStream(id uint64) { c.Stream(id).Close() }

// Close removes the play position: every block pinned for it is handed
// down to its follower or released to the LRU, and the chain is spliced
// around it (the follower now trails the closed stream's leader; the
// interval survives exactly when the gap blocks remain resident, which
// they do — they were pinned for the follower). Pins are released in
// ascending block index, so the lowest index ends nearest the LRU tail
// and is evicted first: the stream's own reading order, the same on
// every run. The cost is the stream's own pins and its strand's streams.
// From here on the handle reads as an unknown id; closing it again does
// nothing.
func (s *Stream) Close() {
	r := s.rec
	if r == nil {
		return
	}
	c := s.c
	delete(c.streams, s.id)
	for e := s.pins.head; e != nil; e = s.pins.head {
		c.handDown(s, e)
	}
	for p := &r.streams; *p != nil; p = &(*p).onNext {
		if *p == s {
			*p, s.onNext = s.onNext, nil
			break
		}
	}
	s.rec = nil
	c.dropIfIdle(r)
	// Splicing the chain removes exactly one link when the closed
	// stream participated in any: its own (leader non-nil) or its
	// follower's (which now trails s.leader, non-nil or not).
	if s.leader != nil || s.follower != nil {
		c.intervals--
	}
	if s.follower != nil {
		s.follower.leader = s.leader
	}
	if s.leader != nil {
		s.leader.follower = s.follower
	}
	s.leader, s.follower = nil, nil
	c.publish()
}

// InvalidateStrand drops every cached block of a strand: its sectors
// are returning to the allocator and may be rewritten, under the copies
// as under the views. Streams over the strand are left open; their next
// Get misses and the manager demotes them. The cost is the strand's
// resident span.
func (c *Cache) InvalidateStrand(sid strand.ID) {
	if r := c.strands[sid]; r != nil {
		for r.n > 0 {
			c.removeEntry(r.slots[r.lo&(len(r.slots)-1)])
		}
	}
	c.publish()
}

// Reset empties the cache for a new owner, keeping its frames: every
// stream is dropped and every entry goes onto the free list with its
// frame, so the new owner's inserts allocate nothing the old one's
// already did. Stats restart from zero exactly as a new cache's would
// (an emptied entry is not an eviction); the cumulative observability
// counters, which belong to the registry, take what the old owner
// counted and run on, and the residency gauges drop to zero. Every handle
// reads as an unknown id from here on. The walk is the resident entries
// — the LRU list and the open streams' pin lists — and the records they
// empty, whose rings become spares.
func (c *Cache) Reset() {
	for _, s := range c.streams {
		c.releaseList(s.pins)
		s.rec, s.onNext, s.leader, s.follower, s.pins = nil, nil, nil, nil, entryList{}
	}
	c.releaseList(c.lru)
	for _, r := range c.strands {
		r.n, r.lo, r.hi, r.streams = 0, 0, 0, nil
		c.dropIfIdle(r)
	}
	clear(c.streams)
	c.lru = entryList{}
	c.bytes, c.pinned, c.intervals = 0, 0, 0
	c.publish()
	c.stats, c.published = Stats{}, Stats{}
}

// releaseList empties a list's entries, on Reset, onto the free list.
func (c *Cache) releaseList(l entryList) {
	for e := l.head; e != nil; {
		next := e.next
		e.rec.slots[e.index&(len(e.rec.slots)-1)] = nil
		e.claimant, e.prev, e.rec = nil, nil, nil
		c.release(e)
		e = next
	}
}

// removeEntry unlinks and forgets an entry regardless of pin state,
// keeping the entry and its frame on the free list; a view is let go.
func (c *Cache) removeEntry(e *entry) {
	if e.claimant != nil {
		c.unpin(e)
	} else {
		c.lru.remove(e)
	}
	c.bytes -= int64(len(e.data))
	c.unfile(e)
	c.release(e)
}

// release puts an unlinked entry on the free list, dropping what it
// held: a free entry keeps no view alive and no stale bytes reachable.
func (c *Cache) release(e *entry) {
	e.data, e.lent = nil, false
	e.next, c.free = c.free, e
}

// evictOne drops the least recently used unpinned entry; false when
// only pinned entries remain.
func (c *Cache) evictOne() bool {
	e := c.lru.tail
	if e == nil {
		return false
	}
	c.removeEntry(e)
	c.stats.Evictions++
	return true
}
