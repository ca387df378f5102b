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

// blockKey identifies one cached media block.
type blockKey struct {
	sid   strand.ID
	index int
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
	key        blockKey
	data       []byte
	frame      []byte
	lent       bool
	claimant   *stream // non-nil ⇒ pinned: on claimant.pins, off the LRU list
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

// stream is one open play position over a strand. pos is the next
// block index the stream will produce (leader fetching from disk) or
// consume (follower reading from the cache); leader/follower link the
// interval chain L ← F1 ← F2 ordered by descending pos. pins lists the
// entries pinned for the stream in ascending block index, so closing it
// costs its own pins, not a walk of the cache.
type stream struct {
	id               uint64
	sid              strand.ID
	pos              int
	end              int
	rate             float64
	leader, follower *stream
	pins             entryList
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
	entries  map[blockKey]*entry
	streams  map[uint64]*stream
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
	stats Stats
	// obs mirrors the Stats counters into an observability registry;
	// all fields nil, hence inert, when SetObs was never called.
	obsHits, obsMisses, obsWaits      *obs.Counter
	obsInserts, obsEvictions          *obs.Counter
	obsAdoptions                      *obs.Counter
	obsBytes, obsPinned, obsIntervals *obs.Gauge
	obsOwned                          *obs.Gauge
	// unpublished marks residency changes the gauges do not show yet:
	// set by the per-block paths, cleared by PublishGauges.
	unpublished bool
}

// New creates a cache with the given capacity in bytes.
func New(capacity int64) *Cache {
	if capacity < 0 {
		capacity = 0
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[blockKey]*entry),
		streams:  make(map[uint64]*stream),
	}
}

// SetObs mirrors the cache's counters into an observability registry
// (hit/miss/wait lookups, inserts, evictions, interval adoptions, and
// residency gauges). Call once, at wiring time.
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
}

// PublishGauges copies the residency figures (Stats' Bytes,
// PinnedBytes, Intervals and OwnedBytes) into the registry's gauges. The
// per-block paths — Get, Put, PutView, Produced — leave the gauges to
// the storage manager, which publishes them once at the end of every
// service round; the cache's entry points a round never calls alone
// (Adopt and CloseStream, which admission, STOP and PAUSE reach;
// InvalidateStrand; Reset) publish as they return.
func (c *Cache) PublishGauges() {
	c.unpublished = false
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

// OpenStream registers a play position: the stream will touch strand
// blocks [first, end) at the given playback rate (blocks/second class;
// only equality between streams matters). Reopening an id replaces the
// previous registration.
func (c *Cache) OpenStream(id uint64, sid strand.ID, first, end int, rate float64) {
	if _, ok := c.streams[id]; ok {
		c.CloseStream(id)
	}
	c.streams[id] = &stream{id: id, sid: sid, pos: first, end: end, rate: rate}
}

// candidateLeader finds the stream a new follower at [first, …) on sid
// would trail: the hindmost follower-free stream at or ahead of first
// with a compatible rate, provided every gap block [first, leader.pos)
// is resident. Choosing the hindmost minimizes the gap (and therefore
// the pins), and chains followers L ← F1 ← F2 instead of fanning out.
func (c *Cache) candidateLeader(sid strand.ID, first int, rate float64, self *stream) *stream {
	var best *stream
	//lint:ignore boundedwork the streams map is bounded by admission control (Eq. 17's n_max)
	for _, t := range c.streams {
		if t == self || t.sid != sid || t.follower != nil {
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
		if _, ok := c.entries[blockKey{sid, i}]; !ok {
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
	return c.candidateLeader(sid, first, rate, nil) != nil
}

// Adopt attaches the open stream to a leader, pinning the gap blocks
// for it. It reports false when no leader qualifies (the stream then
// runs disk-bound). Between an Adoptable check and the matching Adopt
// the cache must not be mutated; the manager's serial admission path
// guarantees this.
func (c *Cache) Adopt(id uint64) bool {
	if c.capacity <= 0 {
		return false
	}
	s := c.streams[id]
	if s == nil || s.leader != nil {
		return false
	}
	l := c.candidateLeader(s.sid, s.pos, s.rate, s)
	if l == nil {
		return false
	}
	for i := s.pos; i < l.pos; i++ {
		// A block already claimed by another chain's follower keeps
		// that claim; it is resident either way.
		if e := c.entries[blockKey{s.sid, i}]; e.claimant == nil {
			c.pin(s, e)
		}
	}
	s.leader, l.follower = l, s
	c.intervals++
	c.stats.Adoptions++
	c.obsAdoptions.Inc()
	c.PublishGauges()
	return true
}

// Get serves the stream's read of the given block. A Hit advances the
// stream's position and hands down (or releases) the block's pin. A
// Wait means the block is not yet produced by the leader; a Miss means
// the stream has fallen off the cache and must be demoted to disk.
// The returned slice is the entry's bytes — the cache's own frame or a
// view of the device's store: read-only, and valid only until the next
// insert (an eviction recycles the entry).
//
// rt:hotpath
func (c *Cache) Get(id uint64, index int) ([]byte, Result) {
	s := c.streams[id]
	if s == nil {
		c.stats.Misses++
		c.obsMisses.Inc()
		return nil, Miss
	}
	// Never read at or past the leader's position, even if the block
	// is resident (it may be pinned for the leader-as-follower one
	// level up the chain, and consuming it would reorder the chain).
	if s.leader != nil && index >= s.leader.pos {
		c.stats.Waits++
		c.obsWaits.Inc()
		return nil, Wait
	}
	// A follower's next block is the head of its own ascending pin
	// list: found without hashing the key.
	e := s.pins.head
	if e == nil || e.key.index != index {
		e = c.entries[blockKey{s.sid, index}]
	}
	if e == nil {
		c.stats.Misses++
		c.obsMisses.Inc()
		return nil, Miss
	}
	c.consume(s, e)
	c.unpublished = true
	if index >= s.pos {
		s.pos = index + 1
	}
	c.stats.Hits++
	c.obsHits.Inc()
	return e.data, Hit
}

// Peek classifies what Get would return, with no side effects. The
// manager's idle-time scan uses it to skip Wait-blocked streams.
//
// rt:hotpath
func (c *Cache) Peek(id uint64, index int) Result {
	s := c.streams[id]
	if s == nil {
		return Miss
	}
	if s.leader != nil && index >= s.leader.pos {
		return Wait
	}
	// As in Get: a follower's next block heads its pin list.
	if e := s.pins.head; e != nil && e.key.index == index {
		return Hit
	}
	if c.entries[blockKey{s.sid, index}] == nil {
		return Miss
	}
	return Hit
}

// consume handles the pin of a block the stream has read or skipped:
// a claim held for this stream is handed down, any other pin is left
// alone, and an unpinned block is touched.
func (c *Cache) consume(s *stream, e *entry) {
	switch e.claimant {
	case s:
		c.handDown(s, e)
	case nil:
		c.lru.moveFront(e)
	}
}

// wants reports whether the stream (nil for none) has yet to consume the
// block at index.
func (s *stream) wants(index int) bool {
	return s != nil && index >= s.pos && index < s.end
}

// pin claims the resident entry for s: off the LRU list — or, when the
// pin is handed down a chain, off its previous claimant's pin list — and
// onto s's pin list at its place in ascending block index. Streams
// produce and consume in ascending order, so that place is the tail; the
// walk back only runs when a re-adoption fills in below pins s kept.
func (c *Cache) pin(s *stream, e *entry) {
	if e.claimant != nil {
		e.claimant.pins.remove(e)
	} else {
		c.lru.remove(e)
		c.pinned += int64(len(e.data))
	}
	e.claimant = s
	p := s.pins.tail
	for p != nil && p.key.index > e.key.index {
		p = p.prev
	}
	s.pins.insertAfter(p, e)
}

// handDown disposes of a pin held for s, which has read the block or is
// closing: the claim transfers to s's own follower (the next consumer
// in the chain) if it still wants the block, else — at the chain tail —
// the block unpins to the LRU as its most recently used.
func (c *Cache) handDown(s *stream, e *entry) {
	if s.follower.wants(e.key.index) {
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

// Put records a block the stream fetched from disk, making it
// available to followers (pinned if one needs it) or to the plain LRU.
// The stream's position advances past the block either way. data is
// copied into a frame of the cache's own: the insert for bytes that
// will not outlive the caller's next read (the lane's scratch, when the
// device could not lend the block). Bytes lent from the device's store
// go through PutView, which copies nothing.
//
// rt:hotpath
func (c *Cache) Put(id uint64, index int, data []byte) {
	c.insert(id, index, data, false)
}

// PutView is Put for a block the device lent (disk.Lent): the entry
// keeps the view itself — no copy, no frame. The view must stay what it
// is for as long as the entry is resident, which is the caller's to
// arrange: strands are immutable and never relocated, so a view is good
// until its strand is removed (InvalidateStrand, wired to strand.Store's
// removal hook).
//
// rt:hotpath
func (c *Cache) PutView(id uint64, index int, view []byte) {
	c.insert(id, index, view, true)
}

// insert is the one bookkeeping body behind Put and PutView; the two
// differ only in how the entry comes to hold the bytes (hold).
func (c *Cache) insert(id uint64, index int, data []byte, lent bool) {
	s := c.streams[id]
	if s == nil {
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
	key := blockKey{s.sid, index}
	if e := c.entries[key]; e != nil {
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
	e.key = key
	c.hold(e, data, lent)
	c.entries[key] = e
	c.bytes += size
	c.stats.Inserts++
	c.obsInserts.Inc()
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
func (c *Cache) claimOrTouch(s *stream, e *entry) {
	switch {
	case e.claimant != nil:
		// Another chain's claim stands.
	case s.follower.wants(e.key.index):
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
func (c *Cache) Produced(id uint64, index int) {
	s := c.streams[id]
	if s == nil {
		return
	}
	if e := c.entries[blockKey{s.sid, index}]; e != nil && e.claimant == s {
		c.handDown(s, e)
		c.unpublished = true
	}
	if index >= s.pos {
		s.pos = index + 1
	}
}

// CloseStream removes a play position: every block pinned for it is
// handed down to its follower or released to the LRU, and the chain is
// spliced around it (the follower now trails the closed stream's
// leader; the interval survives exactly when the gap blocks remain
// resident, which they do — they were pinned for the follower). Pins
// are released in ascending block index, so the lowest index ends
// nearest the LRU tail and is evicted first: the stream's own reading
// order, the same on every run. The cost is the stream's own pins. Safe
// to call for unknown ids.
func (c *Cache) CloseStream(id uint64) {
	s := c.streams[id]
	if s == nil {
		return
	}
	delete(c.streams, id)
	for e := s.pins.head; e != nil; e = s.pins.head {
		c.handDown(s, e)
	}
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
	c.PublishGauges()
}

// InvalidateStrand drops every cached block of a strand: its sectors
// are returning to the allocator and may be rewritten, under the copies
// as under the views. Streams over the strand are left open; their next
// Get misses and the manager demotes them.
func (c *Cache) InvalidateStrand(sid strand.ID) {
	for k, e := range c.entries {
		if k.sid == sid {
			c.removeEntry(e)
		}
	}
	c.PublishGauges()
}

// Reset empties the cache for a new owner, keeping its frames: every
// stream is dropped and every entry goes onto the free list with its
// frame, so the new owner's inserts allocate nothing the old one's
// already did. Stats restart from zero exactly as a new cache's would
// (an emptied entry is not an eviction); the cumulative observability
// counters, which belong to the registry, run on, and the residency
// gauges drop to zero. The free list's order follows the entries map's;
// nothing reads a free buffer before Put overwrites it.
func (c *Cache) Reset() {
	for _, e := range c.entries {
		e.claimant, e.prev = nil, nil
		c.release(e)
	}
	clear(c.entries)
	clear(c.streams)
	c.lru = entryList{}
	c.bytes, c.pinned, c.intervals = 0, 0, 0
	c.stats = Stats{}
	c.PublishGauges()
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
	delete(c.entries, e.key)
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
	c.obsEvictions.Inc()
	return true
}
