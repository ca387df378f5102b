package cache

import (
	"fmt"

	"mmfs/internal/strand"
)

// CheckInvariants verifies the cache's structural invariants, for tests
// and simulation oracles to call after every step: each resident entry
// is on exactly one of the LRU list and one open stream's pin list (pin
// lists in ascending block index, claimants positioned at or before
// their claimed blocks), free entries on neither and holding no bytes;
// the strand index both ways — every resident entry filed under its own
// strand and block index in a span that ends on resident blocks, every
// open stream on exactly its strand's list, no record left with neither,
// every spare ring empty;
// an owned entry's bytes are its frame and a lent entry's are not; the
// byte accounting, modelled and owned; pinned ≤ bytes ≤ capacity; the
// interval count being the number of leader links; the handle filed
// under each id open and this cache's, the unknown-id stand-in closed and
// unlinked; and Stats and — once
// published (PublishGauges) — the gauges saying the same. It reports the
// first violation found.
func CheckInvariants(c *Cache) error {
	if err := checkIndex(c); err != nil {
		return err
	}
	listed := map[*entry]string{}
	walk := func(name string, l entryList, claimant *Stream) error {
		var prev *entry
		for e := l.head; e != nil; prev, e = e, e.next {
			if where, dup := listed[e]; dup {
				return fmt.Errorf("cache: entry %v on %s and on %s", e, where, name)
			}
			listed[e] = name
			if e.prev != prev {
				return fmt.Errorf("cache: %s: entry %v has a broken back link", name, e)
			}
			if e.claimant != claimant {
				return fmt.Errorf("cache: %s: entry %v has claimant %v", name, e, e.claimant)
			}
			if e.rec == nil || c.strands[e.rec.sid] != e.rec || e.rec.at(e.index) != e {
				return fmt.Errorf("cache: %s: entry %v is not resident", name, e)
			}
			if claimant != nil && prev != nil && prev.index >= e.index {
				return fmt.Errorf("cache: %s: block %d listed before block %d", name, prev.index, e.index)
			}
		}
		if l.tail != prev {
			return fmt.Errorf("cache: %s: tail mismatch", name)
		}
		return nil
	}
	if err := walk("the LRU list", c.lru, nil); err != nil {
		return err
	}
	intervals := 0
	for id, s := range c.streams {
		if s.id != id || s.c != c || s.rec == nil {
			return fmt.Errorf("cache: stream %d filed under %d is closed or another cache's", s.id, id)
		}
		if err := walk(fmt.Sprintf("stream %d's pin list", id), s.pins, s); err != nil {
			return err
		}
		if s.leader != nil {
			intervals++
			if c.streams[s.leader.id] != s.leader || s.leader.follower != s {
				return fmt.Errorf("cache: stream %d trails a stream that is closed or does not lead it", id)
			}
		}
	}
	if u := &c.unknown; u.c != c || u.rec != nil || u.leader != nil || u.follower != nil || u.pins.head != nil {
		return fmt.Errorf("cache: the unknown-id stand-in was opened or linked")
	}
	if intervals != c.intervals {
		return fmt.Errorf("cache: intervals = %d, counted %d leader links", c.intervals, intervals)
	}
	var bytes, pinned, owned int64
	resident := 0
	for _, r := range c.strands {
		for _, e := range r.slots {
			if e == nil {
				continue
			}
			resident++
			if listed[e] == "" {
				// A pin list reachable from no open stream names a closed one.
				return fmt.Errorf("cache: resident entry %v (claimant %v) is on no list of an open stream", e, e.claimant)
			}
			if len(e.data) == 0 {
				return fmt.Errorf("cache: resident entry %v holds no bytes", e)
			}
			if isFrame := len(e.data) == len(e.frame) && &e.data[0] == &e.frame[0]; isFrame == e.lent {
				return fmt.Errorf("cache: entry %v: lent=%v but its bytes are its frame: %v", e, e.lent, isFrame)
			}
			bytes += int64(len(e.data))
			owned += int64(cap(e.frame))
			if e.claimant != nil {
				pinned += int64(len(e.data))
				if e.index < e.claimant.pos {
					return fmt.Errorf("cache: entry %v pinned for stream %d already past it (pos %d)",
						e, e.claimant.id, e.claimant.pos)
				}
			}
		}
	}
	if len(listed) != resident {
		return fmt.Errorf("cache: %d entries listed, %d resident", len(listed), resident)
	}
	for e := c.free; e != nil; e = e.next {
		if e.rec != nil || e.claimant != nil || e.prev != nil || listed[e] != "" {
			return fmt.Errorf("cache: free-list entry %v still resident, pinned or listed", e)
		}
		if e.data != nil || e.lent {
			return fmt.Errorf("cache: free-list entry %v still holds bytes", e)
		}
		owned += int64(cap(e.frame))
	}
	if bytes != c.bytes || pinned != c.pinned || owned != c.owned {
		return fmt.Errorf("cache: accounting: have bytes=%d pinned=%d owned=%d, recomputed %d/%d/%d",
			c.bytes, c.pinned, c.owned, bytes, pinned, owned)
	}
	if pinned > c.bytes || c.bytes > c.capacity {
		return fmt.Errorf("cache: capacity invariant violated: pinned=%d bytes=%d capacity=%d",
			pinned, c.bytes, c.capacity)
	}
	if st := c.Stats(); st.Bytes != bytes || st.PinnedBytes != pinned || st.OwnedBytes != owned || st.Intervals != intervals || st.Streams != len(c.streams) {
		return fmt.Errorf("cache: Stats() = %+v, recomputed bytes=%d pinned=%d owned=%d intervals=%d", st, bytes, pinned, owned, intervals)
	}
	if c.obsBytes != nil && !c.unpublished {
		if b, p, o, n := c.obsBytes.Value(), c.obsPinned.Value(), c.obsOwned.Value(), c.obsIntervals.Value(); b != bytes || p != pinned || o != owned || n != int64(intervals) {
			return fmt.Errorf("cache: gauges read bytes=%d pinned=%d owned=%d intervals=%d, Stats() says %d/%d/%d/%d", b, p, o, n, bytes, pinned, owned, intervals)
		}
	}
	return nil
}

// checkIndex verifies the strand index both ways: each record filed
// under its strand, its ring a power of two covering its span, whose
// ends are resident, with exactly n entries each filed under its own
// block index; each open stream on its strand's list exactly once and
// every listed stream open; no record holding neither; spares empty.
func checkIndex(c *Cache) error {
	onList := 0
	for sid, r := range c.strands {
		if r.sid != sid {
			return fmt.Errorf("cache: strand %d's record filed under %d", r.sid, sid)
		}
		if r.n == 0 && r.streams == nil {
			return fmt.Errorf("cache: strand %d's record holds no entry and no stream", sid)
		}
		if l := len(r.slots); l == 0 || l&(l-1) != 0 || l < r.hi-r.lo {
			return fmt.Errorf("cache: strand %d: a ring of %d slots over the span [%d, %d)", sid, l, r.lo, r.hi)
		}
		if r.n > 0 && (r.at(r.lo) == nil || r.at(r.hi-1) == nil) {
			return fmt.Errorf("cache: strand %d: the span [%d, %d) does not end on resident blocks", sid, r.lo, r.hi)
		}
		n := 0
		for _, e := range r.slots {
			if e == nil {
				continue
			}
			n++
			if e.rec != r || r.at(e.index) != e {
				return fmt.Errorf("cache: strand %d files entry %v outside its own key or span [%d, %d)", sid, e, r.lo, r.hi)
			}
		}
		if n != r.n {
			return fmt.Errorf("cache: strand %d: %d entries filed, n = %d", sid, n, r.n)
		}
		for s := r.streams; s != nil; s = s.onNext {
			if c.streams[s.id] != s || s.rec != r {
				return fmt.Errorf("cache: strand %d lists stream %d, which is closed or on another strand", sid, s.id)
			}
			if onList++; onList > len(c.streams) {
				return fmt.Errorf("cache: strand lists hold more than the %d open streams", len(c.streams))
			}
		}
	}
	if onList != len(c.streams) {
		return fmt.Errorf("cache: %d streams on strand lists, %d open", onList, len(c.streams))
	}
	for b, rings := range c.rings {
		for _, ring := range rings {
			if len(ring) != 1<<b {
				return fmt.Errorf("cache: a ring of %d slots kept as a spare of %d", len(ring), 1<<b)
			}
			for _, e := range ring {
				if e != nil {
					return fmt.Errorf("cache: a spare ring still holds entry %v", e)
				}
			}
		}
	}
	return nil
}

// String names the entry's block, for the checks' messages.
func (e *entry) String() string {
	if e.rec == nil {
		return fmt.Sprintf("{free %d}", e.index)
	}
	return fmt.Sprintf("{%d %d}", e.rec.sid, e.index)
}

// VisitEntries calls fn with every resident block — its strand, block
// index, bytes (read-only, valid until fn returns) and whether they are
// a view lent by the device — in no particular order and with no side
// effect on pins, LRU order or statistics.
func (c *Cache) VisitEntries(fn func(sid strand.ID, index int, data []byte, lent bool)) {
	for _, r := range c.strands {
		for i := r.lo; i < r.hi; i++ {
			if e := r.at(i); e != nil {
				fn(r.sid, i, e.data, e.lent)
			}
		}
	}
}
