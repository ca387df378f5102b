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
// an owned entry's bytes are its frame and a lent entry's are not; the
// byte accounting, modelled and owned; pinned ≤ bytes ≤ capacity; the
// interval count being the number of leader links; and Stats and the
// gauges saying the same. It reports the first violation found.
func CheckInvariants(c *Cache) error {
	listed := map[*entry]string{}
	walk := func(name string, l entryList, claimant *stream) error {
		var prev *entry
		for e := l.head; e != nil; prev, e = e, e.next {
			if where, dup := listed[e]; dup {
				return fmt.Errorf("cache: entry %v on %s and on %s", e.key, where, name)
			}
			listed[e] = name
			if e.prev != prev {
				return fmt.Errorf("cache: %s: entry %v has a broken back link", name, e.key)
			}
			if e.claimant != claimant {
				return fmt.Errorf("cache: %s: entry %v has claimant %v", name, e.key, e.claimant)
			}
			if c.entries[e.key] != e {
				return fmt.Errorf("cache: %s: entry %v is not resident", name, e.key)
			}
			if claimant != nil && prev != nil && prev.key.index >= e.key.index {
				return fmt.Errorf("cache: %s: block %d listed before block %d", name, prev.key.index, e.key.index)
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
		if s.id != id {
			return fmt.Errorf("cache: stream %d filed under %d", s.id, id)
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
	if intervals != c.intervals {
		return fmt.Errorf("cache: intervals = %d, counted %d leader links", c.intervals, intervals)
	}
	var bytes, pinned, owned int64
	for k, e := range c.entries {
		if e.key != k {
			return fmt.Errorf("cache: entry key %v filed under %v", e.key, k)
		}
		if listed[e] == "" {
			// A pin list reachable from no open stream names a closed one.
			return fmt.Errorf("cache: resident entry %v (claimant %v) is on no list of an open stream", k, e.claimant)
		}
		if len(e.data) == 0 {
			return fmt.Errorf("cache: resident entry %v holds no bytes", k)
		}
		if isFrame := len(e.data) == len(e.frame) && &e.data[0] == &e.frame[0]; isFrame == e.lent {
			return fmt.Errorf("cache: entry %v: lent=%v but its bytes are its frame: %v", k, e.lent, isFrame)
		}
		bytes += int64(len(e.data))
		owned += int64(cap(e.frame))
		if e.claimant != nil {
			pinned += int64(len(e.data))
			if e.key.index < e.claimant.pos {
				return fmt.Errorf("cache: entry %v pinned for stream %d already past it (pos %d)",
					k, e.claimant.id, e.claimant.pos)
			}
		}
	}
	if len(listed) != len(c.entries) {
		return fmt.Errorf("cache: %d entries listed, %d resident", len(listed), len(c.entries))
	}
	for e := c.free; e != nil; e = e.next {
		if c.entries[e.key] == e || e.claimant != nil || e.prev != nil || listed[e] != "" {
			return fmt.Errorf("cache: free-list entry %v still resident, pinned or listed", e.key)
		}
		if e.data != nil || e.lent {
			return fmt.Errorf("cache: free-list entry %v still holds bytes", e.key)
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
	if c.obsBytes != nil {
		if b, p, o, n := c.obsBytes.Value(), c.obsPinned.Value(), c.obsOwned.Value(), c.obsIntervals.Value(); b != bytes || p != pinned || o != owned || n != int64(intervals) {
			return fmt.Errorf("cache: gauges read bytes=%d pinned=%d owned=%d intervals=%d, Stats() says %d/%d/%d/%d", b, p, o, n, bytes, pinned, owned, intervals)
		}
	}
	return nil
}

// VisitEntries calls fn with every resident block — its strand, block
// index, bytes (read-only, valid until fn returns) and whether they are
// a view lent by the device — in no particular order and with no side
// effect on pins, LRU order or statistics.
func (c *Cache) VisitEntries(fn func(sid strand.ID, index int, data []byte, lent bool)) {
	for k, e := range c.entries {
		fn(k.sid, k.index, e.data, e.lent)
	}
}
