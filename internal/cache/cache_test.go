package cache

import (
	"fmt"
	"testing"

	"mmfs/internal/strand"
)

const blockSize = 1024

func block(i int) []byte {
	b := make([]byte, blockSize)
	b[0] = byte(i)
	return b
}

// checkInvariants verifies the structural invariants after every
// mutation a test makes: byte accounting, pinned ⊆ resident, pinned ≤
// bytes ≤ capacity, LRU list consistency, and claimants being open
// streams positioned at or before their claimed blocks.
func checkInvariants(t *testing.T, c *Cache) {
	t.Helper()
	var bytes, pinned int64
	onLRU := map[blockKey]bool{}
	for e := c.head; e != nil; e = e.next {
		if e.claimant != nil {
			t.Fatalf("pinned entry %v on LRU list", e.key)
		}
		if e.next == nil && c.tail != e {
			t.Fatalf("LRU tail mismatch")
		}
		onLRU[e.key] = true
	}
	for k, e := range c.entries {
		if e.key != k {
			t.Fatalf("entry key %v filed under %v", e.key, k)
		}
		bytes += int64(len(e.data))
		if e.claimant != nil {
			pinned += int64(len(e.data))
			if c.streams[e.claimant.id] != e.claimant {
				t.Fatalf("entry %v claimed by closed stream %d", k, e.claimant.id)
			}
			if e.key.index < e.claimant.pos {
				t.Fatalf("entry %v pinned for stream %d already past it (pos %d)",
					k, e.claimant.id, e.claimant.pos)
			}
		} else if !onLRU[k] {
			t.Fatalf("unpinned entry %v not on LRU list", k)
		}
	}
	for e := c.free; e != nil; e = e.next {
		if c.entries[e.key] == e || e.claimant != nil || e.prev != nil {
			t.Fatalf("free-list entry %v still resident, pinned or LRU-linked", e.key)
		}
	}
	if bytes != c.bytes || pinned != c.pinned {
		t.Fatalf("accounting: have bytes=%d pinned=%d, recomputed %d/%d",
			c.bytes, c.pinned, bytes, pinned)
	}
	if pinned > c.bytes || c.bytes > c.capacity {
		t.Fatalf("capacity invariant violated: pinned=%d bytes=%d capacity=%d",
			pinned, c.bytes, c.capacity)
	}
}

func TestIntervalFormationAndConsumption(t *testing.T) {
	c := New(16 * blockSize)
	sid := strand.ID(7)
	c.OpenStream(1, sid, 0, 100, 10)
	for i := 0; i < 4; i++ {
		c.Put(1, i, block(i))
		checkInvariants(t, c)
	}

	// A second play of the same range adopts the leader; the 4-block
	// gap gets pinned for it.
	if !c.Adoptable(sid, 0, 10) {
		t.Fatal("follower not adoptable despite resident gap")
	}
	c.OpenStream(2, sid, 0, 100, 10)
	if !c.Adopt(2) {
		t.Fatal("Adopt failed after Adoptable")
	}
	checkInvariants(t, c)
	if got := c.Stats().Intervals; got != 1 {
		t.Fatalf("intervals = %d, want 1", got)
	}
	if c.pinned != 4*blockSize {
		t.Fatalf("pinned = %d, want %d", c.pinned, 4*blockSize)
	}

	// The follower consumes the gap: hits, pins released.
	for i := 0; i < 4; i++ {
		data, res := c.Get(2, i)
		if res != Hit || data[0] != byte(i) {
			t.Fatalf("Get(2, %d) = %v", i, res)
		}
		checkInvariants(t, c)
	}
	if c.pinned != 0 {
		t.Fatalf("pinned = %d after consumption, want 0", c.pinned)
	}

	// At the leader's position the follower must wait, not miss.
	if _, res := c.Get(2, 4); res != Wait {
		t.Fatalf("Get at leader position = %v, want Wait", res)
	}
	// Leader produces; follower is unblocked.
	c.Put(1, 4, block(4))
	checkInvariants(t, c)
	if c.pinned != blockSize {
		t.Fatalf("produced block not pinned for follower: pinned=%d", c.pinned)
	}
	if _, res := c.Get(2, 4); res != Hit {
		t.Fatalf("Get after production = %v, want Hit", res)
	}
	checkInvariants(t, c)
}

func TestChainedFollowersHandDownPins(t *testing.T) {
	c := New(16 * blockSize)
	sid := strand.ID(3)
	c.OpenStream(1, sid, 0, 50, 10)
	for i := 0; i < 3; i++ {
		c.Put(1, i, block(i))
	}
	c.OpenStream(2, sid, 0, 50, 10)
	if !c.Adopt(2) {
		t.Fatal("first follower not adopted")
	}
	// The second follower must chain behind the hindmost stream (2),
	// not fan out behind the leader.
	c.OpenStream(3, sid, 0, 50, 10)
	if !c.Adopt(3) {
		t.Fatal("second follower not adopted")
	}
	checkInvariants(t, c)
	if c.streams[3].leader != c.streams[2] {
		t.Fatal("follower 3 should trail follower 2")
	}

	// Stream 2 consuming a block hands its pin to stream 3 (still
	// pinned), and only stream 3's consumption releases it.
	before := c.pinned
	if _, res := c.Get(2, 0); res != Hit {
		t.Fatal("stream 2 should hit")
	}
	checkInvariants(t, c)
	if c.pinned != before {
		t.Fatalf("pin released too early: %d -> %d", before, c.pinned)
	}
	if _, res := c.Get(3, 0); res != Hit {
		t.Fatal("stream 3 should hit")
	}
	checkInvariants(t, c)
	if c.pinned != before-blockSize {
		t.Fatalf("pin not released at chain tail: %d", c.pinned)
	}
	// Stream 3 may not overtake stream 2.
	if _, res := c.Get(3, 1); res != Wait {
		t.Fatal("stream 3 should wait for stream 2")
	}
}

func TestPinsNeverExceedCapacity(t *testing.T) {
	const cap = 8
	c := New(cap * blockSize)
	sid := strand.ID(1)
	c.OpenStream(1, sid, 0, 1000, 10)
	c.Put(1, 0, block(0))
	c.OpenStream(2, sid, 0, 1000, 10)
	if !c.Adopt(2) {
		t.Fatal("adopt")
	}
	// The leader races far ahead while the follower never consumes:
	// inserts beyond capacity are refused rather than growing the pin
	// set, and the invariant holds throughout.
	for i := 1; i < 4*cap; i++ {
		c.Put(1, i, block(i))
		checkInvariants(t, c)
	}
	if c.pinned > c.capacity {
		t.Fatalf("pinned %d exceeds capacity %d", c.pinned, c.capacity)
	}
	// The follower drains what was pinned, then misses on the refused
	// inserts — the manager would demote it here.
	i := 0
	for ; ; i++ {
		data, res := c.Get(2, i)
		checkInvariants(t, c)
		if res != Hit {
			break
		}
		if data[0] != byte(i) {
			t.Fatalf("block %d corrupt", i)
		}
	}
	if i == 0 {
		t.Fatal("follower should consume the pinned prefix")
	}
	if _, res := c.Get(2, i); res != Miss {
		t.Fatalf("expected Miss after pinned prefix, got %v", res)
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	c := New(3 * blockSize)
	sid := strand.ID(9)
	c.OpenStream(1, sid, 0, 100, 10)
	c.Put(1, 0, block(0))
	c.Put(1, 1, block(1))
	c.Put(1, 2, block(2))
	// Touch block 0 so block 1 becomes the LRU victim.
	c.OpenStream(2, sid, 0, 100, 10)
	if _, res := c.Get(2, 0); res != Hit {
		t.Fatal("expected hit on block 0")
	}
	c.Put(1, 3, block(3))
	checkInvariants(t, c)
	if c.Peek(2, 1) != Miss {
		t.Fatal("block 1 should have been evicted first")
	}
	for _, want := range []int{0, 2, 3} {
		if c.Peek(2, want) != Hit {
			t.Fatalf("block %d should be resident", want)
		}
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestCloseStreamSplicesChain(t *testing.T) {
	c := New(32 * blockSize)
	sid := strand.ID(4)
	c.OpenStream(1, sid, 0, 50, 10)
	for i := 0; i < 6; i++ {
		c.Put(1, i, block(i))
	}
	c.OpenStream(2, sid, 0, 50, 10)
	if !c.Adopt(2) {
		t.Fatal("adopt 2")
	}
	for i := 0; i < 2; i++ {
		if _, res := c.Get(2, i); res != Hit {
			t.Fatal("hit")
		}
	}
	c.OpenStream(3, sid, 0, 50, 10)
	if !c.Adopt(3) {
		t.Fatal("adopt 3")
	}
	checkInvariants(t, c)

	// Closing the middle stream hands its pins to its follower and
	// splices the chain: 3 now trails 1 directly.
	c.CloseStream(2)
	checkInvariants(t, c)
	if c.streams[3].leader != c.streams[1] {
		t.Fatal("chain not spliced around closed stream")
	}
	if c.streams[1].follower != c.streams[3] {
		t.Fatal("leader's follower not updated")
	}
	// Stream 3 can now consume everything up to the leader's position.
	for i := 0; i < 6; i++ {
		if _, res := c.Get(3, i); res != Hit {
			t.Fatalf("Get(3, %d) after splice: %v", i, res)
		}
		checkInvariants(t, c)
	}
	if _, res := c.Get(3, 6); res != Wait {
		t.Fatal("stream 3 should wait on spliced leader")
	}

	// Closing the leader leaves 3 leaderless: residual blocks hit from
	// plain LRU, then a Miss (demotion point), never a Wait.
	c.CloseStream(1)
	checkInvariants(t, c)
	c.Put(1, 99, block(99)) // unknown stream: must be a no-op
	if _, res := c.Get(3, 6); res != Miss {
		t.Fatal("leaderless stream past residency should miss")
	}
}

func TestInvalidateStrandDropsPinnedBlocks(t *testing.T) {
	c := New(32 * blockSize)
	sidA, sidB := strand.ID(1), strand.ID(2)
	c.OpenStream(1, sidA, 0, 50, 10)
	c.OpenStream(10, sidB, 0, 50, 10)
	for i := 0; i < 4; i++ {
		c.Put(1, i, block(i))
		c.Put(10, i, block(i))
	}
	c.OpenStream(2, sidA, 0, 50, 10)
	if !c.Adopt(2) {
		t.Fatal("adopt")
	}
	c.InvalidateStrand(sidA)
	checkInvariants(t, c)
	if c.pinned != 0 {
		t.Fatalf("pinned = %d after invalidate", c.pinned)
	}
	if _, res := c.Get(2, 0); res != Miss {
		t.Fatal("invalidated block should miss")
	}
	if c.Peek(11, 0) != Miss {
		t.Fatal("unknown stream should miss")
	}
	// The other strand is untouched.
	c.OpenStream(11, sidB, 0, 50, 10)
	if !c.Adoptable(sidB, 0, 10) {
		t.Fatal("strand B should still be adoptable")
	}
}

func TestAdoptionRefusedCases(t *testing.T) {
	c := New(8 * blockSize)
	sid := strand.ID(5)
	if c.Adoptable(sid, 0, 10) {
		t.Fatal("empty cache adoptable")
	}
	c.OpenStream(1, sid, 0, 100, 10)
	for i := 0; i < 12; i++ {
		c.Put(1, i, block(i))
	}
	// The leader outran the capacity: the gap from 0 is no longer
	// resident, so a new play from the start must run disk-bound.
	if c.Adoptable(sid, 0, 10) {
		t.Fatal("adoptable despite evicted gap")
	}
	// …but a play starting inside the resident window can follow.
	if !c.Adoptable(sid, 8, 10) {
		t.Fatal("not adoptable inside resident window")
	}
	// Rate mismatch breaks the interval (FF/slow-motion play).
	if c.Adoptable(sid, 8, 20) {
		t.Fatal("adoptable across rate mismatch")
	}
	// A zero-capacity cache never adopts.
	z := New(0)
	z.OpenStream(1, sid, 0, 10, 10)
	if z.Adoptable(sid, 0, 10) || z.Adopt(1) {
		t.Fatal("zero-capacity cache adopted")
	}
}

func TestStatsSnapshot(t *testing.T) {
	c := New(4 * blockSize)
	sid := strand.ID(6)
	c.OpenStream(1, sid, 0, 10, 10)
	c.Put(1, 0, block(0))
	c.OpenStream(2, sid, 0, 10, 10)
	if !c.Adopt(2) {
		t.Fatal("adopt")
	}
	if _, res := c.Get(2, 0); res != Hit {
		t.Fatal("hit")
	}
	if _, res := c.Get(2, 1); res != Wait {
		t.Fatal("wait")
	}
	c.CloseStream(1)
	if _, res := c.Get(2, 1); res != Miss {
		t.Fatal("miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Waits != 1 || st.Misses != 1 || st.Inserts != 1 || st.Adoptions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Streams != 1 || st.Intervals != 0 {
		t.Fatalf("population stats = %+v", st)
	}
	for i, want := range []string{"miss", "hit", "wait"} {
		if got := fmt.Sprint(Result(i)); got != want {
			t.Fatalf("Result(%d) = %q", i, got)
		}
	}
}

// A cache at capacity inserts by evicting one block and refilling its
// entry and buffer: no allocation, no change to the byte accounting,
// and resident blocks keep their own bytes.
func TestPutAtCapacityRecyclesEvictedBuffers(t *testing.T) {
	const n = 8
	c := New(n * blockSize)
	sid := strand.ID(3)
	c.OpenStream(1, sid, 0, 1<<30, 10)
	next := 0
	for ; next < n; next++ {
		c.Put(1, next, block(next))
	}
	data := block(0)
	allocs := testing.AllocsPerRun(500, func() {
		data[0] = byte(next)
		c.Put(1, next, data)
		next++
	})
	if allocs != 0 {
		t.Fatalf("Put at capacity allocates %v times per insert, want 0", allocs)
	}
	checkInvariants(t, c)
	st := c.Stats()
	if st.Bytes != n*blockSize || st.Evictions != st.Inserts-n {
		t.Fatalf("bytes=%d evictions=%d inserts=%d after %d inserts into %d slots",
			st.Bytes, st.Evictions, st.Inserts, next, n)
	}
	c.OpenStream(2, sid, next-n, 1<<30, 10)
	for i := next - n; i < next; i++ {
		got, res := c.Get(2, i)
		if res != Hit || got[0] != byte(i) {
			t.Fatalf("block %d: %v, first byte %d", i, res, got[0])
		}
	}

	// Invalidation feeds the free list too; its bytes are not resident.
	c.InvalidateStrand(sid)
	checkInvariants(t, c)
	if st := c.Stats(); st.Bytes != 0 || st.PinnedBytes != 0 {
		t.Fatalf("bytes=%d pinned=%d after invalidating everything", st.Bytes, st.PinnedBytes)
	}
	if allocs := testing.AllocsPerRun(n-1, func() { c.Put(1, next, data); next++ }); allocs != 0 {
		t.Fatalf("Put after invalidation allocates %v times per insert, want 0", allocs)
	}
	checkInvariants(t, c)
}
