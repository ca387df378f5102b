package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"mmfs/internal/obs"
	"mmfs/internal/strand"
)

const blockSize = 1024

func block(i int) []byte {
	b := make([]byte, blockSize)
	b[0] = byte(i)
	return b
}

// checkInvariants verifies the structural invariants after every
// mutation a test makes: each resident entry is on exactly one of the
// LRU list and one open stream's pin list (pin lists in ascending block
// index, claimants positioned at or before their claimed blocks), free
// entries on neither; the byte accounting; pinned ≤ bytes ≤ capacity;
// and the interval count being the number of leader links.
func checkInvariants(t *testing.T, c *Cache) {
	t.Helper()
	listed := map[*entry]string{}
	walk := func(name string, l entryList, claimant *stream) {
		var prev *entry
		for e := l.head; e != nil; prev, e = e, e.next {
			if where, dup := listed[e]; dup {
				t.Fatalf("entry %v on %s and on %s", e.key, where, name)
			}
			listed[e] = name
			if e.prev != prev {
				t.Fatalf("%s: entry %v has a broken back link", name, e.key)
			}
			if e.claimant != claimant {
				t.Fatalf("%s: entry %v has claimant %v", name, e.key, e.claimant)
			}
			if c.entries[e.key] != e {
				t.Fatalf("%s: entry %v is not resident", name, e.key)
			}
			if claimant != nil && prev != nil && prev.key.index >= e.key.index {
				t.Fatalf("%s: block %d listed before block %d", name, prev.key.index, e.key.index)
			}
		}
		if l.tail != prev {
			t.Fatalf("%s: tail mismatch", name)
		}
	}
	walk("the LRU list", c.lru, nil)
	intervals := 0
	for id, s := range c.streams {
		if s.id != id {
			t.Fatalf("stream %d filed under %d", s.id, id)
		}
		walk(fmt.Sprintf("stream %d's pin list", id), s.pins, s)
		if s.leader != nil {
			intervals++
			if c.streams[s.leader.id] != s.leader || s.leader.follower != s {
				t.Fatalf("stream %d trails a stream that is closed or does not lead it", id)
			}
		}
	}
	if intervals != c.intervals {
		t.Fatalf("intervals = %d, counted %d leader links", c.intervals, intervals)
	}
	var bytes, pinned int64
	for k, e := range c.entries {
		if e.key != k {
			t.Fatalf("entry key %v filed under %v", e.key, k)
		}
		if listed[e] == "" {
			// A pin list reachable from no open stream names a closed one.
			t.Fatalf("resident entry %v (claimant %v) is on no list of an open stream", k, e.claimant)
		}
		bytes += int64(len(e.data))
		if e.claimant != nil {
			pinned += int64(len(e.data))
			if e.key.index < e.claimant.pos {
				t.Fatalf("entry %v pinned for stream %d already past it (pos %d)",
					k, e.claimant.id, e.claimant.pos)
			}
		}
	}
	if len(listed) != len(c.entries) {
		t.Fatalf("%d entries listed, %d resident", len(listed), len(c.entries))
	}
	for e := c.free; e != nil; e = e.next {
		if c.entries[e.key] == e || e.claimant != nil || e.prev != nil || listed[e] != "" {
			t.Fatalf("free-list entry %v still resident, pinned or listed", e.key)
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
	if st := c.Stats(); st.Bytes != bytes || st.PinnedBytes != pinned || st.Intervals != intervals || st.Streams != len(c.streams) {
		t.Fatalf("Stats() = %+v, recomputed bytes=%d pinned=%d intervals=%d", st, bytes, pinned, intervals)
	}
	if c.obsBytes != nil {
		if b, p, n := c.obsBytes.Value(), c.obsPinned.Value(), c.obsIntervals.Value(); b != bytes || p != pinned || n != int64(intervals) {
			t.Fatalf("gauges read bytes=%d pinned=%d intervals=%d, Stats() says %d/%d/%d", b, p, n, bytes, pinned, intervals)
		}
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

// Which blocks survive the evictions that follow a CloseStream must not
// depend on map iteration order: the closed stream's pins go to the LRU
// in ascending block index, lowest nearest the tail.
func TestCloseStreamReleasesPinsInBlockOrder(t *testing.T) {
	const frames = 10
	sid := strand.ID(5)
	survivors := func() string {
		c := New(frames * blockSize)
		c.OpenStream(1, sid, 0, 100, 10)
		for i := 0; i < frames; i++ {
			c.Put(1, i, block(i))
		}
		c.OpenStream(2, sid, 0, 100, 10)
		if !c.Adopt(2) {
			t.Fatal("adopt")
		}
		c.CloseStream(2)
		checkInvariants(t, c)
		for i := frames; i < frames+3; i++ {
			c.Put(1, i, block(i))
		}
		checkInvariants(t, c)
		var got []int
		for i := 0; i < frames+3; i++ {
			if c.entries[blockKey{sid, i}] != nil {
				got = append(got, i)
			}
		}
		return fmt.Sprint(got)
	}
	const want = "[3 4 5 6 7 8 9 10 11 12]"
	for run := 0; run < 32; run++ {
		if got := survivors(); got != want {
			t.Fatalf("run %d: survivors %s, want %s", run, got, want)
		}
	}
}

// A leaderless stream that kept its pins and adopts again can be handed
// gap blocks below them (here 0 and 1, claimed by another chain when it
// first adopted and released since); its pin list stays in block order,
// and so does the order CloseStream releases in.
func TestReadoptionKeepsPinListInBlockOrder(t *testing.T) {
	c := New(32 * blockSize)
	sid := strand.ID(8)
	puts := func(id uint64, from, to int) {
		for i := from; i < to; i++ {
			c.Put(id, i, block(i))
			checkInvariants(t, c)
		}
	}
	// Chain 1 ← 2 at rate 20: stream 2 plays only [0, 2) and claims both.
	c.OpenStream(1, sid, 0, 100, 20)
	puts(1, 0, 2)
	c.OpenStream(2, sid, 0, 2, 20)
	if !c.Adopt(2) {
		t.Fatal("adopt 2")
	}
	puts(1, 2, 4)
	// Chain 3 ← 4 at rate 10: 0 and 1 are taken, so stream 4 pins 2 and 3.
	c.OpenStream(3, sid, 0, 100, 10)
	puts(3, 0, 4)
	c.OpenStream(4, sid, 0, 100, 10)
	if !c.Adopt(4) {
		t.Fatal("adopt 4")
	}
	checkInvariants(t, c)
	for i := 0; i < 2; i++ {
		if _, res := c.Get(2, i); res != Hit {
			t.Fatalf("Get(2, %d): %v", i, res)
		}
	}
	c.CloseStream(3)
	checkInvariants(t, c)
	c.OpenStream(5, sid, 0, 100, 10)
	puts(5, 0, 4)
	if !c.Adopt(4) {
		t.Fatal("re-adopt 4")
	}
	checkInvariants(t, c)
	if st := c.Stats(); st.PinnedBytes != 4*blockSize {
		t.Fatalf("pinned %d bytes, want stream 4 holding blocks 0-3", st.PinnedBytes)
	}
	c.CloseStream(4)
	checkInvariants(t, c)
	for i, e := 0, c.lru.tail; i < 4; i, e = i+1, e.prev {
		if e.key.index != i {
			t.Fatalf("LRU position %d from the tail holds block %d", i, e.key.index)
		}
	}
}

// The residency gauges must say what Stats says after every mutation,
// not only after the next Put, Get or Adopt.
func TestGaugesFollowStats(t *testing.T) {
	c := New(8 * blockSize)
	c.SetObs(obs.NewRegistry())
	sid := strand.ID(2)
	c.OpenStream(1, sid, 0, 100, 10)
	for i := 0; i < 5; i++ {
		c.Put(1, i, block(i))
		checkInvariants(t, c)
	}
	c.OpenStream(2, sid, 0, 100, 10)
	if !c.Adopt(2) {
		t.Fatal("adopt")
	}
	checkInvariants(t, c)
	c.Produced(2, 0)
	checkInvariants(t, c)
	c.CloseStream(2)
	checkInvariants(t, c)
	if st := c.Stats(); st.PinnedBytes != 0 || st.Intervals != 0 || st.Bytes != 5*blockSize {
		t.Fatalf("after the follower closed: %+v", st)
	}
	c.InvalidateStrand(sid)
	checkInvariants(t, c)
	if st := c.Stats(); st.Bytes != 0 {
		t.Fatalf("after invalidation: %+v", st)
	}
	// A leader catching up with blocks an earlier play left resident
	// pins them for its follower as it re-puts them.
	c.OpenStream(9, sid, 5, 100, 10)
	c.Put(9, 5, block(5))
	c.CloseStream(9)
	c.OpenStream(3, sid, 5, 100, 10)
	if !c.Adopt(3) {
		t.Fatal("adopt 3")
	}
	checkInvariants(t, c)
	c.Put(1, 5, block(5))
	checkInvariants(t, c)
	if st := c.Stats(); st.PinnedBytes != blockSize || st.Inserts != 6 {
		t.Fatalf("re-put: %+v, want the one resident block pinned", st)
	}
	c.Reset()
	checkInvariants(t, c)
}

// Reset hands the frames to a new owner: nothing resident, no stream,
// Stats as a new cache's, the cumulative registry counters untouched,
// and refilling allocates nothing.
func TestResetKeepsFramesAndRestartsStats(t *testing.T) {
	const n = 8
	c := New(n * blockSize)
	reg := obs.NewRegistry()
	c.SetObs(reg)
	sid := strand.ID(3)
	fill := func() {
		c.OpenStream(1, sid, 0, 1<<30, 10)
		for i := 0; i < n; i++ {
			c.Put(1, i, block(i))
		}
		c.OpenStream(2, sid, 0, 1<<30, 10)
		if !c.Adopt(2) {
			t.Fatal("adopt")
		}
	}
	fill()
	checkInvariants(t, c)
	c.Reset()
	checkInvariants(t, c)
	if got, want := c.Stats(), New(n*blockSize).Stats(); got != want {
		t.Fatalf("Stats after Reset = %+v, a new cache's are %+v", got, want)
	}
	if v, _ := reg.Snapshot().Counter("mmfs_cache_inserts_total"); v != n {
		t.Fatalf("cumulative insert counter = %d after Reset, want %d", v, n)
	}
	if v, _ := reg.Snapshot().Counter("mmfs_cache_evictions_total"); v != 0 {
		t.Fatalf("Reset counted %d evictions", v)
	}
	c.OpenStream(1, sid, 0, 1<<30, 10)
	data, next := block(0), 0
	if allocs := testing.AllocsPerRun(n-1, func() { c.Put(1, next, data); next++ }); allocs != 0 {
		t.Fatalf("Put after Reset allocates %v times per insert, want 0", allocs)
	}
	checkInvariants(t, c)
	// The old owner's stream ids mean nothing to the new one.
	if _, res := c.Get(2, 0); res != Miss {
		t.Fatalf("a stream dropped by Reset still reads: %v", res)
	}
}

// fuzzBlock is the payload of one block in the random-sequence test:
// its length and every byte follow from the key, so a Hit can be checked
// against what was Put however often the frame was recycled since.
func fuzzBlock(sid strand.ID, index int) []byte {
	b := make([]byte, 256+64*((int(sid)+index)%4))
	for i := range b {
		b[i] = byte(int(sid)*31 + index*7 + i)
	}
	return b
}

// Random operation sequences, every invariant checked after every step.
// Streams are driven the way the storage manager drives them — read at
// the stream's own position, fetch and Put on a miss when leaderless,
// reopen at the position (and perhaps adopt again) when a follower's
// interval broke — and everything else is drawn from the seed: who opens
// where, who adopts, who closes or is invalidated under whom, when the
// cache changes owner.
func TestRandomOperationSequences(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := New(int64(8+rng.Intn(24)) * 320)
			c.SetObs(obs.NewRegistry())
			var hits, adoptions int
			for step := 0; step < 4000; step++ {
				id := uint64(1 + rng.Intn(6))
				s := c.streams[id]
				op := rng.Intn(100)
				switch {
				case op < 6 || (s == nil && op < 60):
					first := rng.Intn(12)
					c.OpenStream(id, strand.ID(1+rng.Intn(2)), first, first+1+rng.Intn(40), float64(10*(1+rng.Intn(2))))
				case s == nil:
					c.Put(id, 0, fuzzBlock(1, 0)) // unknown stream: a no-op
					c.CloseStream(id)
				case op < 70:
					i := s.pos
					data, res := c.Get(id, i)
					switch {
					case res == Hit:
						hits++
						if string(data) != string(fuzzBlock(s.sid, i)) {
							t.Fatalf("step %d: Get(%d, %d) returned another block's bytes", step, id, i)
						}
					case res == Miss && s.leader == nil:
						c.Put(id, i, fuzzBlock(s.sid, i))
					case res == Miss:
						c.OpenStream(id, s.sid, i, s.end, s.rate)
						if rng.Intn(2) == 0 {
							c.Adopt(id)
						}
					}
				case op < 74 && s.pos > 0 && s.leader == nil:
					// A producer re-putting a block behind it.
					i := rng.Intn(s.pos)
					c.Put(id, i, fuzzBlock(s.sid, i))
				case op < 78:
					c.Produced(id, s.pos)
				case op < 90:
					if c.Adopt(id) {
						adoptions++
					}
				case op < 97:
					c.CloseStream(id)
				case op < 99:
					c.InvalidateStrand(s.sid)
				default:
					c.Reset()
				}
				checkInvariants(t, c)
			}
			if hits == 0 || adoptions == 0 {
				t.Fatalf("%d hits, %d adoptions: the sequence checked nothing", hits, adoptions)
			}
		})
	}
}

// One cache-served follower's life beside 1 200 resident frames (64 MiB
// of video blocks): open 8 blocks behind the leader, adopt — 8 pins —
// and close. A pin set can only be closed once, so the open and the
// adoption ride in the op; the close is the part whose cost must follow
// the 8 pins and not the 1 200 frames.
func BenchmarkCacheCloseStream(b *testing.B) {
	const frames, pins = 1200, 8
	c := New(frames * blockSize)
	sid := strand.ID(1)
	c.OpenStream(1, sid, 0, 1<<30, 10)
	for i := 0; i < frames; i++ {
		c.Put(1, i, block(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OpenStream(2, sid, frames-pins, 1<<30, 10)
		if !c.Adopt(2) {
			b.Fatal("adopt")
		}
		c.CloseStream(2)
	}
	b.StopTimer()
	if st := c.Stats(); st.PinnedBytes != 0 || st.Bytes != frames*blockSize {
		b.Fatalf("after the run: %+v", st)
	}
}
