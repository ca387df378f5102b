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

// checkInvariants fails the test when CheckInvariants finds a fault.
func checkInvariants(t *testing.T, c *Cache) {
	t.Helper()
	if err := CheckInvariants(c); err != nil {
		t.Fatal(err)
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
	if c.Stream(2).Peek(1) != Miss {
		t.Fatal("block 1 should have been evicted first")
	}
	for _, want := range []int{0, 2, 3} {
		if c.Stream(2).Peek(want) != Hit {
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
	if c.Stream(11).Peek(0) != Miss {
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
			if c.strands[sid].at(i) != nil {
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
		if e.index != i {
			t.Fatalf("LRU position %d from the tail holds block %d", i, e.index)
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
	c.Stream(2).Produced(0)
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
// Stats as a new cache's but for the frames it still owns, the cumulative
// registry counters untouched, and refilling through the owning Put
// allocates nothing.
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
	want := New(n * blockSize).Stats()
	want.OwnedBytes = n * blockSize
	if got := c.Stats(); got != want {
		t.Fatalf("Stats after Reset = %+v, want a new cache's and the frames: %+v", got, want)
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

// platter stands in for the device's store: blocks laid end to end, each
// lent as a capacity-clipped slice, the way disk.Device.ReadView lends.
type platter []byte

func newPlatter(blocks int) platter {
	p := make(platter, blocks*blockSize)
	for i := range p {
		p[i] = byte(i/blockSize + i)
	}
	return p
}

func (p platter) view(i int) []byte {
	i %= len(p) / blockSize
	return p[i*blockSize : (i+1)*blockSize : (i+1)*blockSize]
}

// An entry that held a view is recycled like any other. The owning Put
// that refills it — or re-puts the same key — must copy into a frame of
// the cache's own, never through the view onto the platter.
func TestOwningPutAfterViewNeverWritesThePlatter(t *testing.T) {
	p := newPlatter(4)
	pristine := string(p)
	c := New(2 * blockSize)
	c.SetObs(obs.NewRegistry())
	sid := strand.ID(4)
	lead := c.OpenStream(1, sid, 0, 1<<30, 10)
	lead.PutView(0, p.view(0))
	lead.PutView(1, p.view(1))
	checkInvariants(t, c)
	if st := c.Stats(); st.Bytes != 2*blockSize || st.OwnedBytes != 0 {
		t.Fatalf("two views resident: %+v; want their lengths modelled and nothing owned", st)
	}
	other := block(200)
	// At capacity: evicts block 0 and recycles its entry.
	c.Put(1, 2, other)
	checkInvariants(t, c)
	// The same key again, owning this time.
	c.Put(1, 1, other)
	checkInvariants(t, c)
	if string(p) != pristine {
		t.Fatal("an owning Put wrote through a retained view onto the platter")
	}
	c.OpenStream(2, sid, 1, 1<<30, 10)
	for i := 1; i <= 2; i++ {
		if got, res := c.Get(2, i); res != Hit || string(got) != string(other) {
			t.Fatalf("block %d after the owning Put: %v, first byte %d", i, res, got[0])
		}
	}
	if st := c.Stats(); st.OwnedBytes != 2*blockSize {
		t.Fatalf("two owned blocks: OwnedBytes = %d", st.OwnedBytes)
	}
}

// mmfs_cache_owned_bytes is the memory the cache allocated — frames'
// capacities, resident or free — and nothing else: a lent fill leaves it
// at zero however far past capacity it runs, an unlendable fill grows it
// to the residency, and it does not fall when blocks leave (the frames
// wait on the free list) while mmfs_cache_bytes does.
func TestOwnedBytesGaugeCountsFramesNotViews(t *testing.T) {
	const n = 8
	p := newPlatter(3 * n)
	reg := obs.NewRegistry()
	c := New(n * blockSize)
	c.SetObs(reg)
	gauge := func(name string) int64 {
		c.PublishGauges() // what a round's end publishes
		v, _ := reg.Snapshot().Gauge(name)
		return v
	}
	sid := strand.ID(6)
	lead := c.OpenStream(1, sid, 0, 1<<30, 10)
	for i := 0; i < 3*n; i++ {
		lead.PutView(i, p.view(i))
	}
	checkInvariants(t, c)
	if owned, bytes := gauge("mmfs_cache_owned_bytes"), gauge("mmfs_cache_bytes"); owned != 0 || bytes != n*blockSize {
		t.Fatalf("after a lent fill: owned=%d bytes=%d, want 0 and %d", owned, bytes, n*blockSize)
	}
	for i := 3 * n; i < 4*n; i++ {
		c.Put(1, i, block(i))
	}
	checkInvariants(t, c)
	if owned := gauge("mmfs_cache_owned_bytes"); owned != n*blockSize {
		t.Fatalf("after an unlendable fill: owned=%d, want %d", owned, n*blockSize)
	}
	c.InvalidateStrand(sid)
	checkInvariants(t, c)
	if owned, bytes := gauge("mmfs_cache_owned_bytes"), gauge("mmfs_cache_bytes"); owned != n*blockSize || bytes != 0 {
		t.Fatalf("after invalidation: owned=%d bytes=%d, want the frames kept and nothing resident", owned, bytes)
	}
}

// fuzzBlock is the payload of one block in the random-sequence test:
// its length and every byte follow from the key, so a Hit can be checked
// against what was Put however often the entry was recycled since.
func fuzzBlock(sid strand.ID, index int) []byte {
	b := make([]byte, 256+64*((int(sid)+index)%4))
	for i := range b {
		b[i] = byte(int(sid)*31 + index*7 + i)
	}
	return b
}

// fuzzStore lends fuzzBlocks the way a device does: one slice a block,
// the same one every time, that must read the same at the end of the test
// as at the start.
type fuzzStore map[fuzzKey][]byte

type fuzzKey struct {
	sid   strand.ID
	index int
}

func (fs fuzzStore) view(sid strand.ID, index int) []byte {
	k := fuzzKey{sid, index}
	if fs[k] == nil {
		fs[k] = fuzzBlock(sid, index)
	}
	return fs[k][:len(fs[k]):len(fs[k])]
}

// Random operation sequences, every invariant checked after every step.
// Streams are driven the way the storage manager drives them — read at
// the stream's own position, fetch and Put on a miss when leaderless,
// reopen at the position (and perhaps adopt again) when a follower's
// interval broke — and everything else is drawn from the seed: who opens
// where, who adopts, who closes or is invalidated under whom, whether a
// block arrives lent or must be copied, when the cache takes ownership of
// its views, when it changes owner.
func TestRandomOperationSequences(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := New(int64(8+rng.Intn(24)) * 320)
			c.SetObs(obs.NewRegistry())
			store := fuzzStore{}
			put := func(id uint64, sid strand.ID, i int) {
				if rng.Intn(3) == 0 {
					c.Put(id, i, fuzzBlock(sid, i))
				} else {
					c.Stream(id).PutView(i, store.view(sid, i))
				}
			}
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
						if string(data) != string(fuzzBlock(s.rec.sid, i)) {
							t.Fatalf("step %d: Get(%d, %d) returned another block's bytes", step, id, i)
						}
					case res == Miss && s.leader == nil:
						put(id, s.rec.sid, i)
					case res == Miss:
						c.OpenStream(id, s.rec.sid, i, s.end, s.rate)
						if rng.Intn(2) == 0 {
							c.Adopt(id)
						}
					}
				case op < 74 && s.pos > 0 && s.leader == nil:
					// A producer re-putting a block behind it.
					i := rng.Intn(s.pos)
					put(id, s.rec.sid, i)
				case op < 78:
					s.Produced(s.pos)
				case op < 90:
					if c.Adopt(id) {
						adoptions++
					}
				case op < 97:
					c.CloseStream(id)
				case op < 99:
					c.InvalidateStrand(s.rec.sid)
				default:
					c.Reset()
				}
				checkInvariants(t, c)
			}
			for k, b := range store {
				if string(b) != string(fuzzBlock(k.sid, k.index)) {
					t.Fatalf("lent block %v was written to", k)
				}
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

// One arrival of a cache-served follower, the way admission makes it:
// Adoptable decides before the stream exists, then the stream opens 8
// blocks behind its leader, adopts — 8 pins — and, for the next op,
// closes. The cache holds 1 200 resident frames and 200 open streams on
// 200 other strands, each with a block of its own: a leader search
// must cost the strand's streams and the gap, never that population.
func BenchmarkCacheAdopt(b *testing.B) {
	const frames, pins, others = 1200, 8, 200
	c := New(frames * blockSize)
	sid := strand.ID(1)
	c.OpenStream(1, sid, 0, 1<<30, 10)
	for i := 0; i < frames-others; i++ {
		c.Put(1, i, block(i))
	}
	for o := uint64(0); o < others; o++ {
		c.OpenStream(100+o, strand.ID(2+o), 0, 1<<30, 10)
		c.Put(100+o, 0, block(0))
	}
	first := frames - others - pins
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Adoptable(sid, first, 10) {
			b.Fatal("adoptable")
		}
		c.OpenStream(2, sid, first, 1<<30, 10)
		if !c.Adopt(2) {
			b.Fatal("adopt")
		}
		c.CloseStream(2)
	}
	b.StopTimer()
	if st := c.Stats(); st.PinnedBytes != 0 || st.Bytes != frames*blockSize || st.Streams != others+1 {
		b.Fatalf("after the run: %+v", st)
	}
}

// A leader's fill at capacity, the way the storage manager's lane feeds
// the cache a block the device lent: 1 200 resident video blocks (64 MiB
// modelled), every insert evicts the oldest and retains the next view.
// The host cost is bookkeeping: no allocation (CI-gated) and no byte
// copied — copies land only in frames, so a run that ends owning any
// memory copied something, and fails itself.
func BenchmarkCacheFill(b *testing.B) {
	const frames, blockBytes = 1200, 54000
	store := make([]byte, 64*blockBytes)
	view := func(i int) []byte {
		o := i % 64 * blockBytes
		return store[o : o+blockBytes : o+blockBytes]
	}
	c := New(frames * blockBytes)
	s := c.OpenStream(1, strand.ID(1), 0, 1<<30, 10)
	for i := 0; i < frames; i++ {
		s.PutView(i, view(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PutView(frames+i, view(frames+i))
	}
	b.StopTimer()
	st := c.Stats()
	if st.Inserts != uint64(frames+b.N) || st.Evictions != uint64(b.N) || st.Bytes != frames*blockBytes {
		b.Fatalf("after the run: %+v", st)
	}
	b.ReportMetric(float64(st.OwnedBytes)/float64(b.N), "copied_B/op")
	if st.OwnedBytes != 0 {
		b.Fatalf("a lent fill copied into %d B of frames", st.OwnedBytes)
	}
}

// handleRig is the state the handle tests start from: a leader (id 1)
// that has put blocks 0–5 of strand 7 into a 16-block cache, and a
// follower (id 2) adopted at block 0, with their handles.
func handleRig(t *testing.T) (c *Cache, lead, fol *Stream) {
	t.Helper()
	c = New(16 * blockSize)
	lead = c.OpenStream(1, 7, 0, 100, 10)
	for i := 0; i < 6; i++ {
		lead.Put(i, block(i))
	}
	fol = c.OpenStream(2, 7, 0, 100, 10)
	if !fol.Adopt() {
		t.Fatal("the follower found no leader")
	}
	checkInvariants(t, c)
	return c, lead, fol
}

// got names what a Get returned: the block's first byte and the result.
func got(data []byte, res Result) string {
	if data == nil {
		return res.String()
	}
	return fmt.Sprintf("%v %d", res, data[0])
}

// Each handle method and the same method reached by id — the id-keyed
// wrapper where one is kept, Cache.Stream otherwise — do the same: the
// same answer, the same Stats, the same invariants after.
func TestStreamHandlesAreTheirIDs(t *testing.T) {
	for _, tc := range []struct {
		name         string
		handle, byID func(c *Cache, lead, fol *Stream) string
	}{
		{"Get a pinned block",
			func(_ *Cache, _, fol *Stream) string { return got(fol.Get(0)) },
			func(c *Cache, _, _ *Stream) string { return got(c.Get(2, 0)) }},
		{"Get past the leader",
			func(_ *Cache, _, fol *Stream) string { return got(fol.Get(6)) },
			func(c *Cache, _, _ *Stream) string { return got(c.Get(2, 6)) }},
		{"Waiting past the leader",
			func(_ *Cache, _, fol *Stream) string { return fmt.Sprint(fol.Waiting(6)) },
			func(c *Cache, _, _ *Stream) string { _, res := c.Get(2, 6); return fmt.Sprint(res == Wait) }},
		{"Waiting behind the leader",
			func(_ *Cache, _, fol *Stream) string { return fmt.Sprint(fol.Waiting(3)) },
			func(c *Cache, _, _ *Stream) string { return fmt.Sprint(c.Stream(2).Peek(3) == Wait) }},
		{"Get a block not resident",
			func(_ *Cache, lead, _ *Stream) string { return got(lead.Get(40)) },
			func(c *Cache, _, _ *Stream) string { return got(c.Get(1, 40)) }},
		{"Peek",
			func(_ *Cache, lead, fol *Stream) string {
				return fmt.Sprint(fol.Peek(0), fol.Peek(6), lead.Peek(3), lead.Peek(40))
			},
			func(c *Cache, _, _ *Stream) string {
				return fmt.Sprint(c.Stream(2).Peek(0), c.Stream(2).Peek(6), c.Stream(1).Peek(3), c.Stream(1).Peek(40))
			}},
		{"Put",
			func(_ *Cache, lead, fol *Stream) string { lead.Put(6, block(6)); return got(fol.Get(0)) },
			func(c *Cache, _, _ *Stream) string { c.Put(1, 6, block(6)); return got(c.Get(2, 0)) }},
		{"PutView",
			func(_ *Cache, lead, _ *Stream) string { lead.PutView(6, block(6)); return "" },
			func(c *Cache, _, _ *Stream) string { c.Stream(1).PutView(6, block(6)); return "" }},
		{"Produced",
			func(_ *Cache, lead, fol *Stream) string { lead.Produced(6); fol.Produced(0); return "" },
			func(c *Cache, _, _ *Stream) string { c.Stream(1).Produced(6); c.Stream(2).Produced(0); return "" }},
		{"Adopt",
			func(c *Cache, _, _ *Stream) string { return fmt.Sprint(c.OpenStream(3, 7, 0, 100, 10).Adopt()) },
			func(c *Cache, _, _ *Stream) string { c.OpenStream(3, 7, 0, 100, 10); return fmt.Sprint(c.Adopt(3)) }},
		{"Close",
			func(_ *Cache, lead, fol *Stream) string { lead.Close(); return got(fol.Get(0)) },
			func(c *Cache, _, _ *Stream) string { c.CloseStream(1); return got(c.Get(2, 0)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, aLead, aFol := handleRig(t)
			b, bLead, bFol := handleRig(t)
			if ga, gb := tc.handle(a, aLead, aFol), tc.byID(b, bLead, bFol); ga != gb {
				t.Fatalf("by handle %q, by id %q", ga, gb)
			}
			if sa, sb := a.Stats(), b.Stats(); sa != sb {
				t.Fatalf("by handle the stats read %+v, by id %+v", sa, sb)
			}
			checkInvariants(t, a)
			checkInvariants(t, b)
		})
	}
}

// A handle whose stream is gone — closed, reset away, its id reopened —
// reads as an unknown id: every method does what it does reached by an id
// the cache never saw, to the answer and the Stats. Under
// InvalidateStrand the stream stays open but its blocks go, so a read
// behind the leader misses as an unknown id's does.
func TestStaleHandlesReadAsUnknownIDs(t *testing.T) {
	const unknown = 99
	uses := []struct {
		name         string
		handle, byID func(c *Cache, h *Stream) string
	}{
		{"Get", func(_ *Cache, h *Stream) string { return got(h.Get(0)) },
			func(c *Cache, _ *Stream) string { return got(c.Get(unknown, 0)) }},
		{"Peek", func(_ *Cache, h *Stream) string { return h.Peek(0).String() },
			func(c *Cache, _ *Stream) string { return c.Stream(unknown).Peek(0).String() }},
		{"Waiting", func(_ *Cache, h *Stream) string { return fmt.Sprint(h.Waiting(9)) },
			func(c *Cache, _ *Stream) string { return fmt.Sprint(c.Stream(unknown).Peek(9) == Wait) }},
		{"Put", func(_ *Cache, h *Stream) string { h.Put(9, block(9)); return "" },
			func(c *Cache, _ *Stream) string { c.Put(unknown, 9, block(9)); return "" }},
		{"PutView", func(_ *Cache, h *Stream) string { h.PutView(9, block(9)); return "" },
			func(c *Cache, _ *Stream) string { c.Stream(unknown).PutView(9, block(9)); return "" }},
		{"Produced", func(_ *Cache, h *Stream) string { h.Produced(0); return "" },
			func(c *Cache, _ *Stream) string { c.Stream(unknown).Produced(0); return "" }},
		{"Adopt", func(_ *Cache, h *Stream) string { return fmt.Sprint(h.Adopt()) },
			func(c *Cache, _ *Stream) string { return fmt.Sprint(c.Adopt(unknown)) }},
		{"Close", func(_ *Cache, h *Stream) string { h.Close(); return "" },
			func(c *Cache, _ *Stream) string { c.CloseStream(unknown); return "" }},
	}
	for _, stale := range []struct {
		name string
		do   func(c *Cache)
		uses int // how many of uses apply
	}{
		{"closed", func(c *Cache) { c.CloseStream(2) }, len(uses)},
		{"reset", func(c *Cache) { c.Reset() }, len(uses)},
		{"its id reopened", func(c *Cache) { c.OpenStream(2, 7, 0, 100, 10) }, len(uses)},
		{"its strand invalidated", func(c *Cache) { c.InvalidateStrand(7) }, 2},
	} {
		for _, u := range uses[:stale.uses] {
			t.Run(stale.name+"/"+u.name, func(t *testing.T) {
				a, _, aFol := handleRig(t)
				b, _, bFol := handleRig(t)
				stale.do(a)
				stale.do(b)
				if ga, gb := u.handle(a, aFol), u.byID(b, bFol); ga != gb {
					t.Fatalf("the stale handle gives %q, an unknown id %q", ga, gb)
				}
				if sa, sb := a.Stats(), b.Stats(); sa != sb {
					t.Fatalf("after the stale handle the stats read %+v, after an unknown id %+v", sa, sb)
				}
				checkInvariants(t, a)
				checkInvariants(t, b)
			})
		}
	}
}
