package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"mmfs/internal/cache"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// playVideo admits a video-only play of the whole rope on the current
// manager.
func playVideo(t *testing.T, fs *FS, r *rope.Rope) PlayHandle {
	t.Helper()
	h, err := fs.Play("venkat", r.ID, rope.VideoOnly, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatalf("play rope %d: %v", r.ID, err)
	}
	return h
}

// checkCachedFrames reads every block of the rope's video strand the
// cache holds, through a probe stream, and requires it byte for byte the
// block the strand stores. It reports how many it found.
func checkCachedFrames(t *testing.T, fs *FS, c *cache.Cache, r *rope.Rope) int {
	t.Helper()
	plan, err := fs.Ropes().CompilePlay(fs.Disk(), r, rope.VideoOnly, 0, r.Length(), msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	const probe = 1 << 40
	sid := plan.Blocks[0].Reader.Strand().ID()
	c.OpenStream(probe, sid, 0, len(plan.Blocks), plan.Admission.Rate)
	defer c.CloseStream(probe)
	var buf []byte
	found := 0
	for _, b := range plan.Blocks {
		got, res := c.Get(probe, b.Index)
		if res != cache.Hit {
			continue
		}
		found++
		want, _, _, err := b.Reader.ReadBlockInto(0, b.Index, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rope %d: cached block %d is not the strand's block", r.ID, b.Index)
		}
	}
	return found
}

// The cache's frames pass from manager to manager. A retired manager —
// here one still holding a leading play and its cache-served follower,
// whose request ids the next manager's plays reuse — can be run, resumed,
// stopped or dropped: it never panics, and it never again reads or writes
// a frame, so what the next manager's plays find in the cache is what
// their own strands hold.
func TestRetiredManagerCannotTouchTheNextManagersFrames(t *testing.T) {
	fs, err := Format(Options{CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	a := recordClip(t, fs, "venkat", 4, 7100)
	b := recordClip(t, fs, "venkat", 4, 7200)

	// stagger admits a leader, runs it a few rounds ahead, and admits a
	// second play of the same rope, which must come back cache-served.
	stagger := func(r *rope.Rope) (leader, follower PlayHandle) {
		t.Helper()
		mgr := fs.Manager()
		leader = playVideo(t, fs, r)
		for i := 0; i < 3; i++ {
			mgr.RunRound()
		}
		follower = playVideo(t, fs, r)
		if pr, err := mgr.Progress(follower.VideoReq); err != nil || !pr.CacheServed {
			t.Fatalf("second play of rope %d: %+v, %v; want cache-served", r.ID, pr, err)
		}
		mgr.RunRound()
		return leader, follower
	}

	old := fs.NewManager()
	oldLeader, oldFollower := stagger(a)
	if old.Cache() == nil || old.Cache().Stats().Intervals != 1 {
		t.Fatal("the first manager holds no interval to retire")
	}

	mgr := fs.NewManager()
	c := mgr.Cache()
	if old.Cache() != nil {
		t.Fatal("the retired manager still reaches the cache")
	}
	if st := c.Stats(); st != (cache.Stats{Capacity: st.Capacity}) {
		t.Fatalf("the new manager's cache is not empty: %+v", st)
	}
	leader, follower := stagger(b)

	// Drive the retired manager through everything a caller might still
	// do with it, interleaved with the live one's rounds. Its follower
	// lost its feed and was paused out; resuming re-runs admission.
	if pr, err := old.Progress(oldFollower.VideoReq); err != nil || !pr.Paused || pr.CacheServed {
		t.Fatalf("retired follower: %+v, %v; want paused out of the cache", pr, err)
	}
	for i := 0; i < 4; i++ {
		old.RunRound()
		mgr.RunRound()
	}
	if _, err := old.Resume(oldFollower.VideoReq); err != nil {
		t.Fatalf("resuming the retired follower: %v", err)
	}
	old.RunRound()
	if err := old.Stop(oldLeader.VideoReq); err != nil {
		t.Fatal(err)
	}
	old.RunUntilDone()
	if pr, err := old.Progress(oldFollower.VideoReq); err != nil || !pr.Done || pr.BlocksServed != pr.BlocksTotal || pr.CacheHits > 2 {
		t.Fatalf("retired follower after its manager ran on: %+v, %v", pr, err)
	}
	before := c.Stats()
	if before.Streams != 2 || before.Intervals != 1 {
		t.Fatalf("the retired manager's rounds disturbed the live streams: %+v", before)
	}
	if checkCachedFrames(t, fs, c, a) != 0 {
		t.Fatal("the retired manager's strand reached the next manager's frames")
	}
	if checkCachedFrames(t, fs, c, b) == 0 {
		t.Fatal("nothing of the live leader's strand is cached")
	}

	mgr.RunUntilDone()
	for _, h := range []PlayHandle{leader, follower} {
		if n, err := fs.PlayViolations(h); err != nil || n != 0 {
			t.Fatalf("live play: %d violation(s), %v", n, err)
		}
	}
	if pr, _ := mgr.Progress(follower.VideoReq); pr.CacheHits == 0 || pr.CacheHits != pr.BlocksTotal {
		t.Fatalf("live follower: %+v; want every block from the cache", pr)
	}
	checkCachedFrames(t, fs, c, b)
}

// A fill the device lends allocates nothing and copies nothing, on the
// first manager or the next: a play that fills the cache past capacity
// inserts every block as a view of the platters — no frame is ever
// allocated (OwnedBytes stays 0, the whole fill allocates under two
// blocks: the entry records, and the read buffer each manager's serial
// lane grows for the blocks its disk cannot lend) — and the next manager
// starts as cold and inserts as many.
func TestLentFillAllocatesAndCopiesNothing(t *testing.T) {
	fs, err := Format(Options{CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 4, 7300)
	const blockBytes = 3 * 18000 // recordClip's video: 3 frames of 18 000 B a block
	fill := func() (inserts uint64) {
		mgr := fs.NewManager()
		h := playVideo(t, fs, r)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mgr.RunUntilDone()
		runtime.ReadMemStats(&after)
		if n, err := fs.PlayViolations(h); err != nil || n != 0 {
			t.Fatalf("play: %d violation(s), %v", n, err)
		}
		c := mgr.Cache()
		st := c.Stats()
		if st.Evictions == 0 || st.Bytes < 10*blockBytes {
			t.Fatalf("the clip fits the cache (%+v): the fill never recycles an entry", st)
		}
		if st.OwnedBytes != 0 {
			t.Fatalf("a lent fill left the cache owning %d B of frames", st.OwnedBytes)
		}
		c.VisitEntries(func(sid strand.ID, index int, _ []byte, lent bool) {
			if !lent {
				t.Errorf("strand %d block %d was copied", sid, index)
			}
		})
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*blockBytes {
			t.Fatalf("the fill allocated %d B; want the lane's one %d B read buffer and no frame", alloc, blockBytes)
		}
		if got, _ := fs.Metrics().Snapshot().Gauge("mmfs_cache_owned_bytes"); got != 0 {
			t.Fatalf("mmfs_cache_owned_bytes = %d after a lent fill", got)
		}
		checkCachedFrames(t, fs, c, r)
		return st.Inserts
	}
	first := fill()
	if again := fill(); again != first {
		t.Fatalf("second fill inserted %d blocks, first %d: the new manager did not start cold", again, first)
	}
}

// ReorganizeStrand frees a strand's sectors and re-places its blocks
// under a new ID. The old strand's cached blocks must leave with it —
// they name an ID nothing will ever play again, and their sectors are
// about to be rewritten — and the relocated strand must play from the
// cache byte for byte what it stores.
func TestReorganizeDropsCachedBlocks(t *testing.T) {
	fs, err := Format(Options{CacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7500
	r := recordClip(t, fs, "venkat", 3, seed)
	playVideo(t, fs, r)
	fs.Manager().RunUntilDone()
	c := fs.Manager().Cache()
	old := r.Intervals[0].Video.Strand
	blocks := fs.Strands().MustGet(old).NumBlocks()
	if st := c.Stats(); st.Inserts == 0 || st.Bytes == 0 {
		t.Fatalf("the play cached nothing: %+v", st)
	}

	if _, err := fs.ReorganizeStrand(old, 900); err != nil {
		t.Fatal(err)
	}
	const probe = 1 << 40
	c.OpenStream(probe, old, 0, blocks, 10)
	for i := 0; i < blocks; i++ {
		if _, res := c.Get(probe, i); res != cache.Miss {
			t.Fatalf("block %d of the removed strand %d is still cached (%v)", i, old, res)
		}
	}
	c.CloseStream(probe)
	if st := c.Stats(); st.Bytes != 0 || st.PinnedBytes != 0 {
		t.Fatalf("the cache still accounts %d B (%d pinned) for a strand that is gone", st.Bytes, st.PinnedBytes)
	}

	// A leader and its follower over the relocated strand.
	leader := playVideo(t, fs, r)
	for i := 0; i < 3; i++ {
		fs.Manager().RunRound()
	}
	follower := playVideo(t, fs, r)
	fs.Manager().RunUntilDone()
	for _, h := range []PlayHandle{leader, follower} {
		if n, err := fs.PlayViolations(h); err != nil || n != 0 {
			t.Fatalf("play of the relocated strand: %d violation(s), %v", n, err)
		}
	}
	if pr, _ := fs.Manager().Progress(follower.VideoReq); pr.CacheHits == 0 {
		t.Fatalf("the follower was not served from the cache: %+v", pr)
	}
	if checkCachedFrames(t, fs, c, r) == 0 {
		t.Fatal("nothing of the relocated strand is cached")
	}
	frames, err := fs.FetchUnits("venkat", r.ID, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if !bytes.Equal(f, media.FramePayload(seed, uint64(i), len(f))) {
			t.Fatalf("frame %d of the relocated strand is not what was recorded", i)
		}
	}
}

// On a 4-spindle array an AV play runs clean both ways through a round:
// its two strands keep up to two lanes busy, with the cache on feeding it
// from there. (The test once counted
// the goroutines rounds spawned for busy lanes; lanes are swept inline
// now and there is nothing left to count.)
func TestCachedPlaySpawnsNoLanes(t *testing.T) {
	for _, cacheMB := range []int{64, 0} {
		fs, err := Format(Options{Disks: 4, CacheMB: cacheMB})
		if err != nil {
			t.Fatal(err)
		}
		r := recordClip(t, fs, "venkat", 4, 7400)
		mgr := fs.NewManager()
		h, err := fs.Play("venkat", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
		if err != nil {
			t.Fatal(err)
		}
		mgr.RunUntilDone()
		if n, err := fs.PlayViolations(h); err != nil || n != 0 {
			t.Fatalf("cache %d MiB: %d violation(s), %v", cacheMB, n, err)
		}
		st := mgr.Stats()
		if st.Rounds == 0 || st.BlocksFetched == 0 {
			t.Fatalf("cache %d MiB: nothing played: %+v", cacheMB, st)
		}
	}
}

// The interval cache's residency gauges are published once a round, not
// on every hit and insert: after every RunRound — and after the STOP and
// the admission that adopt and close streams between rounds — what
// METRICS reports equals Cache.Stats(). The cache is small enough that
// the leader's blocks are evicted while followers hold pins.
func TestCacheGaugesMatchStatsAfterEveryRound(t *testing.T) {
	fs, err := Format(Options{CacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 8, 7700)
	mgr := fs.Manager()
	c := mgr.Cache()
	check := func(when string) {
		t.Helper()
		snap, st := fs.Metrics().Snapshot(), c.Stats()
		for name, want := range map[string]int64{
			"mmfs_cache_bytes":        st.Bytes,
			"mmfs_cache_pinned_bytes": st.PinnedBytes,
			"mmfs_cache_owned_bytes":  st.OwnedBytes,
			"mmfs_cache_intervals":    int64(st.Intervals),
		} {
			if got, _ := snap.Gauge(name); got != want {
				t.Fatalf("%s: %s = %d, Cache.Stats() says %d", when, name, got, want)
			}
		}
	}
	var plays []PlayHandle
	rounds := 0
	for i := 0; i < 3; i++ {
		plays = append(plays, playVideo(t, fs, r))
		check("after an admission")
		for j := 0; j < 4; j++ {
			mgr.RunRound()
			rounds++
			check(fmt.Sprintf("after round %d", rounds))
		}
	}
	if err := fs.StopPlay(plays[1]); err != nil {
		t.Fatal(err)
	}
	check("after a STOP")
	for mgr.RunRound() {
		rounds++
		check(fmt.Sprintf("after round %d", rounds))
	}
	if st := c.Stats(); st.Hits == 0 || st.Evictions == 0 || st.Adoptions == 0 {
		t.Fatalf("the walk never served a follower, adopted or evicted: %+v", st)
	}
}
