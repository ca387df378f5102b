package msm

import (
	"errors"
	"testing"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/strand"
)

// cacheRigK computes the steady blocks-per-round for a saturated
// homogeneous population of n template requests. Pinning k there up
// front (ForceK) keeps admissions step-free, so every admitted request
// joins the next round and the population really is concurrent.
func cacheRigK(t *testing.T, a continuity.Admission, tmpl continuity.Request, n int) int {
	t.Helper()
	reqs := make([]continuity.Request, n)
	for i := range reqs {
		reqs[i] = tmpl
	}
	k, ok := a.KTransient(reqs)
	if !ok {
		t.Fatalf("no feasible k for n=%d", n)
	}
	return k
}

// stagger admits n plays of the strand, one every interval of
// virtual time, and returns the admitted IDs plus the cache-served and
// rejected counts.
func stagger(rig *testRig, s *strand.Strand, n int, every time.Duration) (ids []RequestID, cached int, rejected int) {
	rig.t.Helper()
	for i := 0; i < n; i++ {
		id, dec, err := rig.tryPlay(rig.m, s, rig.std)
		if err != nil {
			rejected++
		} else {
			ids = append(ids, id)
			if dec.CacheServed {
				cached++
			}
		}
		rig.m.RunFor(every)
	}
	return ids, cached, rejected
}

// TestCacheAdmitsFollowersPastNMax drives the acceptance scenario at
// the manager level: with an interval cache, n_max + 2 staggered plays
// of one strand are all admitted (one disk-bound leader, the rest
// cache-served followers) and complete violation-free; without the
// cache the identical sequence is cut off at n_max.
func TestCacheAdmitsFollowersPastNMax(t *testing.T) {
	rig := newRig(t, shape{})
	tmpl := continuity.Request{
		Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30,
		Scattering: rig.scattering(),
	}
	nmax := rig.m.adm.NMax(tmpl)
	if nmax < 2 {
		t.Fatalf("degenerate n_max = %d", nmax)
	}
	want := nmax + 2
	k := cacheRigK(t, rig.m.adm, tmpl, nmax)
	s := rig.record(take{units: 600, seed: 77})

	rig.m = rig.manager(config{cache: 16 << 20, k: k})
	ids, cached, rejected := stagger(rig, s, want, 400*time.Millisecond)
	if len(ids) != want || rejected != 0 {
		t.Fatalf("admitted %d of %d (rejected %d) with cache", len(ids), want, rejected)
	}
	if cached != want-1 {
		t.Fatalf("cache-served %d of %d admissions, want all but the leader", cached, want)
	}
	if got := rig.m.ActiveRequests(); got != 1 {
		t.Fatalf("disk-bound requests = %d, want 1 (the leader)", got)
	}
	if got := rig.m.CacheServed(); got != want-1 {
		t.Fatalf("CacheServed() = %d, want %d", got, want-1)
	}
	rig.m.RunUntilDone()
	for _, id := range ids {
		v, err := rig.m.Violations(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 0 {
			t.Fatalf("request %d: %d violations, first %+v", id, len(v), v[0])
		}
		p, err := rig.m.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Done || p.BlocksServed != p.BlocksTotal {
			t.Fatalf("request %d incomplete: %+v", id, p)
		}
	}
	st := rig.m.Stats()
	if st.CacheHits == 0 {
		t.Fatal("no cache hits recorded")
	}
	if st.Demotions != 0 {
		t.Fatalf("unexpected demotions: %d", st.Demotions)
	}

	// Control: the identical sequence without a cache stops at n_max.
	rig.m = rig.manager(config{k: k})
	ids, cached, rejected = stagger(rig, s, want, 400*time.Millisecond)
	if len(ids) != nmax || rejected != want-nmax {
		t.Fatalf("admitted %d without cache, want n_max = %d", len(ids), nmax)
	}
	if cached != 0 {
		t.Fatalf("cache-served admissions without a cache: %d", cached)
	}
}

// TestFollowerDemotedWhenLeaderStops breaks the interval mid-play: the
// follower drains the blocks pinned for it, then misses and is demoted
// through full admission to a disk-bound stream, finishing the play
// violation-free.
func TestFollowerDemotedWhenLeaderStops(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 300, seed: 78})
	rig.m = rig.manager(config{cache: 16 << 20})

	ids, cached, rejected := stagger(rig, s, 2, 400*time.Millisecond)
	if len(ids) != 2 || cached != 1 || rejected != 0 {
		t.Fatalf("setup: ids=%d cached=%d rejected=%d", len(ids), cached, rejected)
	}
	leader, follower := ids[0], ids[1]
	rig.m.RunFor(1 * time.Second)
	if err := rig.m.Stop(leader); err != nil {
		t.Fatal(err)
	}
	rig.m.RunUntilDone()

	st := rig.m.Stats()
	if st.Demotions != 1 {
		t.Fatalf("demotions = %d, want 1", st.Demotions)
	}
	if got := rig.m.CacheServed(); got != 0 {
		t.Fatalf("CacheServed() = %d after demotion", got)
	}
	v, err := rig.m.Violations(follower)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("follower had %d violations after demotion, first %+v", len(v), v[0])
	}
	p, err := rig.m.Progress(follower)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done || p.BlocksServed != p.BlocksTotal {
		t.Fatalf("follower incomplete after demotion: %+v", p)
	}
	if p.CacheHits == 0 || p.CacheHits == p.BlocksTotal {
		t.Fatalf("follower cache hits = %d of %d, want a strict mix (cache then disk)", p.CacheHits, p.BlocksTotal)
	}
	if p.CacheServed {
		t.Fatal("follower still reported cache-served")
	}
}

// TestOrphanedFollowersDoNotAdoptEachOther is the demotion-livelock
// regression: two followers orphaned at the same position by a stopped
// leader used to re-adopt each other alternately, each missing in turn,
// with the clock never advancing. A follower that misses again where
// its previous demotion left it must go through full admission. The
// rounds are bounded so a regression fails instead of hanging.
func TestOrphanedFollowersDoNotAdoptEachOther(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 300, seed: 79})
	rig.m = rig.manager(config{cache: 16 << 20})

	ids, cached, rejected := stagger(rig, s, 3, 0)
	if len(ids) != 3 || cached != 2 || rejected != 0 {
		t.Fatalf("setup: ids=%d cached=%d rejected=%d", len(ids), cached, rejected)
	}
	if err := rig.m.Stop(ids[0]); err != nil {
		t.Fatal(err)
	}
	const maxRounds = 10000
	rounds := 0
	for rig.m.RunRound() {
		if rounds++; rounds > maxRounds {
			t.Fatalf("still running after %d rounds at now=%v with %d demotions: orphans re-adopting each other",
				maxRounds, rig.m.Now(), rig.m.Stats().Demotions)
		}
	}
	if d := rig.m.Stats().Demotions; d != 3 {
		t.Fatalf("demotions = %d, want 3 (one futile mutual adoption, then one full admission each)", d)
	}
	for _, id := range ids[1:] {
		p, err := rig.m.Progress(id)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Done || p.BlocksServed != p.BlocksTotal || p.Violations != 0 {
			t.Fatalf("orphaned follower %d: %+v", id, p)
		}
	}
}

// TestFollowerDemotedToPauseWhenDiskSaturated exercises the last rung
// of the demotion ladder: the disk carries a full n_max population
// (the leader among them) when the leader pauses; the follower drains
// its pins, misses, cannot be re-admitted disk-bound, and is
// destructively paused rather than allowed to violate the admitted
// population. Once the disk drains it resumes through admission and
// finishes.
func TestFollowerDemotedToPauseWhenDiskSaturated(t *testing.T) {
	rig := newRig(t, shape{})
	tmpl := continuity.Request{
		Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30,
		Scattering: rig.scattering(),
	}
	nmax := rig.m.adm.NMax(tmpl)
	if nmax < 2 {
		t.Fatalf("degenerate n_max = %d", nmax)
	}
	k := cacheRigK(t, rig.m.adm, tmpl, nmax)
	// Long ropes: every admitted play is re-provisioned to 2k buffers,
	// so rounds move ~2k blocks of virtual time per stream and short
	// ropes would finish during the staggered admissions.
	lead := rig.record(take{units: 900, seed: 200})
	others := make([]*strand.Strand, nmax-1)
	for i := range others {
		others[i] = rig.record(take{units: 600, seed: int64(201 + i)})
	}

	rig.m = rig.manager(config{cache: 32 << 20, k: k})

	ids, cached, rejected := stagger(rig, lead, 2, 400*time.Millisecond)
	if len(ids) != 2 || cached != 1 || rejected != 0 {
		t.Fatalf("setup: ids=%v cached=%d rejected=%d", ids, cached, rejected)
	}
	leader, follower := ids[0], ids[1]
	for i, s := range others {
		ids2, _, rej := stagger(rig, s, 1, 200*time.Millisecond)
		if len(ids2) != 1 || rej != 0 {
			t.Fatalf("saturating admission %d rejected", i)
		}
	}
	if got := rig.m.ActiveRequests(); got != nmax {
		t.Fatalf("disk-bound = %d, want n_max = %d", got, nmax)
	}
	if got := rig.m.CacheServed(); got != 1 {
		t.Fatalf("CacheServed() = %d, want 1", got)
	}

	// The paused leader keeps its admission slot (non-destructive), so
	// the demoted follower faces a full disk and must pause. Pause
	// before the leader can finish prefetching its rope.
	if err := rig.m.Pause(leader, false); err != nil {
		t.Fatal(err)
	}
	rig.m.RunFor(3 * time.Second)
	if d := rig.m.Stats().Demotions; d != 1 {
		t.Fatalf("demotions = %d, want 1", d)
	}
	if got := rig.m.CacheServed(); got != 0 {
		t.Fatalf("CacheServed() = %d after failed demotion", got)
	}
	p, err := rig.m.Progress(follower)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Paused || p.Done {
		t.Fatalf("follower should be destructively paused, got %+v", p)
	}

	// Drain the disk, then the paused follower comes back through
	// admission and completes.
	if _, err := rig.m.Resume(leader); err != nil {
		t.Fatalf("resume leader: %v", err)
	}
	rig.m.RunUntilDone()
	if _, err := rig.m.Resume(follower); err != nil {
		t.Fatalf("resume follower after drain: %v", err)
	}
	rig.m.RunUntilDone()
	p, err = rig.m.Progress(follower)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Done || p.BlocksServed != p.BlocksTotal {
		t.Fatalf("follower incomplete after resume: %+v", p)
	}
}

// TestCacheRejectionIsCleanError keeps the error contract: with the
// cache enabled but unable to help (distinct strands), the n_max+1-th
// admission still reports ErrAdmissionRejected.
func TestCacheRejectionIsCleanError(t *testing.T) {
	rig := newRig(t, shape{})
	tmpl := continuity.Request{
		Name: "video", Granularity: 3, UnitBits: 18000 * 8, Rate: 30,
		Scattering: rig.scattering(),
	}
	nmax := rig.m.adm.NMax(tmpl)
	k := cacheRigK(t, rig.m.adm, tmpl, nmax)
	strands := make([]*strand.Strand, nmax+1)
	for i := range strands {
		strands[i] = rig.record(take{units: 120, seed: int64(300 + i)})
	}
	rig.m = rig.manager(config{cache: 16 << 20, k: k})
	for i, s := range strands {
		_, _, err := rig.tryPlay(rig.m, s, rig.std)
		if i < nmax && err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
		if i == nmax && !errors.Is(err, ErrAdmissionRejected) {
			t.Fatalf("admission %d: err = %v, want ErrAdmissionRejected", i, err)
		}
	}
}
