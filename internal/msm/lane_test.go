package msm

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/strand"
)

// roundProbe is a device that calls back at the top of every service
// round, transition rounds included: the manager ticks it as it does a
// fault layer's round clock (after the round's demotions and joins,
// before its service).
type roundProbe struct {
	disk.Device
	onRound func()
}

func (p *roundProbe) AdvanceRound() { p.onRound() }

// followerLedger checks, round by round, that the device's read count
// moves only by the blocks of requests that held a disk slot when the
// round's service began, that a request that was cache-served then
// received nothing but cache hits, and that one still waiting for its k
// received nothing at all. (Video strands only: no silence.)
type followerLedger struct {
	t     *testing.T
	r     *testRig // its manager and disk
	reads uint64
	was   map[*request][3]int // nextFetch, cacheHits, 1 if cache-served, 2 if waiting
	// waiting counts rounds that began with a demoted follower waiting
	// for the k its re-admission needs.
	waiting int
}

func (l *followerLedger) settle() {
	l.t.Helper()
	var fromDisk uint64
	for r, w := range l.was {
		blocks, hits := r.play.nextFetch-w[0], r.play.cacheHits-w[1]
		if w[2] == 1 && blocks != hits {
			l.t.Fatalf("request %d was cache-served when the round began and received %d block(s), only %d from the cache", r.id, blocks, hits)
		}
		if w[2] == 2 && blocks != 0 {
			l.t.Fatalf("request %d was waiting for its k when the round began and received %d block(s)", r.id, blocks)
		}
		fromDisk += uint64(blocks - hits)
	}
	reads := l.r.d.Stats().Reads
	if got := reads - l.reads; got != fromDisk {
		l.t.Fatalf("the device served %d read(s) in a round whose disk-bound requests received %d block(s) from it", got, fromDisk)
	}
	l.reads = reads
	clear(l.was)
	for _, r := range l.r.m.reqs {
		if r.kind != Play || r.done {
			continue
		}
		state := 0
		switch {
		case r.cacheServed:
			state = 1
		case r.pendingK > 0:
			state = 2
			if r.demotedAt > 0 && r.pause == nil {
				l.waiting++
			}
		}
		l.was[r] = [3]int{r.play.nextFetch, r.play.cacheHits, state}
	}
}

// TestFollowerNeverReadsTheDisk walks a seeded interleaving of
// admissions, stops, both kinds of pause, resumes and rounds over a small
// cache (so intervals break and followers demote through transition
// rounds), with the ledger checking every round; then the two corners by
// construction: a demoted follower waiting across the transition rounds
// its re-admission scheduled, and a follower whose cache stream is closed.
func TestFollowerNeverReadsTheDisk(t *testing.T) {
	// A rig with the strands recorded, the ledger on its rounds and a
	// fresh manager with a cache of cacheBytes.
	probed := func(t *testing.T, cacheBytes int64, frames ...int) (*testRig, *followerLedger, []*strand.Strand) {
		led := &followerLedger{t: t, was: map[*request][3]int{}}
		rig := newRig(t, shape{probe: led.settle})
		led.r = rig
		var strands []*strand.Strand
		for i, f := range frames {
			strands = append(strands, rig.record(take{units: f, seed: int64(600 + i)}))
		}
		rig.m = rig.manager(config{cache: cacheBytes})
		return rig, led, strands
	}
	t.Run("seeded walk", func(t *testing.T) {
		rig, led, strands := probed(t, 3<<20, 450, 300, 240)
		rng := rand.New(rand.NewSource(20))
		var live []RequestID
		pick := func() (RequestID, bool) {
			if len(live) == 0 {
				return 0, false
			}
			return live[rng.Intn(len(live))], true
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				s := strands[0]
				if rng.Intn(3) == 0 {
					s = strands[1+rng.Intn(2)]
				}
				if id, _, err := rig.tryPlay(rig.m, s, rig.std); err == nil {
					live = append(live, id)
				}
			case op == 3:
				if id, ok := pick(); ok {
					_ = rig.m.Stop(id) // stopping a finished request is fine
				}
			case op == 4:
				if id, ok := pick(); ok {
					_ = rig.m.Pause(id, rng.Intn(2) == 0) // may be done or paused already
				}
			case op == 5:
				if id, ok := pick(); ok {
					_, _ = rig.m.Resume(id) // may be running, or rejected
				}
			default:
				for i := rng.Intn(6); i >= 0; i-- {
					rig.m.RunRound()
				}
			}
		}
		for _, id := range live {
			if p, _ := rig.m.Progress(id); p.Paused {
				_ = rig.m.Stop(id)
			}
		}
		rig.m.RunUntilDone()
		led.settle()
		st := rig.m.Stats()
		if st.CacheHits == 0 || st.Demotions == 0 || st.TransitionSteps == 0 {
			t.Fatalf("the walk never exercised followers, demotions and transition rounds: %+v", st)
		}
	})

	t.Run("pending demotion across transition rounds", func(t *testing.T) {
		rig, led, strands := probed(t, 16<<20, 450, 450, 450)
		admit := func(s *strand.Strand, wantCached bool) RequestID {
			id, dec, err := rig.tryPlay(rig.m, s, rig.std)
			if err != nil || dec.CacheServed != wantCached {
				t.Fatalf("admit: cache-served=%v err=%v, want cache-served=%v", dec.CacheServed, err, wantCached)
			}
			return id
		}
		leader := admit(strands[0], false)
		rig.m.RunFor(300 * time.Millisecond)
		f1 := admit(strands[0], true)
		rig.m.RunFor(300 * time.Millisecond)
		f2 := admit(strands[0], true)
		admit(strands[1], false)
		rig.m.RunFor(300 * time.Millisecond)
		// Both followers keep their place while paused; with the leader gone
		// neither finds one on resume (f2 first: f1's stream is still
		// closed; then f1: f2 is behind it), so both are flagged, and f1's
		// re-admission — the third disk-bound stream the manager has ever
		// carried at once, so it raises k — waits out its transition rounds
		// without a block, from the disk or anywhere else.
		for _, id := range []RequestID{f1, f2} {
			if err := rig.m.Pause(id, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := rig.m.Stop(leader); err != nil {
			t.Fatal(err)
		}
		admit(strands[2], false)
		for _, id := range []RequestID{f2, f1} {
			if _, err := rig.m.Resume(id); err != nil {
				t.Fatal(err)
			}
		}
		rig.m.RunUntilDone()
		led.settle()
		if led.waiting == 0 {
			t.Fatalf("no transition round ran with a demoted follower waiting for its k (stats %+v)", rig.m.Stats())
		}
	})

	t.Run("closed cache stream", func(t *testing.T) {
		rig, led, strands := probed(t, 16<<20, 300)
		if _, _, err := rig.tryPlay(rig.m, strands[0], rig.std); err != nil {
			t.Fatal(err)
		}
		rig.m.RunFor(300 * time.Millisecond)
		id, dec, err := rig.tryPlay(rig.m, strands[0], rig.std)
		if err != nil || !dec.CacheServed {
			t.Fatalf("admit follower: %+v, %v", dec, err)
		}
		r, err := rig.m.find(id)
		if err != nil {
			t.Fatal(err)
		}
		rig.m.closeCacheStream(r)
		reads, misses, at := rig.d.Stats().Reads, rig.m.Cache().Stats().Misses, r.play.nextFetch
		if rig.m.serial.serviceRequest(r, 4) {
			t.Fatal("a follower with a closed cache stream reported work")
		}
		if got := rig.d.Stats().Reads; got != reads {
			t.Fatalf("the follower reached the device: %d read(s)", got-reads)
		}
		if !r.needsDemote || r.play.nextFetch != at || rig.m.Cache().Stats().Misses != misses+1 {
			t.Fatalf("want one cache miss, no delivery and a pending demotion: needsDemote=%v nextFetch %d→%d misses %d→%d",
				r.needsDemote, at, r.play.nextFetch, misses, rig.m.Cache().Stats().Misses)
		}
		rig.m.RunUntilDone()
		led.settle()
	})
}

// TestSerialLaneJoinsTheClock pins how a round's time is joined: the
// serial lane starts no earlier than any parallel lane ended, and the
// clock ends the round where the serial lane did — further only by an
// idle jump to the next request's work.
func TestSerialLaneJoinsTheClock(t *testing.T) {
	const p, stripe = 4, 120
	rig := newRig(t, shape{spindles: p, stripe: stripe})
	for sp := 0; sp < p; sp++ {
		rig.play(rig.write(take{units: 60 * (sp + 1), seed: int64(700 + sp), spindle: sp, pin: true}), rig.std)
	}
	rig.play(rig.write(take{units: 240, seed: 710, cyl: 112}), rig.std) // crosses stripe groups
	if _, _, err := rig.m.AdmitRecord(rig.recording(take{units: 300, seed: 712, spindle: 3, cyl: 60})); err != nil {
		t.Fatal(err)
	}

	parallel, serialOnly, idle := 0, 0, 0
	for more := true; more; {
		before := rig.m.Stats()
		more = rig.m.RunRound()
		after, now, serial := rig.m.Stats(), rig.m.Now(), rig.m.serial.at
		if after.Rounds == before.Rounds {
			continue // nothing was active
		}
		busy := false
		for _, ln := range rig.m.lanes {
			if ln.at > serial {
				t.Fatalf("round %d: lane %d ended at %v, after the serial lane's %v", after.Rounds, ln.spindle, ln.at, serial)
			}
			busy = busy || len(ln.reqs) > 0
		}
		if jump := after.IdleTime - before.IdleTime; now != serial+jump {
			t.Fatalf("round %d: clock at %v, serial lane ended at %v and the idle jump was %v", after.Rounds, now, serial, jump)
		} else if jump > 0 {
			idle++
		}
		if busy {
			parallel++
		} else {
			serialOnly++
		}
	}
	if parallel == 0 || serialOnly == 0 || idle == 0 {
		t.Fatalf("rounds with busy parallel lanes %d, serial only %d, idle jumps %d: want all three", parallel, serialOnly, idle)
	}
}

// TestFollowerTakesOneBlockAtATime pins what ROADMAP item 1(a) is to
// change on purpose, not by accident. A disk-bound play reads a run of
// blocks a step; a cache-served follower takes its blocks one at a time
// — so a Wait ends its turn with every earlier hit already delivered,
// and each delivered block is exactly one cache hit — and a load-shed
// stride it carries is ignored: it plays every block, at full rate, and
// sheds none.
func TestFollowerTakesOneBlockAtATime(t *testing.T) {
	for _, stride := range []int{1, 2} {
		t.Run(fmt.Sprintf("stride %d", stride), func(t *testing.T) { followerOneAtATime(t, stride) })
	}
}

func followerOneAtATime(t *testing.T, stride int) {
	const p = 4
	rig := newRig(t, shape{})
	s := rig.record(take{units: 450, seed: 620})
	rig.m = rig.manager(config{cache: 16 << 20, k: p})
	c := rig.m.Cache()
	opts := PlanOptions{ReadAhead: p, Buffers: 2 * p, Scattering: rig.scattering()}
	rig.play(s, opts)
	rig.m.RunFor(300 * time.Millisecond)
	// Room for more blocks than the leader is ahead by: the follower
	// catches it up and waits.
	opts.Buffers = 8 * p
	follower, dec, err := rig.tryPlay(rig.m, s, opts)
	if err != nil || !dec.CacheServed {
		t.Fatalf("second play of the strand: cache-served %v, err %v", dec.CacheServed, err)
	}
	fr, err := rig.m.find(follower)
	if err != nil {
		t.Fatal(err)
	}
	fr.play.stride, fr.play.strideBase = stride, fr.play.nextFetch

	waits := c.Stats().Waits
	for more := true; more; {
		blocks, hits := fr.play.nextFetch, fr.play.cacheHits
		more = rig.m.RunRound()
		if blocks, hits = fr.play.nextFetch-blocks, fr.play.cacheHits-hits; blocks != hits {
			t.Fatalf("round %d: the follower received %d block(s) for %d cache hit(s)", rig.m.Stats().Rounds, blocks, hits)
		}
	}
	if c.Stats().Waits == waits {
		t.Fatal("the follower never caught its leader up: no turn ended on a Wait")
	}
	pr, err := rig.m.Progress(follower)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Done || !pr.CacheServed || pr.BlocksServed != pr.BlocksTotal || pr.CacheHits != pr.BlocksTotal {
		t.Fatalf("follower: %+v, want every block served from the cache", pr)
	}
	if pr.Stride != stride || pr.ShedBlocks != 0 {
		t.Fatalf("follower carries stride %d and shed %d block(s), want stride %d ignored", pr.Stride, pr.ShedBlocks, stride)
	}
	if got := c.Stats().Hits; got != uint64(pr.BlocksTotal) {
		t.Fatalf("the cache counted %d hit(s) for the %d blocks it delivered", got, pr.BlocksTotal)
	}
}
