package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"

	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// lateBlock is one CauseLate violation an arrivalWalk saw.
type lateBlock struct {
	epoch, session int
	v              msm.Violation
}

const walkRopes = 40

// walkCatalogue formats a file system of the given shape and records the
// catalogue the walks play: forty 10 s video ropes, through fs.Record.
func walkCatalogue(t *testing.T, opts Options) (*FS, []rope.ID) {
	t.Helper()
	fs, err := Format(opts)
	if err != nil {
		t.Fatal(err)
	}
	var cat []rope.ID
	for i := 0; i < walkRopes; i++ {
		sess, err := fs.Record(RecordSpec{Creator: "venkat", Video: media.NewVideoSource(300, 18000, 30, int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		fs.Manager().RunUntilDone()
		r, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		cat = append(cat, r.ID)
	}
	return fs, cat
}

// arrivalWalk drives the array the way a video server is driven: per
// epoch a fresh storage manager and 30 s of Poisson arrivals (λ = 4/s,
// about twice what the array admits) choosing ropes by Zipf popularity, a
// share of the sessions stopped early. No fault is injected and nothing
// is paused. It returns every late block of every admitted session.
func arrivalWalk(t *testing.T, fs *FS, cat []rope.ID, seed int64, epochs int, stopShare float64) (late []lateBlock, admitted, blocks int) {
	t.Helper()
	const ropes, zipfS, lambda, window = walkRopes, 1.1, 4.0, 30 * time.Second
	var err error
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, ropes-1)
	secs := func(lo, hi float64) time.Duration {
		return time.Duration((lo + rng.Float64()*(hi-lo)) * float64(time.Second))
	}
	type event struct {
		at      time.Duration
		kind    byte // a(rrive), s(top)
		session int
		rope    int
	}
	type session struct {
		h           PlayHandle
		ok, stopped bool
	}
	for ep := 0; ep < epochs; ep++ {
		var evs []event
		n := 0
		for at := time.Duration(0); ; {
			at += time.Duration(rng.ExpFloat64() / lambda * float64(time.Second))
			if at >= window {
				break
			}
			evs = append(evs, event{at, 'a', n, int(zipf.Uint64())})
			if rng.Float64() < stopShare {
				evs = append(evs, event{at + secs(1, 8), 's', n, 0})
			}
			n++
		}
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
		mgr := fs.NewManager()
		sess := make([]session, n)
		live := func(s *session) bool {
			if !s.ok || s.stopped {
				return false
			}
			pr, err := mgr.Progress(s.h.VideoReq)
			return err == nil && !pr.Done
		}
		for _, ev := range evs {
			if d := ev.at - mgr.Now(); d > 0 {
				mgr.RunFor(d)
			}
			s := &sess[ev.session]
			switch ev.kind {
			case 'a':
				s.h, err = fs.Play("venkat", cat[ev.rope], rope.VideoOnly, 0, 0, msm.PlanOptions{ReadAhead: max(2, mgr.K())})
				switch {
				case err == nil:
					s.ok = true
					admitted++
				case !errors.Is(err, msm.ErrAdmissionRejected):
					t.Fatalf("play: %v", err)
				}
			case 's':
				if live(s) {
					if err := fs.StopPlay(s.h); err != nil {
						t.Fatal(err)
					}
					s.stopped = true
				}
			}
		}
		mgr.RunUntilDone()
		for i := range sess {
			s := &sess[i]
			if !s.ok {
				continue
			}
			pr, err := mgr.Progress(s.h.VideoReq)
			if err != nil {
				t.Fatal(err)
			}
			blocks += pr.BlocksServed
			vs, _ := mgr.Violations(s.h.VideoReq)
			for _, v := range vs {
				if v.Cause == msm.CauseLate {
					late = append(late, lateBlock{ep, i, v})
				}
			}
		}
	}
	return late, admitted, blocks
}

// The guarantee on the array (ROADMAP item 1(a)): with no fault injected
// and no PAUSE, no block of an admitted stream is late, at about twice
// the load the array admits. At 4c53fed half of them were: strands walked
// a cylinder a block, off the spindle they were admitted on.
func TestAdmittedStreamsAreOnTimeOnTheArray(t *testing.T) {
	fs, cat := walkCatalogue(t, Options{Disks: 4})
	late, admitted, blocks := arrivalWalk(t, fs, cat, 1, 40, 0.10)
	if admitted < 1000 || blocks < 100*admitted/2 {
		t.Fatalf("the walk admitted %d session(s) and delivered %d block(s): too few to mean anything", admitted, blocks)
	}
	if len(late) > 0 {
		l := late[0]
		t.Fatalf("%d of %d block(s) late; the first: epoch %d session %d block %d by %v",
			len(late), blocks, l.epoch, l.session, l.v.Block, l.v.Actual-l.v.Deadline)
	}
}

// The guarantee on an array with the interval cache: the same walk, with
// and without stops, on a 4-spindle array carrying a 64 MiB cache, plain
// and mirrored. A leader feeding the cache reads on its own spindle's
// lane, the spindle admission charged it to; while leaders rode the
// serial lane, one timeline carried the whole array's disk work and
// about a fifth of the blocks were late (ROADMAP item 13(a)). With a
// 2 MiB cache intervals break often, and a follower that falls back to
// the disk reads with no admission's charge behind it: item 13(b).
func TestAdmittedStreamsAreOnTimeOnTheArrayWithACache(t *testing.T) {
	for _, shape := range []struct {
		name string
		opts Options
		skip string
	}{
		{"cache64MiB", Options{Disks: 4, CacheMB: 64}, ""},
		{"cache64MiB-mirror", Options{Disks: 4, CacheMB: 64, Mirror: true}, ""},
		{"cache2MiB", Options{Disks: 4, CacheMB: 2}, "known residual: a demoted follower's disk reads are uncharged (ROADMAP item 13(b))"},
	} {
		t.Run(shape.name, func(t *testing.T) {
			if shape.skip != "" {
				t.Skip(shape.skip)
			}
			fs, cat := walkCatalogue(t, shape.opts)
			for _, stops := range []float64{0, 0.10} {
				late, admitted, blocks := arrivalWalk(t, fs, cat, 1, 10, stops)
				if cs := fs.Manager().Cache().Stats(); admitted < 1000 || cs.Hits == 0 {
					t.Fatalf("stops %v: the walk admitted %d session(s) and its last epoch hit the cache %d time(s): too few to mean anything", stops, admitted, cs.Hits)
				}
				if len(late) > 0 {
					l := late[0]
					t.Errorf("stops %v: %d of %d block(s) late; the first: epoch %d session %d block %d by %v",
						stops, len(late), blocks, l.epoch, l.session, l.v.Block, l.v.Actual-l.v.Deadline)
				}
			}
		})
	}
}

// The walk that once showed a late block with no fault and no PAUSE: one
// epoch in 400 (seeds 1–400, this one alone). Cause: service-slot drift
// across a k transition. The file system serves a round in arrival order
// (it never selects ScanOrder), so a stream's place in the round is fixed
// but the time of its turn is not: it follows the work of the streams
// ahead of it. Session 7 is admitted at k = 4 and starts its display in a
// round at k = 7 in which its turn comes early; five more streams are
// admitted meanwhile, the next round runs at k = 8 with twelve streams and
// its turn comes late. Both rounds are within Eq. 18's k·γ, but the two
// services were 0.80 s apart and the seven blocks buffered between them
// play for 0.70 s. Eq. 18 bounds a round, not the gap between a stream's
// turns in consecutive rounds when the work ahead of a turn changes.
// Since run reads finish rounds well inside their charge this seed plays
// clean, so lateness no longer detects the drift: ROADMAP item 1(a)'s
// per-turn oracle and item 7's deadline-margin histogram are where it is
// to be taken up.
func TestSlotDriftAcrossAKTransition(t *testing.T) {
	t.Skip("known residual: service-slot drift while k steps up, hidden by run-read slack; see the comment")
	fs, cat := walkCatalogue(t, Options{Disks: 4})
	late, _, _ := arrivalWalk(t, fs, cat, 390, 1, 0.10)
	for _, l := range late {
		t.Errorf("session %d: block %d late by %v", l.session, l.v.Block, l.v.Actual-l.v.Deadline)
	}
}
