package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// recordMedia records a rope of the given media for seconds; audio has
// silence eliminated, so its strand carries silence holders.
func recordMedia(t testing.TB, fs *FS, video, audio bool, seconds int, seed int64) *rope.Rope {
	t.Helper()
	spec := RecordSpec{Creator: "memo", SilenceElimination: true}
	if video {
		spec.Video = media.NewVideoSource(30*seconds, 18000, 30, seed)
	}
	if audio {
		spec.Audio = media.NewAudioSource(10*seconds, 800, 10, 0.3, 4, seed+1)
	}
	sess, err := fs.Record(spec)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	fs.Manager().RunUntilDone()
	r, err := sess.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return r
}

// A PLAY that reuses a rope's compiled plan admits exactly the plan a
// fresh compile of the same arguments gives — blocks, admission, header
// fields and map — however the rope was edited since and whatever the
// earlier plays asked for. The catalogue: AV, video-only and audio-only
// ropes (silence holders in the audio), a CONCATE of AV with video-only
// (a gap in its audio), and every edit the walk applies — INSERT and
// REPLACE (smoothing their junctions), DeleteRange, ReorganizeStrand,
// DeleteRope. Each PLAY step compiles every medium with Skip flipped, then
// as asked, then with other per-play options: the last must reuse the
// one before's blocks, so a memo that thrashes between a rope's media
// fails too.
func TestRepeatPlayReusesTheExactPlan(t *testing.T) {
	fs, err := Format(Options{Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	const user = "memo"
	live := []*rope.Rope{
		recordMedia(t, fs, true, true, 3, 11),
		recordMedia(t, fs, true, false, 2, 21),
		recordMedia(t, fs, false, true, 3, 31),
		recordMedia(t, fs, true, true, 2, 41),
	}
	cat, _, err := fs.Concate(user, live[0].ID, live[1].ID)
	if err != nil {
		t.Fatal(err)
	}
	live = append(live, cat)

	rng := rand.New(rand.NewSource(7))
	pick := func() *rope.Rope { return live[rng.Intn(len(live))] }
	// A few ranges and inputs, so that plays repeat often.
	ranges := func(r *rope.Rope) (time.Duration, time.Duration) {
		n := r.Length()
		switch rng.Intn(4) {
		case 0, 1:
			return 0, 0
		case 2:
			return n / 3, 0
		}
		return n / 4, n / 2
	}
	options := func() msm.PlanOptions {
		return msm.PlanOptions{
			Speed:      []float64{0, 1, 2, 0.5, 3}[rng.Intn(5)],
			Skip:       rng.Intn(2) == 0,
			Scattering: []float64{0, fs.TargetScattering()}[rng.Intn(2)],
			ReadAhead:  rng.Intn(4),
			Buffers:    []int{0, 8}[rng.Intn(2)],
			Class:      continuity.Class(rng.Intn(3)),
		}
	}
	type playArgs struct {
		m          rope.Medium
		start, dur time.Duration
		opts       msm.PlanOptions
	}
	last := map[rope.ID]playArgs{}

	// check compiles each medium of a play through the memo, twice, and
	// holds every plan to a fresh compile; then it issues the PLAY.
	plays, hits, admitted := 0, 0, 0
	check := func(step string, r *rope.Rope, a playArgs) {
		t.Helper()
		last[r.ID] = a
		hasVideo, hasAudio := r.Components()
		var media []rope.Medium
		if (a.m == rope.AudioVisual || a.m == rope.VideoOnly) && hasVideo {
			media = append(media, rope.VideoOnly)
		}
		if (a.m == rope.AudioVisual || a.m == rope.AudioOnly) && hasAudio {
			media = append(media, rope.AudioOnly)
		}
		dur := a.dur
		if dur == 0 {
			dur = r.Length() - a.start
		}
		// flip differs from the play in Skip alone — at Speed > 1 another
		// plan — and other in the per-play options alone: the same plan.
		flip, other := a.opts, a.opts
		flip.Skip = !flip.Skip
		other.ReadAhead, other.Buffers, other.Class = 3, 0, continuity.Premium
		firsts := map[rope.Medium]msm.PlayPlan{}
		for pass, opts := range []msm.PlanOptions{flip, a.opts, other} {
			for _, mm := range media {
				where := fmt.Sprintf("%s: rope %d %v [%v +%v] %+v", step, r.ID, mm, a.start, dur, opts)
				got, gerr := fs.playPlan(r, mm, a.start, dur, opts)
				want, werr := fs.Ropes().CompilePlay(fs.Disk(), r, mm, a.start, dur, opts)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("%s: memo error %v, compiler error %v", where, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the memo's plan is not a fresh compile's (%d blocks, admission %+v; want %d, %+v)",
						where, len(got.Blocks), got.Admission, len(want.Blocks), want.Admission)
				}
				if pass < 2 {
					firsts[mm] = got
					continue
				}
				if &got.Blocks[0] != &firsts[mm].Blocks[0] {
					t.Fatalf("%s: a repeat of the same input compiled again", where)
				}
				hits++
			}
		}
		plays++
		h, err := fs.Play(user, r.ID, a.m, a.start, a.dur, a.opts)
		if err != nil {
			if !errors.Is(err, msm.ErrAdmissionRejected) && len(media) > 0 && len(firsts) == len(media) {
				t.Fatalf("%s: play of rope %d: %v", step, r.ID, err)
			}
			return
		}
		admitted++
		for mm, id := range map[rope.Medium]msm.RequestID{rope.VideoOnly: h.VideoReq, rope.AudioOnly: h.AudioReq} {
			if id == 0 {
				continue
			}
			p, err := fs.Manager().Progress(id)
			if err != nil {
				t.Fatal(err)
			}
			if want := firsts[mm]; p.Name != want.Name || p.BlocksTotal != len(want.Blocks) || p.Class != a.opts.Class {
				t.Fatalf("%s: admitted %q (%d blocks, %v), compiled %q (%d blocks, %v)",
					step, p.Name, p.BlocksTotal, p.Class, want.Name, len(want.Blocks), a.opts.Class)
			}
		}
		if rng.Intn(3) == 0 {
			fs.Manager().RunFor(time.Duration(rng.Intn(500)) * time.Millisecond)
		} else if err := fs.StopPlay(h); err != nil {
			t.Fatal(err)
		}
	}
	// replay repeats the rope's last PLAY: after an edit, the same
	// arguments must compile anew.
	replay := func(step string, r *rope.Rope) {
		t.Helper()
		a, ok := last[r.ID]
		if !ok {
			a = playArgs{m: rope.AudioVisual, opts: options()}
		}
		if a.start+a.dur > r.Length() || a.start >= r.Length() {
			a.start, a.dur = 0, 0
		}
		check(step+", replayed", r, a)
	}

	smoothed, deleted := 0, 0
	for step := 0; step < 400; step++ {
		r := pick()
		name := fmt.Sprintf("step %d", step)
		switch c := rng.Intn(20); {
		case c < 13:
			start, dur := ranges(r)
			m := []rope.Medium{rope.AudioVisual, rope.VideoOnly, rope.AudioOnly}[rng.Intn(3)]
			check(name, r, playArgs{m: m, start: start, dur: dur, opts: options()})
		case c == 13:
			with := pick()
			res, err := fs.Insert(user, r.ID, r.Length()/2, rope.AudioVisual, with.ID, 0, min(with.Length(), time.Second))
			if err != nil {
				t.Fatalf("%s: insert: %v", name, err)
			}
			smoothed += res.CopiedBlocks()
			replay(name+" (insert)", r)
		case c == 14:
			with := pick()
			res, err := fs.Replace(user, r.ID, rope.AudioVisual, 0, min(r.Length(), 500*time.Millisecond), with.ID, 0, min(with.Length(), time.Second))
			if err != nil {
				t.Fatalf("%s: replace: %v", name, err)
			}
			smoothed += res.CopiedBlocks()
			replay(name+" (replace)", r)
		case c == 15:
			if r.Length() <= time.Second {
				continue
			}
			if _, err := fs.DeleteRange(user, r.ID, rope.AudioVisual, r.Length()/4, 300*time.Millisecond); err != nil {
				t.Fatalf("%s: delete range: %v", name, err)
			}
			replay(name+" (delete range)", r)
		case c == 16:
			sids := r.Strands()
			if _, err := fs.ReorganizeStrand(sids[rng.Intn(len(sids))], rng.Intn(fs.Disk().Geometry().Cylinders)); err != nil {
				t.Fatalf("%s: reorganize: %v", name, err)
			}
			replay(name+" (reorganize)", r)
		case c == 17 && len(live) > 3:
			if _, err := fs.DeleteRope(user, r.ID); err != nil {
				t.Fatalf("%s: delete rope: %v", name, err)
			}
			deleted++
			for k := range fs.plays {
				if k.rope == r.ID {
					t.Fatalf("%s: rope %d deleted, its %v plan still held", name, r.ID, k.m)
				}
			}
			for i := range live {
				if live[i] == r {
					live = append(live[:i], live[i+1:]...)
					break
				}
			}
		default:
			// Edit an unplayed copy, so a fresh rope joins the catalogue.
			fresh, _, err := fs.Concate(user, r.ID, pick().ID)
			if err != nil {
				t.Fatalf("%s: concate: %v", name, err)
			}
			live = append(live, fresh)
		}
		if len(live) > 8 {
			live = live[len(live)-8:]
		}
	}
	t.Logf("%d plays (%d admitted), %d plans reused, %d blocks smoothed, %d ropes deleted", plays, admitted, hits, smoothed, deleted)
	if smoothed == 0 || deleted == 0 || admitted == 0 || hits == 0 {
		t.Fatalf("the walk smoothed %d blocks, deleted %d ropes, admitted %d of %d plays and reused %d plans: a case went untested",
			smoothed, deleted, admitted, plays, hits)
	}
	if len(fs.plays) > 2*fs.Ropes().Len() {
		t.Fatalf("%d memo entries for %d ropes", len(fs.plays), fs.Ropes().Len())
	}
}

// An arrival costs its decision, not its rope: a repeat PLAY allocates
// the same on a 10 s and on a 60 s rope — when it is admitted (and
// stopped again) and when admission refuses it at saturation — in count
// and in bytes.
func TestArrivalCostIsScaleFree(t *testing.T) {
	if testing.Short() {
		t.Skip("records 70 s of video")
	}
	fs, err := Format(Options{Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	short := recordMedia(t, fs, true, false, 10, 51)
	long := recordMedia(t, fs, true, false, 60, 52)
	opts := msm.PlanOptions{ReadAhead: 2}
	play := func(r *rope.Rope) (PlayHandle, error) {
		return fs.Play("memo", r.ID, rope.VideoOnly, 0, 0, opts)
	}
	const runs = 200
	measure := func(fn func()) (allocs float64, bytes uint64) {
		fn() // warm: the rope's plan is compiled here
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return testing.AllocsPerRun(runs, fn), (after.TotalAlloc - before.TotalAlloc) / runs
	}
	admitted := func(r *rope.Rope) func() {
		return func() {
			h, err := play(r)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.StopPlay(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	// refused saturates the rope's spindles with plays of it, then
	// measures the play admission turns away.
	refused := func(r *rope.Rope) func() {
		for n := 0; ; n++ {
			if _, err := play(r); errors.Is(err, msm.ErrAdmissionRejected) {
				break
			} else if err != nil || n > 1000 {
				t.Fatalf("saturating with rope %d: %d admitted, then %v", r.ID, n, err)
			}
		}
		return func() {
			if _, err := play(r); !errors.Is(err, msm.ErrAdmissionRejected) {
				t.Fatalf("a play at saturation: %v", err)
			}
		}
	}
	for _, tc := range []struct {
		name string
		fn   func(*rope.Rope) func()
	}{{"admitted", admitted}, {"refused", refused}} {
		sa, sb := measure(tc.fn(short))
		fs.NewManager() // drop the saturating plays
		la, lb := measure(tc.fn(long))
		fs.NewManager()
		t.Logf("%s: %v allocs, %d B on the 10 s rope; %v allocs, %d B on the 60 s rope", tc.name, sa, sb, la, lb)
		if sa != la || lb > sb+sb/20 {
			t.Errorf("%s: a play of the 60 s rope allocates %v times, %d B; of the 10 s rope %v times, %d B",
				tc.name, la, lb, sa, sb)
		}
	}
}
