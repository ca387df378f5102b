package core

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

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
	short, long := recordClip(t, fs, "memo", 10, 1), recordClip(t, fs, "memo", 60, 2)
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

// PlayPlan reads the repeat-play memo as it is held, which is what lets
// the walk's plan oracle hold it to a fresh compile: after an edit, an
// entry forged to match the edited rope's intervals and input but keeping
// the old plan is handed out. DeleteRope drops the rope's entries, and
// fsck finds one left behind.
func TestPlayPlanReadsTheMemo(t *testing.T) {
	fs, err := Format(Options{Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, with := recordClip(t, fs, "memo", 3, 1), recordClip(t, fs, "memo", 2, 2)
	opts := msm.PlanOptions{ReadAhead: 2, Scattering: fs.TargetScattering()}
	before, err := fs.PlayPlan(r, rope.VideoOnly, 0, r.Length(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Insert("memo", r.ID, time.Second, rope.AudioVisual, with.ID, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	r, _ = fs.Ropes().Get(r.ID)
	ivs, err := fs.ropes.PlayIntervals(r, rope.VideoOnly, 0, r.Length())
	if err != nil {
		t.Fatal(err)
	}
	// The mutation: an edit that leaves the memo in place.
	fs.plays[playKey{r.ID, rope.VideoOnly}] = playMemo{ivs: ivs, in: planInput{opts.Speed, opts.Scattering, opts.Skip}, plan: before}
	got, _ := fs.PlayPlan(r, rope.VideoOnly, 0, r.Length(), opts)
	want, err := fs.Ropes().CompilePlay(fs.Disk(), r, rope.VideoOnly, 0, r.Length(), opts)
	if err != nil || reflect.DeepEqual(got, want) || &got.Blocks[0] != &before.Blocks[0] {
		t.Fatalf("a memo an edit left in place: PlayPlan gave %d blocks, the compiler %d (%v); want the held %d", len(got.Blocks), len(want.Blocks), err, len(before.Blocks))
	}
	// The rope's video and audio plans leave with it; fsck finds one left.
	if _, err := fs.PlayPlan(r, rope.AudioOnly, 0, r.Length(), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.DeleteRope("memo", r.ID); err != nil || len(fs.plays) != 0 {
		t.Fatalf("DELETE of rope %d: %v, %d plan(s) left in the memo", r.ID, err, len(fs.plays))
	}
	checkClean(t, fs)
	fs.plays[playKey{r.ID, rope.AudioOnly}] = playMemo{}
	wantProblem(t, fs, "memo")
}
