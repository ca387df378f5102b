package core

import (
	"errors"
	"runtime"
	"testing"

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
	w, err := runWalk(walkEntry{shape: walkShape{Disks: 4}, clips: []clip{{clipCBR, 10}, {clipCBR, 60}}}, []step{})
	if err != nil {
		t.Fatal(err)
	}
	fs := w.fs
	short, _ := fs.Ropes().Get(w.ropes[0])
	long, _ := fs.Ropes().Get(w.ropes[1])
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
