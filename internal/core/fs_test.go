package core

import (
	"errors"
	"testing"
	"time"

	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/obs"
	"mmfs/internal/rope"
)

// recordClip records a 4-second AV clip (120 frames of video, 40 audio
// units) and returns the rope.
func recordClip(t *testing.T, fs *FS, creator string, seconds int, seed int64) *rope.Rope {
	t.Helper()
	frames := 30 * seconds
	aUnits := 10 * seconds
	sess, err := fs.Record(RecordSpec{
		Creator:            creator,
		Video:              media.NewVideoSource(frames, 18000, 30, seed),
		Audio:              media.NewAudioSource(aUnits, 800, 10, 0.3, 4, seed+1),
		SilenceElimination: true,
	})
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

func TestFormatRecordPlay(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 4, 100)
	if got := r.Length(); got != 4*time.Second {
		t.Fatalf("rope length %v, want 4s", got)
	}
	h, err := fs.Play("venkat", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	fs.Manager().RunUntilDone()
	n, err := fs.PlayViolations(h)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("AV playback had %d continuity violations", n)
	}
}

// Managers come and go over one device (NewManager) and publish into
// one registry and trace ring: the ring's busy column, summed over the
// rounds of both, and the busy counter each move by what the device's
// Stats().BusyTime() moved.
func TestTraceBusyAcrossNewManager(t *testing.T) {
	fs, err := Format(Options{Disks: 4, CacheMB: 16})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 4, 120)
	counter := fs.Metrics().Counter("mmfs_disk_busy_ns_total")
	held, busy, counted := len(fs.Trace().Snapshot()), fs.Disk().Stats().BusyTime(), counter.Value()
	for i := 0; i < 2; i++ {
		if _, err := fs.Play("venkat", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2}); err != nil {
			t.Fatal(err)
		}
		fs.Manager().RunUntilDone()
		if i == 0 {
			fs.NewManager()
		}
	}
	rounds := fs.Trace().Snapshot()
	if len(rounds) == obs.DefaultTraceRounds {
		t.Fatalf("the trace ring is full and may have wrapped")
	}
	var traced int64
	for _, tr := range rounds[held:] {
		traced += tr.DiskBusyNs
	}
	moved := fs.Disk().Stats().BusyTime() - busy
	if moved == 0 || traced != int64(moved) || counter.Value()-counted != uint64(moved) {
		t.Fatalf("the device's busy time moved %v; the trace's busy column sums to %v, the counter moved %v",
			moved, time.Duration(traced), time.Duration(counter.Value()-counted))
	}
}

func TestEditInsertAndPlay(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := recordClip(t, fs, "venkat", 4, 200)
	r2 := recordClip(t, fs, "venkat", 2, 300)

	// Figure 9's INSERT: splice r2's first second into r1 at t=2s.
	res, err := fs.Insert("venkat", r1.ID, 2*time.Second, rope.AudioVisual, r2.ID, 0, time.Second)
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	_ = res
	if got := r1.Length(); got != 5*time.Second {
		t.Fatalf("post-insert length %v, want 5s", got)
	}
	if len(r1.Intervals) < 3 {
		t.Fatalf("insert produced %d intervals, want ≥ 3", len(r1.Intervals))
	}
	h, err := fs.Play("venkat", r1.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatalf("play: %v", err)
	}
	fs.Manager().RunUntilDone()
	if n, _ := fs.PlayViolations(h); n != 0 {
		t.Fatalf("edited rope playback had %d violations", n)
	}
}

func TestSubstringConcatDeleteAndGC(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := recordClip(t, fs, "venkat", 3, 400)
	r2 := recordClip(t, fs, "harrick", 3, 500)

	sub, _, err := fs.Substring("venkat", r1.ID, rope.AudioVisual, time.Second, time.Second)
	if err != nil {
		t.Fatalf("substring: %v", err)
	}
	if sub.Length() != time.Second {
		t.Fatalf("substring length %v", sub.Length())
	}
	cat, _, err := fs.Concate("venkat", sub.ID, r2.ID)
	if err != nil {
		t.Fatalf("concate: %v", err)
	}
	if cat.Length() != 4*time.Second {
		t.Fatalf("concat length %v, want 4s", cat.Length())
	}

	// Strands are shared: deleting r1 must not reclaim its strands
	// while sub still references them.
	strandsBefore := fs.Strands().Len()
	reclaimed, err := fs.DeleteRope("venkat", r1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(reclaimed) != 0 {
		t.Fatalf("reclaimed %v while substring still references them", reclaimed)
	}
	if fs.Strands().Len() != strandsBefore {
		t.Fatalf("strand count changed %d → %d", strandsBefore, fs.Strands().Len())
	}

	// Deleting the substring and the concatenation drops the last
	// interests in r1's strands.
	if _, err := fs.DeleteRope("venkat", sub.ID); err != nil {
		t.Fatal(err)
	}
	reclaimed, err = fs.DeleteRope("venkat", cat.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(reclaimed) == 0 {
		t.Fatal("expected r1's strands to be reclaimed after last reference dropped")
	}
	// r2's strands must survive: r2 itself still exists.
	if _, ok := fs.Ropes().Get(r2.ID); !ok {
		t.Fatal("r2 disappeared")
	}
	for _, iv := range r2.Intervals {
		if iv.Video != nil {
			if _, ok := fs.Strands().Get(iv.Video.Strand); !ok {
				t.Fatal("r2's video strand was wrongly reclaimed")
			}
		}
	}
}

func TestSingleMediumDeletePreservesTiming(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 4, 600)
	if _, err := fs.DeleteRange("venkat", r.ID, rope.AudioOnly, time.Second, 2*time.Second); err != nil {
		t.Fatalf("delete audio range: %v", err)
	}
	if r.Length() != 4*time.Second {
		t.Fatalf("single-medium delete changed length to %v", r.Length())
	}
	// The audio plan must still compile (with a delay gap) and play
	// without violations.
	h, err := fs.Play("venkat", r.ID, rope.AudioOnly, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatalf("play audio: %v", err)
	}
	fs.Manager().RunUntilDone()
	if n, _ := fs.PlayViolations(h); n != 0 {
		t.Fatalf("audio playback with gap had %d violations", n)
	}
}

func TestSyncOpenRoundTrip(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 3, 700)
	ropeID := r.ID
	wantLen := r.Length()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}

	fs2, err := Open(fs.Disk(), fs.Options())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r2, ok := fs2.Ropes().Get(ropeID)
	if !ok {
		t.Fatal("rope lost across sync/open")
	}
	if r2.Length() != wantLen {
		t.Fatalf("reopened rope length %v, want %v", r2.Length(), wantLen)
	}
	if r2.Creator != "venkat" {
		t.Fatalf("creator %q", r2.Creator)
	}
	// Playback must work identically on the reopened file system.
	h, err := fs2.Play("venkat", ropeID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatalf("play after reopen: %v", err)
	}
	fs2.Manager().RunUntilDone()
	if n, _ := fs2.PlayViolations(h); n != 0 {
		t.Fatalf("reopened playback had %d violations", n)
	}
}

// Every read path checks the play list: a user outside PlayAccess is
// refused with ErrAccess and a listed user is admitted. shared carries
// the list; open, which everyone may edit, is the rope edited around it.
func TestAccessControl(t *testing.T) {
	reads := []struct {
		name string
		read func(fs *FS, user string, shared, open rope.ID) error
	}{
		{"Play", func(fs *FS, u string, s, _ rope.ID) error {
			_, err := fs.Play(u, s, rope.VideoOnly, 0, 0, msm.PlanOptions{ReadAhead: 2})
			fs.Manager().RunUntilDone()
			return err
		}},
		{"VisitUnits", func(fs *FS, u string, s, _ rope.ID) error {
			return fs.VisitUnits(u, s, rope.VideoOnly, 0, time.Second, func([]byte) error { return nil })
		}},
		{"Insert", func(fs *FS, u string, s, o rope.ID) error {
			_, err := fs.Insert(u, o, time.Second, rope.AudioVisual, s, 0, time.Second)
			return err
		}},
		{"Replace", func(fs *FS, u string, s, o rope.ID) error {
			_, err := fs.Replace(u, o, rope.AudioVisual, 0, time.Second, s, 0, time.Second)
			return err
		}},
		{"Substring", func(fs *FS, u string, s, _ rope.ID) error {
			_, _, err := fs.Substring(u, s, rope.AudioVisual, 0, time.Second)
			return err
		}},
		{"ConcateFirst", func(fs *FS, u string, s, o rope.ID) error {
			_, _, err := fs.Concate(u, s, o)
			return err
		}},
		{"ConcateSecond", func(fs *FS, u string, s, o rope.ID) error {
			_, _, err := fs.Concate(u, o, s)
			return err
		}},
		{"Triggers", func(fs *FS, u string, s, _ rope.ID) error {
			_, err := fs.Triggers(u, s)
			return err
		}},
	}
	for _, tc := range reads {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := Format(Options{})
			if err != nil {
				t.Fatal(err)
			}
			shared := recordClip(t, fs, "venkat", 2, 800)
			shared.PlayAccess = []string{"harrick"}
			open := recordClip(t, fs, "venkat", 2, 900)
			if err := tc.read(fs, "mallory", shared.ID, open.ID); !errors.Is(err, ErrAccess) {
				t.Fatalf("user outside PlayAccess: err %v, want ErrAccess", err)
			}
			if err := tc.read(fs, "harrick", shared.ID, open.ID); err != nil {
				t.Fatalf("listed user refused: %v", err)
			}
		})
	}
}
