package core

import (
	"bytes"
	"testing"
	"time"

	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

func TestFlattenMergesIntervalsAndReclaims(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := recordClip(t, fs, "venkat", 4, 5500)
	other := recordClip(t, fs, "venkat", 2, 5600)

	// Chop the rope up: several inserts and a delete.
	for _, pos := range []time.Duration{time.Second, 3 * time.Second, 5 * time.Second} {
		if _, err := fs.Insert("venkat", base.ID, pos, rope.AudioVisual, other.ID, 0, 500*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.DeleteRange("venkat", base.ID, rope.AudioVisual, 2*time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	lengthBefore := base.Length()
	before := len(base.Intervals)
	if before < 4 {
		t.Fatalf("editing produced only %d intervals", before)
	}
	// Capture the exact pre-flatten content.
	wantVideo, err := fs.FetchUnits("venkat", base.ID, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Retire `other` so only shared references keep its strands alive.
	if _, err := fs.DeleteRope("venkat", other.ID); err != nil {
		t.Fatal(err)
	}
	strandsBefore := fs.Strands().Len()

	res, err := fs.Flatten("venkat", base.ID)
	if err != nil {
		t.Fatalf("flatten: %v", err)
	}
	after := len(base.Intervals)
	if after != 1 {
		t.Fatalf("flatten left %d intervals", after)
	}
	if base.Length() != lengthBefore {
		t.Fatalf("flatten changed length %v → %v", lengthBefore, base.Length())
	}
	if len(res.Reclaimed) == 0 {
		t.Fatal("flatten reclaimed nothing despite exclusive old strands")
	}
	if fs.Strands().Len() >= strandsBefore {
		t.Fatalf("strand count %d → %d; merging should shrink it", strandsBefore, fs.Strands().Len())
	}

	// Content identical.
	gotVideo, err := fs.FetchUnits("venkat", base.ID, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotVideo) != len(wantVideo) {
		t.Fatalf("unit count %d → %d", len(wantVideo), len(gotVideo))
	}
	for i := range gotVideo {
		if !bytes.Equal(gotVideo[i], wantVideo[i]) {
			t.Fatalf("unit %d differs after flatten", i)
		}
	}

	// Playback clean, fsck clean.
	h, err := fs.Play("venkat", base.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	if v, _ := fs.PlayViolations(h); v != 0 {
		t.Fatalf("flattened playback violated %d times", v)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if problems := fs.Check(); len(problems) != 0 {
		t.Fatalf("fsck after flatten: %v", problems)
	}
}

func TestFlattenPreservesGapsAsSilence(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 3, 5700)
	if _, err := fs.DeleteRange("venkat", r.ID, rope.AudioOnly, time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Flatten("venkat", r.ID); err != nil {
		t.Fatal(err)
	}
	units, err := fs.FetchUnits("venkat", r.ID, rope.AudioOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 30 {
		t.Fatalf("%d audio units", len(units))
	}
	// The middle second reads as silence fill.
	for i := 10; i < 20; i++ {
		for _, b := range units[i] {
			if b != 128 {
				t.Fatalf("gap unit %d not silence after flatten", i)
			}
		}
	}
}

func TestFlattenRejectsVariableRate(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := fs.Record(RecordSpec{
		Creator: "venkat",
		Video:   media.NewVBRVideoSource(60, 8192, 2048, 10, 30, 5800),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	r, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Flatten("venkat", r.ID); err == nil {
		t.Fatal("flatten of VBR strand accepted")
	}
}
