package core

import (
	"encoding/binary"
	"testing"
	"time"

	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// splitAV separates a composite unit as its reader would:
// [u32 video length][frame][audio].
func splitAV(u []byte) (frame, audio []byte) {
	n := binary.LittleEndian.Uint32(u)
	return u[4 : 4+n], u[4+n:]
}

// recordHetero records a heterogeneous-block AV clip.
func recordHetero(t *testing.T, fs *FS, seconds int, seed int64) *rope.Rope {
	t.Helper()
	sess, err := fs.Record(RecordSpec{
		Creator:       "venkat",
		Video:         media.NewVideoSource(30*seconds, 18000, 30, seed),
		Audio:         media.NewAudioSource(15*seconds, 800, 15, 0, 1, seed+1), // 12000 B/s / 30 fps = 400 B per frame
		Heterogeneous: true,
	})
	if err != nil {
		t.Fatalf("heterogeneous record: %v", err)
	}
	fs.Manager().RunUntilDone()
	r, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHeterogeneousRecordPlaySplit(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordHetero(t, fs, 3, 4100)
	if got := r.Length(); got != 3*time.Second {
		t.Fatalf("length %v", got)
	}
	// One strand carries both media.
	if len(r.Strands()) != 1 {
		t.Fatalf("heterogeneous rope references %d strands, want 1", len(r.Strands()))
	}
	s := fs.Strands().MustGet(r.Strands()[0])
	if s.Medium() != layout.Mixed {
		t.Fatalf("medium %v", s.Medium())
	}

	// Playback is a single request: implicit inter-media sync.
	h, err := fs.Play("venkat", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	if h.AudioReq != 0 {
		t.Fatal("heterogeneous playback spawned a second request")
	}
	fs.Manager().RunUntilDone()
	if v, _ := fs.PlayViolations(h); v != 0 {
		t.Fatalf("playback violated %d times", v)
	}

	// Retrieval separates the media: every composite unit splits into
	// the stamped frame and its 400-byte audio share.
	units, err := fs.FetchUnits("venkat", r.ID, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 90 {
		t.Fatalf("%d composite units", len(units))
	}
	for i, u := range units {
		frame, audio := splitAV(u)
		if err := media.ValidateFrameSeq(frame, uint64(i)); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(audio) != 400 {
			t.Fatalf("unit %d audio share %d bytes, want 400", i, len(audio))
		}
	}
}

func TestHeterogeneousSurvivesRemount(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordHetero(t, fs, 2, 4200)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Open(fs.Disk(), fs.Options())
	if err != nil {
		t.Fatal(err)
	}
	units, err := fs2.FetchUnits("venkat", r.ID, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame, _ := splitAV(units[10])
	if err := media.ValidateFrameSeq(frame, 10); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousRequiresBothMedia(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fs.Record(RecordSpec{
		Creator:       "venkat",
		Video:         media.NewVideoSource(30, 18000, 30, 1),
		Heterogeneous: true,
	})
	if err == nil {
		t.Fatal("heterogeneous record without audio accepted")
	}
}

func TestHeterogeneousEditing(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1 := recordHetero(t, fs, 3, 4300)
	r2 := recordHetero(t, fs, 2, 4400)
	if _, err := fs.Insert("venkat", r1.ID, time.Second, rope.AudioVisual, r2.ID, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if r1.Length() != 4*time.Second {
		t.Fatalf("post-insert length %v", r1.Length())
	}
	h, err := fs.Play("venkat", r1.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	if v, _ := fs.PlayViolations(h); v != 0 {
		t.Fatalf("edited heterogeneous rope violated %d times", v)
	}
}
