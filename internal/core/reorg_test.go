package core

import (
	"testing"
	"time"

	"mmfs/internal/media"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

func TestReorganizeStrandPreservesDataAndRopes(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 3, 7700)
	oldVideo := r.Intervals[0].Video.Strand

	relocated, err := fs.ReorganizeStrand(oldVideo, 900)
	if err != nil {
		t.Fatal(err)
	}
	if relocated.ID() == oldVideo {
		t.Fatal("relocation must mint a new strand ID")
	}
	if _, ok := fs.Strands().Get(oldVideo); ok {
		t.Fatal("old strand still registered")
	}
	// The rope now references the relocated strand.
	if r.Intervals[0].Video.Strand != relocated.ID() {
		t.Fatalf("rope still references %d", r.Intervals[0].Video.Strand)
	}
	// Interests moved with it.
	if fs.interests.Count(relocated.ID()) != 1 {
		t.Fatal("interest not transferred")
	}
	if fs.interests.Count(oldVideo) != 0 {
		t.Fatal("stale interest on removed strand")
	}
	// Data survives, and playback is still continuous.
	units, err := fs.FetchUnits("venkat", r.ID, rope.VideoOnly, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		if err := media.ValidateFrameSeq(u, uint64(i)); err != nil {
			t.Fatalf("frame %d after relocation: %v", i, err)
		}
	}
	h, err := fs.Play("venkat", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	if v, _ := fs.PlayViolations(h); v != 0 {
		t.Fatalf("post-relocation playback violated %d times", v)
	}
}

func TestReorganizeUnknownStrand(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReorganizeStrand(999, 0); err == nil {
		t.Fatal("unknown strand accepted")
	}
}

func TestCompactConsolidatesFreeSpace(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Churn: several clips, delete alternating ones.
	var ropes []*rope.Rope
	for i := 0; i < 6; i++ {
		ropes = append(ropes, recordClip(t, fs, "venkat", 2, int64(8000+i)))
	}
	for i := 0; i < len(ropes); i += 2 {
		if _, err := fs.DeleteRope("venkat", ropes[i].ID); err != nil {
			t.Fatal(err)
		}
	}
	used := fs.Allocator().TotalSectors() - fs.Allocator().FreeSectors()

	rep, err := fs.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Moved == 0 {
		t.Fatal("compact moved nothing")
	}
	// Allocation conservation: compaction must not change usage.
	usedAfter := fs.Allocator().TotalSectors() - fs.Allocator().FreeSectors()
	if usedAfter != used {
		t.Fatalf("compact changed usage %d → %d", used, usedAfter)
	}
	// The surviving ropes still play.
	for i := 1; i < len(ropes); i += 2 {
		h, err := fs.Play("venkat", ropes[i].ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
		if err != nil {
			t.Fatalf("rope %d: %v", ropes[i].ID, err)
		}
		fs.Manager().RunUntilDone()
		if v, _ := fs.PlayViolations(h); v != 0 {
			t.Fatalf("rope %d violated %d times after compact", ropes[i].ID, v)
		}
	}
	// And their content is intact.
	units, err := fs.FetchUnits("venkat", ropes[1].ID, rope.VideoOnly, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		if err := media.ValidateFrameSeq(u, uint64(i)); err != nil {
			t.Fatalf("frame %d after compact: %v", i, err)
		}
	}
}
