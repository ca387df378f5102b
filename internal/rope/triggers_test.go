package rope

import (
	"testing"
	"time"
)

func TestTriggerRoundTrip(t *testing.T) {
	r := newRig(t)
	rp := r.record(t, 4, 60)
	for _, c := range []struct {
		at   time.Duration
		text string
	}{
		{0, "title card"},
		{1500 * time.Millisecond, "slide 2"},
		{3900 * time.Millisecond, "credits"},
	} {
		if err := r.rs.AddTrigger(rp, c.at, c.text); err != nil {
			t.Fatalf("trigger at %v: %v", c.at, err)
		}
	}
	got, err := r.rs.Triggers(rp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d triggers", len(got))
	}
	// Block-level quantization: resolved times land on block
	// boundaries (video q=3 at 30 fps → 100 ms grid) at or below the
	// requested offsets, in order.
	wants := []time.Duration{0, 1500 * time.Millisecond, 3900 * time.Millisecond}
	for i, trig := range got {
		if trig.At > wants[i] || wants[i]-trig.At > 100*time.Millisecond {
			t.Fatalf("trigger %d at %v, want within one block of %v", i, trig.At, wants[i])
		}
	}
	if got[0].Text != "title card" || got[2].Text != "credits" {
		t.Fatalf("texts %v", got)
	}
}

func TestTriggerSurvivesEditing(t *testing.T) {
	r := newRig(t)
	rp := r.record(t, 4, 61)
	if err := r.rs.AddTrigger(rp, 3*time.Second, "late marker"); err != nil {
		t.Fatal(err)
	}
	// Insert a second of content at t=1s: the trigger's interval
	// shifts but its block anchor (and thus the strand-relative
	// moment it marks) stays with the media.
	with := r.record(t, 2, 62)
	if err := r.rs.Insert(rp, time.Second, AudioVisual, with, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	got, err := r.rs.Triggers(rp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d triggers after insert", len(got))
	}
	// The marked media moment moved from 3 s to 4 s of rope time.
	if got[0].At < 3900*time.Millisecond || got[0].At > 4*time.Second {
		t.Fatalf("trigger resolved at %v, want ≈ 4s", got[0].At)
	}
}

func TestTriggerOutOfRange(t *testing.T) {
	r := newRig(t)
	rp := r.record(t, 2, 63)
	if err := r.rs.AddTrigger(rp, 2*time.Second, "x"); err == nil {
		t.Fatal("trigger at rope end accepted")
	}
	if err := r.rs.AddTrigger(rp, -time.Second, "x"); err == nil {
		t.Fatal("negative trigger accepted")
	}
}

func TestTriggerMarshalRoundTrip(t *testing.T) {
	r := newRig(t)
	rp := r.record(t, 2, 64)
	if err := r.rs.AddTrigger(rp, 500*time.Millisecond, "persisted"); err != nil {
		t.Fatal(err)
	}
	data := r.rs.Marshal(nil)
	rs2 := NewStore(r.ss, r.in)
	if err := rs2.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	restored, _ := rs2.Get(rp.ID)
	got, err := rs2.Triggers(restored)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Text != "persisted" {
		t.Fatalf("triggers after restore: %v", got)
	}
}
