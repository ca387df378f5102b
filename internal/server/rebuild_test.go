package server

import (
	"strings"
	"testing"

	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/media"
	"mmfs/internal/rope"
)

// TestRebuildOp exercises the REBUILD wire op end to end: a rope is
// recorded on a mirrored array, a spindle is declared dead, the remote
// rebuild restores it to Healthy, and the rope still plays cleanly.
func TestRebuildOp(t *testing.T) {
	srv, c, _ := serve(t, core.Options{Disks: 4, Mirror: true}, nil)
	fs := srv.fs
	video := media.NewVideoSource(60, 18000, 30, 4242)
	id, _, err := c.RecordClip("venkat", video, nil, false)
	if err != nil {
		t.Fatalf("record: %v", err)
	}

	// Rebuilding a healthy spindle must be refused, not silently no-op.
	if _, _, err := c.Rebuild(1); err == nil {
		t.Fatal("rebuild of a healthy spindle succeeded")
	}

	fs.Array().SetSpindleState(1, disk.Dead)
	state, blocks, err := c.Rebuild(1)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if state != "healthy" {
		t.Fatalf("rebuilt spindle state %q, want healthy", state)
	}
	if blocks == 0 {
		t.Fatal("rebuild copied no repair chunks")
	}

	res, err := c.Play("venkat", id, rope.VideoOnly, 0, 0, 2, "")
	if err != nil {
		t.Fatalf("play after rebuild: %v", err)
	}
	if res.Violations != 0 {
		t.Fatalf("playback after rebuild had %d violations", res.Violations)
	}
}

// TestStatsMirrorSection checks the STATS payload's mirror-resilience
// tail: per-spindle health over a mirrored array and the lifetime
// repair-chunk count after a rebuild.
func TestStatsMirrorSection(t *testing.T) {
	srv, c, _ := serve(t, core.Options{Disks: 4, Mirror: true}, nil)
	fs := srv.fs
	video := media.NewVideoSource(30, 18000, 30, 4243)
	if _, _, err := c.RecordClip("venkat", video, nil, false); err != nil {
		t.Fatalf("record: %v", err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SpindleStates) != 4 {
		t.Fatalf("stats reported %d spindle states, want 4", len(st.SpindleStates))
	}
	for i, s := range st.SpindleStates {
		if s != "healthy" {
			t.Fatalf("spindle %d state %q, want healthy", i, s)
		}
	}
	if st.RebuildBlocks != 0 || st.RebuildTotal != 0 {
		t.Fatalf("idle array reports rebuild activity: %+v", st)
	}

	fs.Array().SetSpindleState(1, disk.Dead)
	if st, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	if st.SpindleStates[1] != "dead" {
		t.Fatalf("dead spindle reported %q", st.SpindleStates[1])
	}

	if _, _, err := c.Rebuild(1); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if st, err = c.Stats(); err != nil {
		t.Fatal(err)
	}
	if st.SpindleStates[1] != "healthy" {
		t.Fatalf("rebuilt spindle reported %q", st.SpindleStates[1])
	}
	if st.RebuildBlocks == 0 {
		t.Fatal("stats lost the lifetime repair-chunk count")
	}
	if got := strings.Join(st.SpindleStates, " "); got != "healthy healthy healthy healthy" {
		t.Fatalf("spindle states %q", got)
	}
}

// TestStatsNoMirrorSection checks the section degrades on a plain
// single-disk server: zero spindle states, zero rebuild counters.
func TestStatsNoMirrorSection(t *testing.T) {
	_, c, _ := serve(t, core.Options{}, nil)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SpindleStates) != 0 || st.RebuildBlocks != 0 || st.RebuildTotal != 0 {
		t.Fatalf("unmirrored server leaked mirror stats: %+v", st)
	}
}
