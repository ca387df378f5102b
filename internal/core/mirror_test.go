package core

import (
	"testing"

	"mmfs/internal/disk"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// TestOptionsValidation covers the format-time configuration errors:
// a FaultSpindle outside the array must be rejected (not silently
// clamped to spindle 0, which would quietly fault the wrong device),
// as must mirroring over an odd spindle count and a negative rebuild
// rate.
func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"fault spindle beyond array", Options{Disks: 2, FaultSpindle: 2}},
		{"fault spindle negative", Options{Disks: 4, FaultSpindle: -1}},
		{"fault spindle on single disk", Options{FaultSpindle: 1}},
		{"mirror on odd spindles", Options{Disks: 3, Mirror: true}},
		{"mirror on single disk", Options{Disks: 1, Mirror: true}},
		{"negative rebuild rate", Options{Disks: 2, RebuildRate: -1}},
	}
	for _, tc := range cases {
		if _, err := Format(tc.opts); err == nil {
			t.Errorf("%s: Format accepted %+v", tc.name, tc.opts)
		}
	}
	// The in-range cases must still format.
	if _, err := Format(Options{Disks: 2, FaultSpindle: 1}); err != nil {
		t.Fatalf("in-range fault spindle rejected: %v", err)
	}
}

// TestMirroredFormatRecordPlay formats a mirrored 4-spindle system,
// records and plays a clip, and checks the mirrored layout is really
// underneath: half the striped capacity, duplicated writes.
func TestMirroredFormatRecordPlay(t *testing.T) {
	fs, err := Format(Options{Disks: 4, Mirror: true, RebuildRate: 4})
	if err != nil {
		t.Fatal(err)
	}
	arr := fs.Array()
	if arr == nil || !arr.Mirrored() {
		t.Fatal("mirrored format did not build a mirrored array")
	}
	phys := disk.DefaultGeometry()
	if got := fs.Disk().Geometry().Cylinders; got != phys.Cylinders*2 {
		t.Fatalf("mirrored logical cylinders = %d, want %d (capacity must halve)",
			got, phys.Cylinders*2)
	}
	if got := fs.Manager().RebuildRate(); got != 4 {
		t.Fatalf("RebuildRate option not wired: %d", got)
	}

	r := recordClip(t, fs, "venkat", 4, 700)
	h, err := fs.Play("venkat", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	fs.Manager().RunUntilDone()
	n, err := fs.PlayViolations(h)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("mirrored playback had %d continuity violations", n)
	}
	// Every write is duplicated: both twins of a written pair must have
	// seen sectors.
	wrote := 0
	for i := 0; i < arr.Spindles(); i += 2 {
		w0 := arr.Spindle(i).Stats().SectorsWritten
		w1 := arr.Spindle(i + 1).Stats().SectorsWritten
		if w0 != w1 {
			t.Fatalf("pair %d twins wrote %d vs %d sectors; mirror writes must duplicate", i/2, w0, w1)
		}
		if w0 > 0 {
			wrote++
		}
	}
	if wrote == 0 {
		t.Fatal("no pair saw any writes")
	}
}

// A manager built while a rebuild is running (FS.NewManager mid-repair)
// carries it on: the repair completes in its rounds, and the surviving
// twin — the copy source — is not struck for the new manager's lack of
// a chunk buffer.
func TestNewManagerMidRebuildKeepsRepairing(t *testing.T) {
	fs, err := Format(Options{Disks: 4, Mirror: true, RebuildRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	recordClip(t, fs, "venkat", 4, 710)
	arr := fs.Array()
	const victim = 2
	arr.SetSpindleState(victim, disk.Dead)
	arr.RefreshSteering()
	if err := fs.Manager().Rebuild(victim); err != nil {
		t.Fatal(err)
	}
	fs.Manager().RunRound()
	if !arr.RepairActive() {
		t.Fatal("the rebuild finished in one round: nothing left for the next manager")
	}
	mgr := fs.NewManager()
	for i := 0; i < 4000 && mgr.RunRound(); i++ {
	}
	if arr.RepairActive() || arr.SpindleState(victim) != disk.Healthy {
		done, total := arr.RepairProgress()
		t.Fatalf("rebuild under the new manager: spindle %d is %v at %d/%d", victim, arr.SpindleState(victim), done, total)
	}
	if got := arr.SpindleState(arr.Twin(victim)); got != disk.Healthy {
		t.Fatalf("the copy source ended %v", got)
	}
}
