package core

import (
	"testing"

	"mmfs/internal/fault"
	"mmfs/internal/msm"
	"mmfs/internal/rope"
)

// Options.Fault wraps the scenario around the spindle FaultSpindle
// names — a single disk is spindle 0 — and nowhere else: the media path
// sees the injected errors (retries, degraded blocks), metadata does
// not (Check stays clean), the fault counters reach the registry, and
// the fault stream's draw order is pinned by the exact counts.
func TestFaultOptionWiring(t *testing.T) {
	sc, err := fault.ParseScenario("seed=7,readerr=0.2")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                       string
		opts                       Options
		retries, degraded, readErr uint64
	}{
		// Re-pinned with run reads: a turn reads a clip's back-to-back
		// blocks as one access, so the fault stream meets a fraction of the
		// reads it met, and a faulted run is retried block by block (one
		// retry; its failed access spends slack). Four clips left the
		// mirrored spindle 1 no faulted read at all; eight give every row
		// faults to handle.
		{"single disk", Options{Fault: sc}, 22, 7, 29},
		{"striped, spindle 1", Options{Disks: 4, Fault: sc, FaultSpindle: 1}, 16, 2, 18},
		{"mirrored, spindle 1", Options{Disks: 4, Mirror: true, Fault: sc, FaultSpindle: 1}, 7, 0, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, err := Format(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			fd := fs.faultDisk
			if fd == nil {
				t.Fatal("no fault layer despite an active scenario")
			}
			var ropes []*rope.Rope
			for seed := int64(1); seed <= 8; seed++ {
				ropes = append(ropes, recordClip(t, fs, "venkat", 3, seed))
			}
			var handles []PlayHandle
			for _, r := range ropes {
				h, err := fs.Play("venkat", r.ID, rope.AudioVisual, 0, 0, msm.PlanOptions{ReadAhead: 2})
				if err != nil {
					t.Fatalf("play: %v", err)
				}
				handles = append(handles, h)
			}
			fs.Manager().RunUntilDone()
			for _, h := range handles {
				for _, id := range h.Requests() {
					p, err := fs.Manager().Progress(id)
					if err != nil {
						t.Fatal(err)
					}
					if !p.Done || p.BlocksServed != p.BlocksTotal {
						t.Fatalf("request %d stopped at block %d of %d", id, p.BlocksServed, p.BlocksTotal)
					}
				}
			}
			if problems := fs.Check(); len(problems) != 0 {
				t.Fatalf("check: %v", problems)
			}
			st, fst := fs.Manager().Stats(), fd.FaultStats()
			if st.Retries == 0 {
				t.Fatal("no retried read: the scenario is not on the media path")
			}
			if got := fs.Metrics().Counter("mmfs_fault_read_errors_total").Value(); got != fst.ReadErrors {
				t.Fatalf("mmfs_fault_read_errors_total = %d, FaultStats().ReadErrors = %d", got, fst.ReadErrors)
			}
			if st.Retries != tc.retries || st.DegradedBlocks != tc.degraded || fst.ReadErrors != tc.readErr {
				t.Fatalf("(retries, degraded, read errors) = (%d, %d, %d), want (%d, %d, %d)",
					st.Retries, st.DegradedBlocks, fst.ReadErrors, tc.retries, tc.degraded, tc.readErr)
			}
		})
	}
}
