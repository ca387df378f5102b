package msm

import (
	"testing"
	"time"

	"mmfs/internal/fault"
	"mmfs/internal/obs"
	"mmfs/internal/strand"
)

// busySince checks the device's running busy total against its stats
// after a round, and the trace's busy column, summed from the first
// round the ring holds, against the stats' busy time since start.
func busySince(t *testing.T, m *Manager, ring *obs.TraceRing, start time.Duration) {
	t.Helper()
	busy := m.d.Stats().BusyTime()
	if got := m.d.BusyTime(); got != busy {
		t.Fatalf("round %d: the device's busy total is %v, its stats say %v", m.stats.Rounds, got, busy)
	}
	var traced int64
	for _, tr := range ring.Snapshot() {
		traced += tr.DiskBusyNs
	}
	if traced != int64(busy-start) {
		t.Fatalf("round %d: the trace's busy column sums to %v, the stats moved %v", m.stats.Rounds, time.Duration(traced), busy-start)
	}
}

// runBusy runs rounds — n of them, or until the manager has nothing left
// to do for n < 0 — checking busySince after each.
func runBusy(t *testing.T, m *Manager, ring *obs.TraceRing, start time.Duration, n int) {
	t.Helper()
	for i := 0; i != n; i++ {
		more := m.RunRound()
		busySince(t, m, ring, start)
		if !more {
			return
		}
	}
}

// The trace's busy column is the device's busy time, round by round: its
// sum over a run is what Stats().BusyTime() moved, on a mirrored array
// that loses a spindle and installs a fresh one (whose stats replace the
// dead one's), behind a fault layer that stretches some reads past what
// the disk charges, and across ResetStats — of the array and of one
// spindle.
func TestTraceBusyIsTheDevicesBusyTime(t *testing.T) {
	opts := func(rig *testRig) PlanOptions {
		return PlanOptions{ReadAhead: 1, Buffers: 32, Scattering: rig.scattering()}
	}
	strands := func(rig *testRig, seed int64) []*strand.Strand {
		var out []*strand.Strand
		for sp := 0; sp < rig.spindles; sp++ {
			out = append(out, rig.write(take{units: 240, seed: seed + int64(sp), spindle: sp, pin: rig.mirror}))
		}
		return out
	}
	t.Run("mirrored, a death and a rebuild", func(t *testing.T) {
		const victim = 1
		rig := newRig(t, shape{spindles: 4, stripe: 120, mirror: true, fault: fault.Scenario{Seed: 7, DieRound: 5}, faultOn: victim})
		ss := strands(rig, 540)
		ring := traced(rig.m)
		start := rig.dev.Stats().BusyTime()
		for _, s := range ss {
			rig.play(s, opts(rig))
		}
		runBusy(t, rig.m, ring, start, 12)
		if err := rig.m.Rebuild(victim); err != nil {
			t.Fatal(err)
		}
		rig.play(ss[0], opts(rig))
		runBusy(t, rig.m, ring, start, -1)
		if rig.m.Stats().RebuildBlocks == 0 {
			t.Fatal("the rebuild copied nothing")
		}
	})
	t.Run("a fault layer", func(t *testing.T) {
		rig := newRig(t, shape{spindles: 4, stripe: 4, fault: fault.Scenario{Seed: 3, ReadErrorRate: 0.05, SlowdownRate: 0.3, SlowdownFactor: 4}, faultOn: 2})
		ss := strands(rig, 3300)
		ring := traced(rig.m)
		start := rig.dev.Stats().BusyTime()
		for _, s := range ss {
			rig.play(s, opts(rig))
		}
		runBusy(t, rig.m, ring, start, -1)
		if fs := rig.fd.FaultStats(); fs.Slowdowns == 0 || fs.ReadErrors == 0 {
			t.Fatalf("the fault layer injected nothing: %+v", fs)
		}
	})
	t.Run("ResetStats", func(t *testing.T) {
		rig := newRig(t, shape{spindles: 4, stripe: 4})
		ss := strands(rig, 3400)
		ring := traced(rig.m)
		start := rig.dev.Stats().BusyTime()
		for _, s := range ss {
			rig.play(s, opts(rig))
		}
		runBusy(t, rig.m, ring, start, 10)
		rig.arr.ResetStats()
		runBusy(t, rig.m, ring, start, 10)
		rig.arr.Spindle(1).ResetStats()
		runBusy(t, rig.m, ring, start, -1)
	})
}
