package msm

import (
	"testing"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/strand"
)

func TestServiceOrderString(t *testing.T) {
	if ArrivalOrder.String() != "arrival" || ScanOrder.String() != "scan" {
		t.Fatal("order names")
	}
}

// TestScanOrderReducesSeekTime verifies the C-SCAN sweep services
// requests in ascending-cylinder order regardless of arrival order.
func TestScanOrderReducesSeekTime(t *testing.T) {
	run := func(order ServiceOrder) disk.Stats {
		rig := newRig(t, shape{})
		// Five strands in widely separated regions, admitted in a
		// zig-zag order so arrival-order servicing sweeps the
		// actuator back and forth every round. k = 1 makes switch
		// seeks dominate the round.
		var strands []*strand.Strand
		for i, startCyl := range []int{100, 350, 600, 850, 1100} {
			strands = append(strands, rig.write(take{units: 60, seed: int64(7000 + i), cyl: startCyl}))
		}
		zig := []*strand.Strand{strands[0], strands[4], strands[1], strands[3], strands[2]}
		rig.m = rig.manager(config{policy: NaiveJump, k: 1})
		rig.m.SetServiceOrder(order)
		rig.d.ResetStats()
		for _, s := range zig {
			rig.play(s, PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()})
			rig.m.ForceK(1)
		}
		rig.m.RunUntilDone()
		return rig.d.Stats()
	}
	arrival := run(ArrivalOrder)
	scan := run(ScanOrder)
	if scan.SeekTime >= arrival.SeekTime {
		t.Fatalf("scan seek time %v not below arrival %v", scan.SeekTime, arrival.SeekTime)
	}
	// Both transfer the same data.
	if scan.SectorsRead != arrival.SectorsRead {
		t.Fatalf("sectors read differ: %d vs %d", scan.SectorsRead, arrival.SectorsRead)
	}
}

func TestNextCylinderSkipsDelaysAndSilence(t *testing.T) {
	rig := newRig(t, shape{})
	s := rig.record(take{units: 30, seed: 7100})
	mgr := rig.manager(config{})
	// A plan starting with a pure delay: the plan map's next stored
	// block (the C-SCAN key's source) must look through it to the first
	// real block.
	plan, err := PlanPlay(rig.d, "delayed", []Interval{
		{Gap: 100 * time.Millisecond},
		{Strand: s, NumUnits: 30},
	}, PlanOptions{ReadAhead: 2, Scattering: rig.scattering()})
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := mgr.AdmitPlay(plan)
	if err != nil {
		t.Fatal(err)
	}
	r, err := mgr.find(id)
	if err != nil {
		t.Fatal(err)
	}
	next, ok := r.nextStored()
	if !ok {
		t.Fatal("the plan map found no stored block despite real blocks")
	}
	if at := r.play.pm[0].next; at != 1 {
		t.Fatalf("next stored block at plan index %d, want 1", at)
	}
	g := rig.d.Geometry()
	e, _ := s.Block(0)
	if cyl, want := g.CylinderOf(int(next.sector)), g.CylinderOf(int(e.Sector)); cyl != want {
		t.Fatalf("next cylinder %d, want %d", cyl, want)
	}
	mgr.RunUntilDone()
}

func TestScanSortStableForUnknownPositions(t *testing.T) {
	// Record requests have no known next cylinder; they keep arrival
	// order at the end of the sweep and the round still completes.
	rig := newRig(t, shape{})
	rig.m.SetServiceOrder(ScanOrder)
	rig.record(take{units: 30, seed: 7200})
	if rig.m.Stats().Rounds == 0 {
		t.Fatal("no rounds serviced")
	}
}
