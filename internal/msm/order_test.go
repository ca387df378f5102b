package msm

import (
	"testing"
	"time"

	"mmfs/internal/layout"
	"mmfs/internal/media"

	"mmfs/internal/continuity"
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
		rig := newRig(t, disk.DefaultGeometry())
		// Five strands in widely separated regions, admitted in a
		// zig-zag order so arrival-order servicing sweeps the
		// actuator back and forth every round. k = 1 makes switch
		// seeks dominate the round.
		var strands []*strand.Strand
		for i, startCyl := range []int{100, 350, 600, 850, 1100} {
			strands = append(strands, rig.recordVideoAt(t, 60, 18000, 3, 30, int64(7000+i), startCyl))
		}
		zig := []*strand.Strand{strands[0], strands[4], strands[1], strands[3], strands[2]}
		mgr := New(rig.d, continuity.AdmissionFor(rig.dev))
		mgr.SetPolicy(NaiveJump)
		mgr.SetServiceOrder(order)
		mgr.ForceK(1)
		rig.d.ResetStats()
		for _, s := range zig {
			plan, err := PlanStrandPlay(rig.d, s, PlanOptions{ReadAhead: 1, Buffers: 64, Scattering: rig.scattering()})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := mgr.AdmitPlay(plan); err != nil {
				t.Fatal(err)
			}
			mgr.ForceK(1)
		}
		mgr.RunUntilDone()
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

// recordVideoAt is recordVideo with an explicit start cylinder.
func (r *testRig) recordVideoAt(t *testing.T, frames, frameBytes, gran int, rate float64, seed int64, startCyl int) *strand.Strand {
	t.Helper()
	w, err := strand.NewWriter(r.d, r.a, strand.WriterConfig{
		ID:            r.st.NewID(),
		Medium:        layout.Video,
		Rate:          rate,
		UnitBytes:     frameBytes,
		Granularity:   gran,
		Constraint:    r.constraint(),
		StartCylinder: startCyl,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewVideoSource(frames, frameBytes, rate, seed)
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		if _, err := w.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	s, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	r.st.Put(s)
	return s
}

func TestNextCylinderSkipsDelaysAndSilence(t *testing.T) {
	rig := newRig(t, disk.DefaultGeometry())
	s := rig.recordVideo(t, 30, 18000, 3, 30, 7100)
	mgr := New(rig.d, continuity.AdmissionFor(rig.dev))
	// A plan starting with a pure delay: the next-media-block walker
	// (the C-SCAN key's source) must look through it to the first real
	// block.
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
	next, at, ok := nextMedia(r.position())
	if !ok {
		t.Fatal("nextMedia found nothing despite real blocks")
	}
	if at != 1 {
		t.Fatalf("next media block at plan index %d, want 1", at)
	}
	g := rig.d.Geometry()
	e, _ := s.Block(0)
	if cyl, want := g.CylinderOf(int(next.Sector)), g.CylinderOf(int(e.Sector)); cyl != want {
		t.Fatalf("next cylinder %d, want %d", cyl, want)
	}
	mgr.RunUntilDone()
}

func TestScanSortStableForUnknownPositions(t *testing.T) {
	// Record requests have no known next cylinder; they keep arrival
	// order at the end of the sweep and the round still completes.
	rig := newRig(t, disk.DefaultGeometry())
	rig.m.SetServiceOrder(ScanOrder)
	s := rig.recordVideo(t, 30, 18000, 3, 30, 7200)
	_ = s
	if rig.m.Stats().Rounds == 0 {
		t.Fatal("no rounds serviced")
	}
}
