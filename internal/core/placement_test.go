package core

import (
	"testing"

	"mmfs/internal/disk"
	"mmfs/internal/strand"
)

// A recorded strand fills a cylinder before it hops, hops forward by at
// most TargetCylinders, and never lays a block across a cylinder
// boundary — so every stored block is one run of one cylinder page and
// the device lends it (DESIGN §12). On one disk and on the array.
func TestRecordedStrandsFillCylindersAndAreLent(t *testing.T) {
	for _, disks := range []int{1, 4} {
		fs, err := Format(Options{Disks: disks})
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			recordClip(t, fs, "venkat", 12, 8100+seed)
		}
		g := fs.Disk().Geometry()
		var scratch []byte
		for _, id := range fs.Strands().IDs() {
			s, _ := fs.Strands().Get(id)
			rd := strand.NewReader(fs.MediaDevice(), s)
			perCyl := g.SectorsPerCylinder() / s.BlockSectors(g.SectorSize)
			prevCyl, inCyl := -1, 0
			for b := 0; b < s.NumBlocks(); b++ {
				e, err := s.Block(b)
				if err != nil {
					t.Fatal(err)
				}
				if e.Silent() {
					continue
				}
				data, _, _, err := rd.ReadBlockInto(0, b, &scratch)
				if err != nil {
					t.Fatal(err)
				}
				if !disk.Lent(data, scratch) {
					t.Fatalf("disks=%d strand %d block %d [%d,+%d) was copied, not lent", disks, id, b, e.Sector, e.SectorCount)
				}
				cyl := g.CylinderOf(int(e.Sector))
				if last := g.CylinderOf(int(e.Sector + e.SectorCount - 1)); last != cyl {
					t.Fatalf("disks=%d strand %d block %d straddles cylinders %d and %d", disks, id, b, cyl, last)
				}
				switch hop := cyl - prevCyl; {
				case prevCyl < 0 || hop == 0:
				case hop < 0 || hop > fs.Options().TargetCylinders:
					t.Fatalf("disks=%d strand %d block %d hops %d cylinders", disks, id, b, hop)
				case inCyl < perCyl:
					t.Fatalf("disks=%d strand %d left cylinder %d after %d of %d blocks", disks, id, prevCyl, inCyl, perCyl)
				}
				if cyl != prevCyl {
					prevCyl, inCyl = cyl, 0
				}
				inCyl++
			}
		}
	}
}

// On an array successive strands start on different spindles, far enough
// from their stripe group's end that a strand of ordinary length stays on
// the spindle it started on; on one disk the start sequence is what it
// has always been.
func TestStrandStartsRotateOverSpindles(t *testing.T) {
	fs, err := Format(Options{Disks: 4})
	if err != nil {
		t.Fatal(err)
	}
	arr := fs.Array()
	spc, sc := arr.Geometry().SectorsPerCylinder(), arr.StripeCylinders()
	prev := -1
	starts := make([]int, arr.Spindles())
	for i := 0; i < 64; i++ {
		c := fs.nextStartCylinder()
		if room := sc - c%sc; room <= fs.Options().TargetCylinders {
			t.Fatalf("start %d at cylinder %d leaves %d cylinder(s) of its stripe group", i, c, room)
		}
		sp, _ := arr.Locate(c * spc)
		if sp == prev {
			t.Fatalf("starts %d and %d both on spindle %d", i-1, i, sp)
		}
		prev = sp
		starts[sp]++
	}
	for sp, n := range starts {
		if n < 64/4/2 {
			t.Fatalf("starts per spindle %v: spindle %d is starved", starts, sp)
		}
	}
	single, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{171, 424, 677, 930, 1183, 236} {
		if got := single.nextStartCylinder(); got != want {
			t.Fatalf("single-disk start %d at cylinder %d, want %d", i, got, want)
		}
	}
}
