package alloc

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mmfs/internal/disk"
)

func testGeometry() disk.Geometry {
	return disk.Geometry{
		Cylinders:       100,
		Surfaces:        2,
		SectorsPerTrack: 16,
		SectorSize:      512,
		RPM:             3600,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         30 * time.Millisecond,
	}
}

func newAlloc(t *testing.T, reserved int) *Allocator {
	t.Helper()
	a, err := New(testGeometry(), reserved)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestReservedRegion(t *testing.T) {
	a := newAlloc(t, 10)
	for i := 0; i < 10; i++ {
		if !a.InUse(i) {
			t.Fatalf("reserved sector %d free", i)
		}
	}
	r, err := a.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.LBA < 10 {
		t.Fatalf("allocation at %d intrudes on reserved region", r.LBA)
	}
}

func TestAllocateFreeCycle(t *testing.T) {
	a := newAlloc(t, 0)
	total := a.FreeSectors()
	r1, err := a.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Allocate(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.FreeSectors() != total-24 {
		t.Fatalf("free %d, want %d", a.FreeSectors(), total-24)
	}
	a.Free(r1)
	a.Free(r2)
	if a.FreeSectors() != total {
		t.Fatal("free sectors not restored")
	}
	st := a.Stats()
	if st.Allocs != 2 || st.Frees != 2 || st.SectorsAllocated != 24 || st.SectorsFreed != 24 {
		t.Fatalf("stats %+v", st)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newAlloc(t, 0)
	r, err := a.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(r)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.Free(r)
}

func TestExhaustion(t *testing.T) {
	a := newAlloc(t, 0)
	for {
		if _, err := a.Allocate(64); err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatalf("wrong error: %v", err)
			}
			break
		}
	}
	if a.Occupancy() < 0.95 {
		t.Fatalf("gave up at %.0f%% occupancy", a.Occupancy()*100)
	}
}

func TestConstrainedAllocationRespectsDistance(t *testing.T) {
	g := testGeometry()
	a := newAlloc(t, 0)
	prev, err := a.AllocateNearCylinder(50, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := Constraint{MinCylinders: 5, MaxCylinders: 12}
	for i := 0; i < 12; i++ {
		run, err := a.AllocateConstrained(prev, 4, c)
		if err != nil {
			t.Fatal(err)
		}
		d := g.CylinderOf(run.LBA) - g.CylinderOf(prev.LBA)
		if d < 0 {
			d = -d
		}
		if d < c.MinCylinders || d > c.MaxCylinders {
			t.Fatalf("block %d at distance %d outside [%d,%d]", i, d, c.MinCylinders, c.MaxCylinders)
		}
		prev = run
	}
}

func TestConstrainedPrefersSmallestForwardDistance(t *testing.T) {
	g := testGeometry()
	a := newAlloc(t, 0)
	prev, err := a.AllocateNearCylinder(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	run, err := a.AllocateConstrained(prev, 2, Constraint{MinCylinders: 3, MaxCylinders: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CylinderOf(run.LBA); got != 13 {
		t.Fatalf("block placed at cylinder %d, want 13 (forward, min distance)", got)
	}
}

func TestConstrainedFailsWhenBandFull(t *testing.T) {
	g := testGeometry()
	a := newAlloc(t, 0)
	spc := g.SectorsPerCylinder()
	prev, err := a.AllocateNearCylinder(50, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Fill cylinders 48, 49, 51, 52 completely.
	for _, cyl := range []int{48, 49, 51, 52} {
		if run, err := a.AllocateNearCylinder(cyl, spc); err != nil || run.LBA != cyl*spc {
			t.Fatalf("filling cylinder %d: run %+v, %v", cyl, run, err)
		}
	}
	_, err = a.AllocateConstrained(prev, 2, Constraint{MinCylinders: 1, MaxCylinders: 2})
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	if a.Stats().ConstrainedFails != 1 {
		t.Fatalf("stats %+v", a.Stats())
	}
}

func TestAllocateNearCylinderSearchesOutward(t *testing.T) {
	g := testGeometry()
	a := newAlloc(t, 0)
	spc := g.SectorsPerCylinder()
	// Fill cylinder 30 fully; a near allocation should land at 29 or 31.
	if run, err := a.AllocateNearCylinder(30, spc); err != nil || run.LBA != 30*spc {
		t.Fatalf("filling cylinder 30: run %+v, %v", run, err)
	}
	run, err := a.AllocateNearCylinder(30, 4)
	if err != nil {
		t.Fatal(err)
	}
	cyl := g.CylinderOf(run.LBA)
	if cyl != 29 && cyl != 31 {
		t.Fatalf("near allocation landed at cylinder %d", cyl)
	}
}

func TestBitmapMarshalRoundTrip(t *testing.T) {
	a := newAlloc(t, 7)
	var runs []Run
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		r, err := a.Allocate(1 + rng.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	a.Free(runs[10])
	a.Free(runs[20])
	data := a.MarshalBitmap(nil)

	b, err := New(testGeometry(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.UnmarshalBitmap(data); err != nil {
		t.Fatal(err)
	}
	if b.FreeSectors() != a.FreeSectors() {
		t.Fatalf("free %d vs %d after round trip", b.FreeSectors(), a.FreeSectors())
	}
	for i := 0; i < a.TotalSectors(); i++ {
		if a.InUse(i) != b.InUse(i) {
			t.Fatalf("sector %d differs after round trip", i)
		}
	}
	if err := b.UnmarshalBitmap(data[:4]); err == nil {
		t.Fatal("truncated bitmap accepted")
	}
}

// Property: occupancy always equals allocated/total across random
// alloc/free sequences, and no two live runs overlap.
func TestAllocatorInvariantsQuick(t *testing.T) {
	g := testGeometry()
	g.SectorsPerTrack = 15 // 3 000 sectors: the bitmap's last word is partial
	f := func(seed int64) bool {
		a, err := New(g, 5)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		var live []Run
		allocated := 5
		for step := 0; step < 60; step++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				a.Free(live[i])
				allocated -= live[i].Sectors
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n := 1 + rng.Intn(12)
			r, err := a.Allocate(n)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				return false
			}
			// No overlap with live runs.
			for _, o := range live {
				if r.LBA < o.End() && o.LBA < r.End() {
					return false
				}
			}
			live = append(live, r)
			allocated += n
		}
		// LargestFreeRun, a word at a time, is a sector-by-sector scan's.
		best, run := 0, 0
		for i := 0; i < a.TotalSectors(); i++ {
			if run++; a.InUse(i) {
				run = 0
			}
			best = max(best, run)
		}
		return a.TotalSectors()-a.FreeSectors() == allocated && a.LargestFreeRun() == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBadArguments(t *testing.T) {
	a := newAlloc(t, 0)
	if _, err := a.Allocate(0); err == nil {
		t.Fatal("zero-sector allocation accepted")
	}
	if _, err := a.AllocateConstrained(Run{LBA: 0, Sectors: 1}, 1, Constraint{MinCylinders: 5, MaxCylinders: 2}); err == nil {
		t.Fatal("inverted constraint accepted")
	}
	if _, err := New(testGeometry(), -1); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

// Under the run placement a strand fills a cylinder before it hops: six
// 5-sector blocks to a 32-sector cylinder, the seventh one cylinder on,
// none straddling, and no hop beyond the policy's bound.
func TestRunPlacementFillsACylinderBeforeHopping(t *testing.T) {
	g := testGeometry()
	a := newAlloc(t, 0)
	spc := g.SectorsPerCylinder()
	const n, maxCyl = 5, 4
	prev, err := a.AllocateNearCylinder(20, n)
	if err != nil {
		t.Fatal(err)
	}
	perCyl := map[int]int{g.CylinderOf(prev.LBA): 1}
	for i := 1; i < 40; i++ {
		run, err := a.AllocateConstrained(prev, n, RunPlacement(maxCyl))
		if err != nil {
			t.Fatal(err)
		}
		from, to := g.CylinderOf(prev.LBA), g.CylinderOf(run.LBA)
		if g.CylinderOf(run.End()-1) != to {
			t.Fatalf("block %d [%d,%d) straddles cylinders %d and %d", i, run.LBA, run.End(), to, to+1)
		}
		switch hop := to - from; {
		case hop == 0:
		case hop < 0 || hop > maxCyl:
			t.Fatalf("block %d hops %d cylinders, want forward and at most %d", i, hop, maxCyl)
		case perCyl[from] != spc/n:
			t.Fatalf("block %d left cylinder %d with %d of %d blocks placed", i, from, perCyl[from], spc/n)
		}
		perCyl[to]++
		prev = run
	}
	if got := MinAccessTime(g); got != g.AvgRotationalLatency() {
		t.Fatalf("l_lower under the run placement is %v, want the latency alone, %v", got, g.AvgRotationalLatency())
	}
}

// A block that fits a cylinder never straddles one while a run wholly
// inside an admissible cylinder exists — even when a straddling run is
// nearer — and still places, spilling, when no such run is left.
func TestNoStraddleWhileAnInCylinderRunExists(t *testing.T) {
	g := testGeometry()
	spc := g.SectorsPerCylinder()
	const n = 8
	fill := func(a *Allocator, lba, sectors int) {
		t.Helper()
		a.bm.setRange(lba, sectors)
	}
	// Cylinder 50 keeps its last 4 sectors free, cylinder 51 is free from
	// its start: a run of 8 from sector 50·spc+28 straddles the two.
	a := newAlloc(t, 0)
	fill(a, 50*spc, spc-4)
	prev := Run{LBA: 50 * spc, Sectors: n}
	run, err := a.AllocateConstrained(prev, n, RunPlacement(2))
	if err != nil {
		t.Fatal(err)
	}
	if run.LBA != 51*spc {
		t.Fatalf("block placed at %d (cylinder %d), want the start of cylinder 51", run.LBA, g.CylinderOf(run.LBA))
	}
	near, err := a.AllocateNearCylinder(50, n)
	if err != nil {
		t.Fatal(err)
	}
	if g.CylinderOf(near.LBA) != g.CylinderOf(near.End()-1) {
		t.Fatalf("AllocateNearCylinder straddled: [%d,%d)", near.LBA, near.End())
	}

	// Now every cylinder within the constraint has only its last 4 sectors
	// free: no in-cylinder run of 8 exists, but 4 + the next cylinder's
	// head do, and the block must still place.
	a = newAlloc(t, 0)
	for cyl := 47; cyl <= 53; cyl++ {
		fill(a, cyl*spc, spc-4)
	}
	a.bm.clearRange(51*spc, 4) // cylinder 51: first 4 and last 4 free
	run, err = a.AllocateConstrained(prev, n, RunPlacement(2))
	if err != nil {
		t.Fatalf("the spill fallback did not place: %v", err)
	}
	if run.LBA != 50*spc+spc-4 {
		t.Fatalf("spilling block placed at %d, want %d (the tail of cylinder 50 into the head of 51)", run.LBA, 50*spc+spc-4)
	}
	// A block larger than a cylinder has only the spilling search.
	big, err := newAlloc(t, 0).AllocateConstrained(prev, spc+3, RunPlacement(2))
	if err != nil || big.LBA != 50*spc {
		t.Fatalf("a block larger than a cylinder: %+v, %v", big, err)
	}
}
