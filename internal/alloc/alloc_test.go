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
		return a.TotalSectors()-a.FreeSectors() == allocated
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
