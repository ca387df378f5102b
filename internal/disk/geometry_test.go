package disk

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestGeometryValidate(t *testing.T) {
	good := DefaultGeometry()
	if err := good.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	cases := []func(*Geometry){
		func(g *Geometry) { g.Cylinders = 0 },
		func(g *Geometry) { g.Surfaces = 0 },
		func(g *Geometry) { g.SectorsPerTrack = 0 },
		func(g *Geometry) { g.SectorSize = 0 },
		func(g *Geometry) { g.RPM = 0 },
		func(g *Geometry) { g.MinSeek = -time.Millisecond },
		func(g *Geometry) { g.MaxSeek = g.MinSeek - time.Millisecond },
	}
	for i, mutate := range cases {
		g := DefaultGeometry()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted", i)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	g := DefaultGeometry()
	if got := g.TotalSectors(); got != 1200*8*56 {
		t.Fatalf("total sectors %d", got)
	}
	if got := g.CapacityBytes(); got != int64(g.TotalSectors())*2048 {
		t.Fatalf("capacity %d", got)
	}
	// 3600 RPM = 60 rev/s → one revolution every 16.67 ms.
	sec := float64(time.Second)
	wantRot := time.Duration(sec / 60)
	if got := g.RotationTime(); got != wantRot {
		t.Fatalf("rotation time %v, want %v", got, wantRot)
	}
	if got := g.AvgRotationalLatency(); got != g.RotationTime()/2 {
		t.Fatalf("avg latency %v", got)
	}
	// Transfer rate: 56 sectors × 2048 B × 8 bit × 60 rev/s.
	want := float64(56*2048*8) * 60
	if got := g.TransferRateBits(); got != want {
		t.Fatalf("transfer rate %g, want %g", got, want)
	}
	// A full-track transfer takes one rotation (modulo the per-sector
	// integer truncation of SectorTime).
	if got, rot := g.TransferTime(56), g.RotationTime(); got < rot-time.Microsecond || got > rot {
		t.Fatalf("full-track transfer %v, want ≈ one rotation %v", got, rot)
	}
}

func TestSeekTimeModel(t *testing.T) {
	g := DefaultGeometry()
	if g.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	if g.SeekTime(1) != g.MinSeek {
		t.Fatalf("single-cylinder seek %v, want %v", g.SeekTime(1), g.MinSeek)
	}
	if g.SeekTime(g.Cylinders-1) != g.MaxSeek {
		t.Fatalf("full-stroke seek %v, want %v", g.SeekTime(g.Cylinders-1), g.MaxSeek)
	}
	if g.SeekTime(-5) != g.SeekTime(5) {
		t.Fatal("seek time must be symmetric in distance")
	}
	// Beyond full stroke clamps.
	if g.SeekTime(10*g.Cylinders) != g.MaxSeek {
		t.Fatal("seek beyond disk should clamp to max")
	}
	// Monotone non-decreasing in distance.
	prev := time.Duration(0)
	for d := 0; d < g.Cylinders; d += 7 {
		s := g.SeekTime(d)
		if s < prev {
			t.Fatalf("seek time decreased at distance %d: %v < %v", d, s, prev)
		}
		prev = s
	}
}

func TestMaxDistanceWithinInvertsAccessTime(t *testing.T) {
	g := DefaultGeometry()
	f := func(rawDist int) bool {
		dist := rawDist % g.Cylinders
		if dist < 0 {
			dist = -dist
		}
		budget := g.AccessTime(dist)
		got := g.MaxDistanceWithin(budget)
		// got must satisfy the budget and be at least dist.
		return got >= dist && g.AccessTime(got) <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if g.MaxDistanceWithin(0) != -1 {
		t.Fatal("zero budget cannot cover the rotational latency")
	}
	if g.MaxDistanceWithin(time.Hour) != g.Cylinders-1 {
		t.Fatal("huge budget should cover the full stroke")
	}
}

func TestConsecutiveLBAsAreSeekFree(t *testing.T) {
	g := DefaultGeometry()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		lba := rng.Intn(g.TotalSectors() - 1)
		a, b := g.CylinderOf(lba), g.CylinderOf(lba+1)
		if b != a && b != a+1 {
			t.Fatalf("lba %d→%d jumps cylinder %d→%d", lba, lba+1, a, b)
		}
	}
}

func TestAccessTimeBounds(t *testing.T) {
	g := DefaultGeometry()
	if g.AccessTime(0) >= g.MaxAccessTime() {
		t.Fatal("min access must be below max access")
	}
	if g.MaxAccessTime() != g.SeekTime(g.Cylinders-1)+g.AvgRotationalLatency() {
		t.Fatal("max access mismatch")
	}
}
