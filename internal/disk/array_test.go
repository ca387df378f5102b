package disk_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/fault"
)

// arrayGeom keeps array-test spindles tiny: 8 groups of 4 cylinders.
func arrayGeom() disk.Geometry {
	return disk.Geometry{
		Cylinders:       32,
		Surfaces:        2,
		SectorsPerTrack: 16,
		SectorSize:      512,
		RPM:             3600,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         30 * time.Millisecond,
	}
}

func newTestArray(t *testing.T, p, stripe int) *disk.Array {
	t.Helper()
	spindles := make([]disk.Device, p)
	for i := range spindles {
		spindles[i] = disk.MustNew(arrayGeom())
	}
	a, err := disk.NewArray(spindles, stripe, false)
	if err != nil {
		t.Fatalf("NewArray: %v", err)
	}
	return a
}

func TestArrayValidation(t *testing.T) {
	if _, err := disk.NewArray(nil, 4, false); err == nil {
		t.Fatal("empty spindle list accepted")
	}
	// Stripe unit must divide the per-spindle cylinder count.
	if _, err := disk.NewArray([]disk.Device{disk.MustNew(arrayGeom())}, 5, false); err == nil {
		t.Fatal("non-dividing stripe unit accepted")
	}
	if _, err := disk.NewArray([]disk.Device{disk.MustNew(arrayGeom())}, 0, false); err == nil {
		t.Fatal("zero stripe unit accepted")
	}
	// Mismatched geometries must be rejected.
	g2 := arrayGeom()
	g2.SectorsPerTrack = 8
	_, err := disk.NewArray([]disk.Device{disk.MustNew(arrayGeom()), disk.MustNew(g2)}, 4, false)
	if err == nil {
		t.Fatal("mismatched spindle geometries accepted")
	}
}

func TestArrayLogicalGeometry(t *testing.T) {
	const p, stripe = 4, 4
	a := newTestArray(t, p, stripe)
	g := a.Geometry()
	phys := arrayGeom()
	if g.Cylinders != p*phys.Cylinders {
		t.Fatalf("logical cylinders = %d, want %d", g.Cylinders, p*phys.Cylinders)
	}
	if a.Spindles() != p {
		t.Fatalf("Spindles() = %d, want %d", a.Spindles(), p)
	}
	// The continuity parameters the admission controller reads must be
	// one spindle's, not scaled by p: full-stroke seek saturates at
	// MaxSeek and the transfer rate is per-actuator.
	if g.MaxAccessTime() != phys.MaxAccessTime() {
		t.Fatalf("logical MaxAccessTime %v != physical %v", g.MaxAccessTime(), phys.MaxAccessTime())
	}
	if g.TransferRateBits() != phys.TransferRateBits() {
		t.Fatalf("logical TransferRateBits %g != physical %g", g.TransferRateBits(), phys.TransferRateBits())
	}
}

// TestArrayAddressRoundTrip checks block → (spindle, local sector) →
// block over every sector of a small array, and that the spindle
// assignment deals stripe groups round-robin.
func TestArrayAddressRoundTrip(t *testing.T) {
	const p, stripe = 3, 4
	a := newTestArray(t, p, stripe)
	g := a.Geometry()
	spc := g.SectorsPerCylinder()
	groupSec := stripe * spc
	counts := make([]int, p)
	seen := make(map[[2]int]bool, g.TotalSectors())
	for lba := 0; lba < g.TotalSectors(); lba++ {
		sp, local := a.Locate(lba)
		if want := (lba / groupSec) % p; sp != want {
			t.Fatalf("lba %d: spindle %d, want %d", lba, sp, want)
		}
		if local < 0 || local >= arrayGeom().TotalSectors() {
			t.Fatalf("lba %d: local %d outside spindle", lba, local)
		}
		if seen[[2]int{sp, local}] {
			t.Fatalf("lba %d: (%d,%d) already holds another logical sector", lba, sp, local)
		}
		seen[[2]int{sp, local}] = true
		counts[sp]++
	}
	for sp, n := range counts {
		if n != arrayGeom().TotalSectors() {
			t.Fatalf("spindle %d mapped %d sectors, want %d", sp, n, arrayGeom().TotalSectors())
		}
	}
	// Consecutive groups on one spindle must be locally adjacent, so a
	// logically sequential strand stays sequential per spindle.
	for group := 0; group+p < g.Cylinders/stripe; group++ {
		lba := group * groupSec
		sp, local := a.Locate(lba)
		spNext, localNext := a.Locate(lba + p*groupSec)
		if spNext != sp || localNext != local+groupSec {
			t.Fatalf("group %d: next group on spindle %d at %d, want spindle %d at %d",
				group, spNext, localNext, sp, local+groupSec)
		}
	}
}

// TestArrayLayoutTable pins the one address map against the two layouts
// it replaced, written out here as they were: striped, group g on
// spindle g%p in slot g/p; mirrored, group g on pair g%(p/2) in slot
// g/(p/2), read from twin slot&1 while both are healthy. Locate must be
// a bijection from logical cylinders onto (replica set, local cylinder),
// a read must leave the spindle it moved on the local cylinder,
// HeadCylinder must invert the map when that spindle is spindle 0, and
// GroupStart must invert it too: a group starts where GroupStart puts the
// slot/r-th group its spindle serves (mirrored, a slot's parity picks the
// twin, so each twin serves every other slot).
func TestArrayLayoutTable(t *testing.T) {
	const stripe = 4
	phys := arrayGeom()
	spc := phys.SectorsPerCylinder()
	buf := make([]byte, phys.SectorSize)
	for _, r := range []int{1, 2} {
		for _, p := range []int{2, 4} {
			spindles := make([]disk.Device, p)
			for i := range spindles {
				spindles[i] = disk.MustNew(phys)
			}
			a := disk.MustNewArray(spindles, stripe, r == 2)
			sets := p / r
			if got := a.Geometry().Cylinders; got != sets*phys.Cylinders {
				t.Fatalf("r=%d p=%d: %d logical cylinders, want %d", r, p, got, sets*phys.Cylinders)
			}
			seen := make(map[[2]int]bool)
			for cyl := 0; cyl < a.Geometry().Cylinders; cyl++ {
				group, inGroup := cyl/stripe, cyl%stripe
				var wantSp, wantCyl int
				slot := group / sets
				if r == 1 {
					wantSp, wantCyl = group%p, slot*stripe+inGroup
				} else {
					wantSp, wantCyl = 2*(group%sets)+slot&1, slot*stripe+inGroup
				}
				if got := a.GroupStart(wantSp, slot/r); inGroup == 0 && got != cyl {
					t.Fatalf("r=%d p=%d: GroupStart(%d, %d) = %d, want %d", r, p, wantSp, slot/r, got, cyl)
				}
				off := cyl % spc
				sp, local := a.Locate(cyl*spc + off)
				if sp != wantSp || local != wantCyl*spc+off {
					t.Fatalf("r=%d p=%d cylinder %d: Locate = (%d, %d), want (%d, %d)",
						r, p, cyl, sp, local, wantSp, wantCyl*spc+off)
				}
				if seen[[2]int{sp / r, wantCyl}] {
					t.Fatalf("r=%d p=%d cylinder %d: set %d cylinder %d already holds another", r, p, cyl, sp/r, wantCyl)
				}
				seen[[2]int{sp / r, wantCyl}] = true
				if _, err := a.ReadInto(0, cyl*spc+off, 1, buf); err != nil {
					t.Fatal(err)
				}
				if got := a.Spindle(sp).HeadCylinder(); got != wantCyl {
					t.Fatalf("r=%d p=%d: spindle %d head at %d after a read of its cylinder %d", r, p, sp, got, wantCyl)
				}
				if got := a.HeadCylinder(); sp == 0 && got != cyl {
					t.Fatalf("r=%d p=%d: HeadCylinder() = %d after a read of cylinder %d", r, p, got, cyl)
				}
			}
			if len(seen) != sets*phys.Cylinders {
				t.Fatalf("r=%d p=%d: %d physical cylinders mapped, want %d", r, p, len(seen), sets*phys.Cylinders)
			}
		}
	}
}

// TestPlainArrayHasNoRepair: a striped, unmirrored array is idle the way
// a mirrored one is — the repair cursor's idle state is target < 0, not
// the zero value, which would name spindle 0.
func TestPlainArrayHasNoRepair(t *testing.T) {
	a := newTestArray(t, 2, 4)
	if a.RepairActive() {
		t.Error("a plain array reports a repair running")
	}
	if est, ok := a.PeekRepairChunk(); ok {
		t.Errorf("a plain array has a repair chunk to copy (estimate %v)", est)
	}
	if got := a.RebuildTarget(); got != -1 {
		t.Errorf("RebuildTarget() = %d, want -1", got)
	}
	if done, total := a.RepairProgress(); done != 0 || total != 0 {
		t.Errorf("RepairProgress() = %d/%d, want 0/0", done, total)
	}
}

func TestArraySpindleRange(t *testing.T) {
	const p, stripe = 2, 4
	a := newTestArray(t, p, stripe)
	groupSec := stripe * a.Geometry().SectorsPerCylinder()
	if sp, ok := a.SpindleRange(0, groupSec); !ok || sp != 0 {
		t.Fatalf("whole first group: spindle %d ok %v, want 0 true", sp, ok)
	}
	if sp, ok := a.SpindleRange(groupSec, 1); !ok || sp != 1 {
		t.Fatalf("second group start: spindle %d ok %v, want 1 true", sp, ok)
	}
	if _, ok := a.SpindleRange(groupSec-1, 2); ok {
		t.Fatal("boundary-crossing access reported single-spindle")
	}
}

// TestArrayDataRoundTrip writes across a group boundary and reads back
// through every read path, checking the bytes land on (and come back
// from) the owning spindles.
func TestArrayDataRoundTrip(t *testing.T) {
	const p, stripe = 2, 4
	a := newTestArray(t, p, stripe)
	g := a.Geometry()
	ss := g.SectorSize
	groupSec := stripe * g.SectorsPerCylinder()

	// Six sectors straddling the first group boundary: 3 on spindle 0,
	// 3 on spindle 1.
	start := groupSec - 3
	data := make([]byte, 6*ss)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := a.WriteAt(start, data); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got, err := a.ReadAt(start, 6)
	if err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("ReadAt returned different bytes than written")
	}
	// The tail must physically live at spindle 1's local start.
	sp1 := a.Spindle(1).(*disk.Disk)
	tail, err := sp1.ReadAt(0, 3)
	if err != nil {
		t.Fatalf("spindle ReadAt: %v", err)
	}
	if !bytes.Equal(tail, data[3*ss:]) {
		t.Fatal("crossing write did not land on the second spindle")
	}

	buf := make([]byte, 6*ss)
	tInto, err := a.ReadInto(0, start, 6, buf)
	if err != nil {
		t.Fatalf("ReadInto: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("ReadInto returned different bytes than written")
	}
	if tInto <= 0 {
		t.Fatalf("crossing read charged %v, want > 0", tInto)
	}
	view, tView, err := a.ReadView(start, 6, make([]byte, 6*ss))
	if err != nil {
		t.Fatalf("ReadView: %v", err)
	}
	if !bytes.Equal(view, data) || tView <= 0 {
		t.Fatalf("ReadView mismatch (t=%v)", tView)
	}
}

// TestArrayTimedRouting checks that a single-group timed access charges
// exactly the owning spindle's service time and moves only its head.
func TestArrayTimedRouting(t *testing.T) {
	const p, stripe = 4, 4
	a := newTestArray(t, p, stripe)
	g := a.Geometry()
	groupSec := stripe * g.SectorsPerCylinder()

	// Group 2 lives on spindle 2.
	lba := 2 * groupSec
	want := a.Spindle(2).PeekServiceTime(0, 8)
	if got := a.PeekServiceTime(lba, 8); got != want {
		t.Fatalf("PeekServiceTime = %v, want spindle charge %v", got, want)
	}
	buf := make([]byte, 8*g.SectorSize)
	tGot, err := a.ReadInto(0, lba, 8, buf)
	if err != nil {
		t.Fatalf("ReadInto: %v", err)
	}
	if tGot != want {
		t.Fatalf("ReadInto charged %v, want %v", tGot, want)
	}
	for i := 0; i < p; i++ {
		st := a.Spindle(i).Stats()
		if i == 2 {
			if st.Reads != 1 {
				t.Fatalf("spindle 2 saw %d reads, want 1", st.Reads)
			}
			continue
		}
		if st.Reads != 0 || a.Spindle(i).HeadCylinder() != 0 {
			t.Fatalf("idle spindle %d moved (reads=%d head=%d)", i, st.Reads, a.Spindle(i).HeadCylinder())
		}
	}
	if total := a.Stats(); total.Reads != 1 || total.SectorsRead != 8 {
		t.Fatalf("aggregate stats = %+v, want 1 read of 8 sectors", total)
	}
	// HeadCylinder reports spindle 0's actuator, which did not move.
	if hc := a.HeadCylinder(); hc != 0 {
		t.Fatalf("HeadCylinder() = %d, want 0", hc)
	}
}

// TestArrayIndependentHeads covers the p-way service-time paths: each
// spindle's actuator position is independent, so the same logical
// access costs less on a spindle whose head is already nearby.
func TestArrayIndependentHeads(t *testing.T) {
	const p, stripe = 2, 4
	a := newTestArray(t, p, stripe)
	g := a.Geometry()
	groupSec := stripe * g.SectorsPerCylinder()

	// A read of spindle 0's last sector leaves its head far from its
	// group-0 data; spindle 1 stays home.
	if _, _, err := a.Spindle(0).ReadView(arrayGeom().TotalSectors()-1, 1, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	far := a.PeekServiceTime(0, 4)         // spindle 0, head far away
	near := a.PeekServiceTime(groupSec, 4) // spindle 1, head at home
	if far <= near {
		t.Fatalf("far-head access %v not costlier than near-head %v", far, near)
	}
}

// TestArrayFaultWrappedSpindle wraps one spindle in a fault scenario:
// addressing must round-trip through the wrapper, faults must hit only
// accesses routed to that spindle, and the other spindles stay clean.
func TestArrayFaultWrappedSpindle(t *testing.T) {
	const p, stripe = 2, 4
	phys := arrayGeom()
	base := []*disk.Disk{disk.MustNew(phys), disk.MustNew(phys)}
	fd := fault.New(base[1], fault.Scenario{Seed: 7})
	a, err := disk.NewArray([]disk.Device{base[0], fd}, stripe, false)
	if err != nil {
		t.Fatalf("NewArray over fault-wrapped spindle: %v", err)
	}
	g := a.Geometry()
	groupSec := stripe * g.SectorsPerCylinder()

	// Round-trip addressing through the wrapped spindle.
	lba := groupSec + 5 // group 1 → spindle 1 (the wrapped one)
	sp, local := a.Locate(lba)
	if sp != 1 {
		t.Fatalf("lba %d on spindle %d, want 1", lba, sp)
	}
	if local != 5 {
		t.Fatalf("lba %d at local sector %d of spindle 1, want 5", lba, local)
	}
	data := make([]byte, 2*g.SectorSize)
	for i := range data {
		data[i] = 0xA5
	}
	if err := a.WriteAt(lba, data); err != nil {
		t.Fatalf("WriteAt through wrapper: %v", err)
	}
	got, err := a.ReadAt(lba, 2)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadAt through wrapper: %v", err)
	}

	// A forced transient fault fires only for the wrapped spindle.
	fd.FailNextReads(1)
	buf := make([]byte, 2*g.SectorSize)
	if _, err := a.ReadInto(0, 0, 2, buf); err != nil {
		t.Fatalf("read on healthy spindle hit the fault: %v", err)
	}
	if _, err := a.ReadInto(0, lba, 2, buf); !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("read on wrapped spindle: err = %v, want ErrTransient", err)
	}
	// The retry (fault consumed) succeeds and returns the data.
	if _, err := a.ReadInto(0, lba, 2, buf); err != nil {
		t.Fatalf("retry after transient: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("retry returned different bytes than written")
	}
	if fs := fd.FaultStats(); fs.ReadErrors != 1 {
		t.Fatalf("wrapped spindle counted %d read errors, want 1", fs.ReadErrors)
	}
}
