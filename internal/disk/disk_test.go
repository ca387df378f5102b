package disk

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// smallGeometry keeps test disks tiny.
func smallGeometry() Geometry {
	return Geometry{
		Cylinders:       64,
		Surfaces:        2,
		SectorsPerTrack: 16,
		SectorSize:      512,
		RPM:             3600,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         30 * time.Millisecond,
	}
}

// timedRead is ReadInto with a buffer of its own.
func timedRead(d *Disk, lba, n int) ([]byte, time.Duration, error) {
	buf := make([]byte, n*d.Geometry().SectorSize)
	t, err := d.ReadInto(0, lba, n, buf)
	return buf, t, err
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := MustNew(smallGeometry())
	payload := make([]byte, 3*512)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if err := d.WriteAt(100, payload); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAt(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
}

func TestPartialSectorWritePads(t *testing.T) {
	d := MustNew(smallGeometry())
	if err := d.WriteAt(5, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAt(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:5]) != "hello" {
		t.Fatalf("payload %q", got[:5])
	}
	for _, b := range got[5:] {
		if b != 0 {
			t.Fatal("padding not zeroed")
		}
	}
}

func TestUnwrittenSectorsReadZero(t *testing.T) {
	d := MustNew(smallGeometry())
	got, err := d.ReadAt(500, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("fresh disk returned nonzero data")
		}
	}
}

func TestCrossCylinderIO(t *testing.T) {
	g := smallGeometry()
	d := MustNew(g)
	spc := g.SectorsPerCylinder()
	// A write spanning three cylinders.
	lba := 2*spc - 3
	payload := make([]byte, (spc+6)*g.SectorSize)
	rng := rand.New(rand.NewSource(7))
	rng.Read(payload)
	if err := d.WriteAt(lba, payload); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadAt(lba, spc+6)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("cross-cylinder round trip mismatch")
	}
}

func TestRangeChecks(t *testing.T) {
	d := MustNew(smallGeometry())
	total := d.Geometry().TotalSectors()
	if _, err := d.ReadAt(total, 1); err == nil {
		t.Fatal("read past end accepted")
	}
	if _, err := d.ReadAt(-1, 1); err == nil {
		t.Fatal("negative LBA accepted")
	}
	if err := d.WriteAt(total-1, make([]byte, 2*512)); err == nil {
		t.Fatal("write past end accepted")
	}
	if _, _, err := timedRead(d, total-1, 2); err == nil {
		t.Fatal("timed read past end accepted")
	}
}

func TestTimedReadChargesSeekLatencyTransfer(t *testing.T) {
	g := smallGeometry()
	d := MustNew(g)
	spc := g.SectorsPerCylinder()
	targetCyl := 10
	_, dur, err := timedRead(d, targetCyl*spc, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := g.SeekTime(10) + g.AvgRotationalLatency() + g.TransferTime(4)
	if dur != want {
		t.Fatalf("service time %v, want %v", dur, want)
	}
	if d.HeadCylinder() != targetCyl {
		t.Fatalf("head at %d, want %d", d.HeadCylinder(), targetCyl)
	}
	// A second read at the same cylinder pays no seek.
	_, dur2, err := timedRead(d, targetCyl*spc+8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want2 := g.AvgRotationalLatency() + g.TransferTime(1)
	if dur2 != want2 {
		t.Fatalf("same-cylinder service %v, want %v", dur2, want2)
	}
}

func TestWriteTimeEqualsReadTime(t *testing.T) {
	// The paper's first simplifying assumption (§3).
	g := smallGeometry()
	d1 := MustNew(g)
	d2 := MustNew(g)
	payload := make([]byte, 4*g.SectorSize)
	wt, err := d1.Write(300, payload)
	if err != nil {
		t.Fatal(err)
	}
	_, rt, err := timedRead(d2, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	if wt != rt {
		t.Fatalf("write %v vs read %v", wt, rt)
	}
}

func TestPeekServiceTimeDoesNotMoveHead(t *testing.T) {
	g := smallGeometry()
	d := MustNew(g)
	spc := g.SectorsPerCylinder()
	before := d.HeadCylinder()
	peek := d.PeekServiceTime(30*spc, 2)
	if d.HeadCylinder() != before {
		t.Fatal("peek moved the head")
	}
	_, actual, err := timedRead(d, 30*spc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if peek != actual {
		t.Fatalf("peek %v vs actual %v", peek, actual)
	}
}

func TestStatsAccumulate(t *testing.T) {
	g := smallGeometry()
	d := MustNew(g)
	if _, _, err := timedRead(d, 10, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(400, make([]byte, g.SectorSize)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.SectorsRead != 2 || st.SectorsWritten != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.BusyTime() <= 0 {
		t.Fatal("busy time not accumulated")
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("reset did not clear stats")
	}
}

// Property: any sequence of in-range writes followed by reads returns
// exactly the bytes written, regardless of placement and overlap
// order (later writes win).
func TestWriteReadQuick(t *testing.T) {
	g := smallGeometry()
	f := func(seed int64) bool {
		d := MustNew(g)
		rng := rand.New(rand.NewSource(seed))
		shadow := make([]byte, g.CapacityBytes())
		for i := 0; i < 20; i++ {
			n := 1 + rng.Intn(8)
			lba := rng.Intn(g.TotalSectors() - n)
			payload := make([]byte, n*g.SectorSize)
			rng.Read(payload)
			if err := d.WriteAt(lba, payload); err != nil {
				return false
			}
			copy(shadow[lba*g.SectorSize:], payload)
		}
		for i := 0; i < 20; i++ {
			n := 1 + rng.Intn(8)
			lba := rng.Intn(g.TotalSectors() - n)
			got, err := d.ReadAt(lba, n)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, shadow[lba*g.SectorSize:(lba+n)*g.SectorSize]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	g := smallGeometry()
	g.Cylinders = 0
	if _, err := New(g); err == nil {
		t.Fatal("bad geometry accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on bad geometry")
		}
	}()
	MustNew(g)
}

// A one-cylinder ReadView is really lent: it points into the cylinder
// page itself, clipped so an append cannot reach the platter.
func TestReadViewLendsThePage(t *testing.T) {
	d := MustNew(smallGeometry())
	spc := d.geom.SectorsPerCylinder()
	if err := d.WriteAt(2*spc+4, bytes.Repeat([]byte{7}, 5*512)); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 5*512)
	view, _, err := d.ReadView(2*spc+4, 5, scratch)
	if err != nil {
		t.Fatal(err)
	}
	page := d.pages[2]
	if &view[0] != &page[4*512] || len(view) != 5*512 || cap(view) != len(view) {
		t.Fatalf("view is not page[4*512 : 9*512 : 9*512] (len %d cap %d)", len(view), cap(view))
	}
	if grown := append(view, 1); &grown[0] == &view[0] || page[9*512] != 0 {
		t.Fatal("append to a lent view wrote into the page")
	}
	if scratch[0] != 0 {
		t.Fatal("a lent read filled scratch as well")
	}
}
