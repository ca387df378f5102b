package disk_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mmfs/internal/disk"
	"mmfs/internal/fault"
)

// The lending contract of Device.ReadView: everything a caller can
// observe — bytes, (t, err), statistics, head positions, mirror health
// — equals a twin device driven through ReadInto; only the copy is
// gone.

// fillPattern writes seeded bytes over [lba, lba+n) of every device
// given, so twins hold identical data.
func fillPattern(t *testing.T, lba, n int, devs ...disk.Device) {
	t.Helper()
	data := make([]byte, n*devs[0].Geometry().SectorSize)
	rand.New(rand.NewSource(int64(lba))).Read(data)
	for _, d := range devs {
		if err := d.WriteAt(lba, data); err != nil {
			t.Fatal(err)
		}
	}
}

// readBoth performs one access through ReadView on dev and through
// ReadInto on twin and checks the two are indistinguishable. scratch
// goes in holding stale bytes. It returns the view and the scratch it
// was offered.
func readBoth(t *testing.T, dev, twin disk.Device, lba, n int) (view, scratch []byte) {
	t.Helper()
	ss := dev.Geometry().SectorSize
	scratch = bytes.Repeat([]byte{0xEE}, n*ss)
	dst := make([]byte, n*ss)
	view, tv, errv := dev.ReadView(lba, n, scratch)
	ti, erri := twin.ReadInto(0, lba, n, dst)
	if tv != ti || fmt.Sprint(errv) != fmt.Sprint(erri) {
		t.Fatalf("[%d,+%d): ReadView (%v, %v), ReadInto (%v, %v)", lba, n, tv, errv, ti, erri)
	}
	if errv != nil {
		if view != nil {
			t.Fatalf("[%d,+%d): data returned with error %v", lba, n, errv)
		}
	} else {
		want, err := dev.ReadAt(lba, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(view, want) || !bytes.Equal(dst, want) {
			t.Fatalf("[%d,+%d): view/ReadInto bytes differ from ReadAt", lba, n)
		}
		if cap(view) != len(view) {
			t.Fatalf("[%d,+%d): view cap %d > len %d: an append could reach past it", lba, n, cap(view), len(view))
		}
	}
	if dev.Stats() != twin.Stats() {
		t.Fatalf("[%d,+%d): stats %+v, twin %+v", lba, n, dev.Stats(), twin.Stats())
	}
	if hs, ht := heads(dev), heads(twin); !slices.Equal(hs, ht) {
		t.Fatalf("[%d,+%d): heads at cylinders %v, twin at %v", lba, n, hs, ht)
	}
	return view, scratch
}

// heads reports the cylinder under every actuator of dev: a disk's one,
// or one per spindle of an array.
func heads(dev disk.Device) []int {
	a, ok := dev.(*disk.Array)
	if !ok {
		return []int{dev.HeadCylinder()}
	}
	hs := make([]int, a.Spindles())
	for i := range hs {
		hs[i] = a.Spindle(i).HeadCylinder()
	}
	return hs
}

// viewAtBoth performs one access through ViewAt and checks it against
// ReadAt: the same bytes (or both fail), cap == len, and — the read is
// untimed — counters and heads where they were. scratch goes in holding
// stale bytes; the view and the scratch are returned for lent.
func viewAtBoth(t *testing.T, dev disk.Device, lba, n int) (view, scratch []byte) {
	t.Helper()
	ss := dev.Geometry().SectorSize
	scratch = bytes.Repeat([]byte{0xEE}, max(n, 0)*ss)
	stats, before := dev.Stats(), heads(dev)
	view, errv := dev.ViewAt(lba, n, scratch)
	want, erra := dev.ReadAt(lba, n)
	if (errv == nil) != (erra == nil) {
		t.Fatalf("[%d,+%d): ViewAt error %v, ReadAt error %v", lba, n, errv, erra)
	}
	if errv != nil {
		if view != nil {
			t.Fatalf("[%d,+%d): data returned with error %v", lba, n, errv)
		}
		return nil, scratch
	}
	if !bytes.Equal(view, want) {
		t.Fatalf("[%d,+%d): ViewAt bytes differ from ReadAt", lba, n)
	}
	if cap(view) != len(view) {
		t.Fatalf("[%d,+%d): view cap %d > len %d: an append could reach past it", lba, n, cap(view), len(view))
	}
	if dev.Stats() != stats {
		t.Fatalf("[%d,+%d): an untimed read moved the counters: %+v -> %+v", lba, n, stats, dev.Stats())
	}
	if !slices.Equal(heads(dev), before) {
		t.Fatalf("[%d,+%d): an untimed read moved a head", lba, n)
	}
	return view, scratch
}

// lent reports whether view aliases dev's store rather than scratch:
// scratch was left untouched, and a write to the device shows through
// the view (which is why a view is only valid until the next write).
func lent(t *testing.T, dev disk.Device, lba int, view, scratch []byte) bool {
	t.Helper()
	if len(view) == 0 {
		return false
	}
	if &view[0] == &scratch[0] {
		return false
	}
	if !bytes.Equal(scratch, bytes.Repeat([]byte{0xEE}, len(scratch))) {
		t.Fatal("a lent read also wrote to scratch")
	}
	saved := append([]byte(nil), view[:dev.Geometry().SectorSize]...)
	poked := append([]byte(nil), saved...)
	poked[0]++
	if err := dev.WriteAt(lba, poked); err != nil {
		t.Fatal(err)
	}
	aliased := view[0] == poked[0]
	if err := dev.WriteAt(lba, saved); err != nil {
		t.Fatal(err)
	}
	return aliased
}

func TestReadViewSingleDisk(t *testing.T) {
	g := arrayGeom()
	spc := g.SectorsPerCylinder()
	dev, twin := disk.MustNew(g), disk.MustNew(g)
	fillPattern(t, 3*spc, 3*spc, dev, twin) // cylinders 3..5; the rest never written

	cases := []struct {
		name   string
		lba, n int
		want   bool // lent
	}{
		{"inside one cylinder", 3*spc + 5, 9, true},
		{"whole cylinder", 4 * spc, spc, true},
		{"crossing a cylinder", 4*spc - 3, 8, false},
		{"unmaterialised cylinder", 20 * spc, 6, false},
		{"materialised into unmaterialised", 6*spc - 2, 5, false},
		{"n == 0", 3*spc + 1, 0, false},
		{"out of range", g.TotalSectors() - 2, 3, false},
	}
	for _, c := range cases {
		view, scratch := readBoth(t, dev, twin, c.lba, c.n)
		if got := lent(t, dev, c.lba, view, scratch); got != c.want {
			t.Fatalf("%s: lent = %v, want %v", c.name, got, c.want)
		}
		view, scratch = viewAtBoth(t, dev, c.lba, c.n)
		if got := lent(t, dev, c.lba, view, scratch); got != c.want {
			t.Fatalf("%s: ViewAt lent = %v, want %v", c.name, got, c.want)
		}
	}

	// Zeros from an unmaterialised page even though scratch was stale.
	view, _ := readBoth(t, dev, twin, 20*spc, 6)
	untimed, _ := viewAtBoth(t, dev, 20*spc, 6)
	if zeros := make([]byte, 6*g.SectorSize); !bytes.Equal(view, zeros) || !bytes.Equal(untimed, zeros) {
		t.Fatal("unmaterialised cylinder did not read as zeros")
	}
	if _, err := dev.ViewAt(4*spc-3, 8, make([]byte, g.SectorSize)); err == nil {
		t.Fatal("ViewAt filled a short scratch")
	}
	if _, err := dev.ViewAt(3*spc, -1, nil); err == nil {
		t.Fatal("ViewAt accepted a negative count")
	}
	// A short scratch is an error on the fill path, as for ReadInto.
	if _, _, err := dev.ReadView(4*spc-3, 8, make([]byte, g.SectorSize)); err == nil {
		t.Fatal("fill into a short scratch accepted")
	}
}

func TestReadViewStripedArray(t *testing.T) {
	a, twin := newTestArray(t, 4, 4), newTestArray(t, 4, 4)
	spc := a.Geometry().SectorsPerCylinder()
	group := 4 * spc
	fillPattern(t, 0, 6*group, a, twin)

	cases := []struct {
		name   string
		lba, n int
		want   bool
	}{
		{"inside one cylinder of group 0 (spindle 0)", 7, 12, true},
		{"inside group 1 (spindle 1)", group + spc + 3, 10, true},
		{"inside group 5 (spindle 1, second local group)", 5*group + 2*spc, spc, true},
		{"crossing a cylinder inside a group", spc - 4, 8, false},
		{"crossing a stripe group", group - 5, 11, false},
		{"spanning three spindles", group - 2, group + 4, false},
		{"unmaterialised", 10*group + 3, 4, false},
		{"n == 0", group, 0, false},
	}
	for _, c := range cases {
		view, scratch := readBoth(t, a, twin, c.lba, c.n)
		if got := lent(t, a, c.lba, view, scratch); got != c.want {
			t.Fatalf("%s: lent = %v, want %v", c.name, got, c.want)
		}
		view, scratch = viewAtBoth(t, a, c.lba, c.n)
		if got := lent(t, a, c.lba, view, scratch); got != c.want {
			t.Fatalf("%s: ViewAt lent = %v, want %v", c.name, got, c.want)
		}
	}
	if _, err := a.ViewAt(group-5, 11, make([]byte, 512)); err == nil {
		t.Fatal("ViewAt assembled a group-crossing access in a short scratch")
	}
	if _, err := a.ViewAt(a.Geometry().TotalSectors()-2, 3, make([]byte, 3*512)); err == nil {
		t.Fatal("ViewAt accepted an out-of-range access")
	}
}

// mirrorPair builds two identical mirrored arrays whose spindle 0 sits
// behind a fault wrapper (scripted failures feed the health machine).
func mirrorPair(t *testing.T) (a, twin *disk.Array, fd, ftwin *fault.Disk) {
	t.Helper()
	mk := func() (*disk.Array, *fault.Disk) {
		f := fault.New(disk.MustNew(arrayGeom()), fault.Scenario{Seed: 1})
		sp := []disk.Device{f, disk.MustNew(arrayGeom()), disk.MustNew(arrayGeom()), disk.MustNew(arrayGeom())}
		return disk.MustNewArray(sp, 4, true), f
	}
	a, fd = mk()
	twin, ftwin = mk()
	return a, twin, fd, ftwin
}

func sameHealth(t *testing.T, a, twin *disk.Array) {
	t.Helper()
	for i := 0; i < a.Spindles(); i++ {
		if a.SpindleState(i) != twin.SpindleState(i) {
			t.Fatalf("spindle %d %v, twin %v", i, a.SpindleState(i), twin.SpindleState(i))
		}
	}
}

func TestReadViewMirroredArray(t *testing.T) {
	a, twin, fd, ftwin := mirrorPair(t)
	spc := a.Geometry().SectorsPerCylinder()
	group := 4 * spc
	fillPattern(t, 0, 8*group, a, twin)
	// Sweep two sectors from every cylinder of the first 8 groups, plus
	// one access that crosses a group: every pair, slot and twin.
	sweep := func(wantLent bool) {
		t.Helper()
		for lba := 3; lba < 8*group; lba += spc {
			view, scratch := readBoth(t, a, twin, lba, 2)
			sameHealth(t, a, twin)
			if view != nil && lent(t, a, lba, view, scratch) != wantLent {
				t.Fatalf("lba %d: lent != %v", lba, wantLent)
			}
			// The untimed view steers like ReadAt and feeds no health.
			if view, scratch = viewAtBoth(t, a, lba, 2); lent(t, a, lba, view, scratch) != wantLent {
				t.Fatalf("lba %d: ViewAt lent != %v", lba, wantLent)
			}
		}
		readBoth(t, a, twin, group-1, 2)
		sameHealth(t, a, twin)
	}

	// Healthy: balanced steering, every in-group read lent.
	sweep(true)

	// Spindle 0 fails six reads running: Healthy → Suspect on the
	// fourth, on both arrays at the same access, and the failed reads
	// return no data.
	fd.FailNextReads(6)
	ftwin.FailNextReads(6)
	for i := 0; i < 6; i++ {
		view, _ := readBoth(t, a, twin, 3, 2) // group 0, slot 0 → spindle 0
		if view != nil {
			t.Fatal("failed read returned data")
		}
		sameHealth(t, a, twin)
	}
	if a.SpindleState(0) != disk.Suspect {
		t.Fatalf("spindle 0 %v after 6 failures, want suspect", a.SpindleState(0))
	}
	a.RefreshSteering()
	twin.RefreshSteering()
	sweep(true) // favour spindle 1, probe spindle 0; a clean probe clears Suspect
	if a.SpindleState(0) != disk.Healthy {
		t.Fatalf("spindle 0 %v after clean probes, want healthy", a.SpindleState(0))
	}

	// A Dead twin: every read of pair 0 re-steers to spindle 1.
	for _, arr := range []*disk.Array{a, twin} {
		arr.SetSpindleState(0, disk.Dead)
		arr.RefreshSteering()
	}
	before := fd.Stats().Reads
	sweep(true)
	if fd.Stats().Reads != before {
		t.Fatal("a dead spindle was read")
	}
}
