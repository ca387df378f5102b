package strand

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
)

// ReadBlockInto lends: for a block the device can lend, the returned
// slice is the platter's own bytes (not *buf), clipped to the payload;
// time and bytes equal a twin device's owning read (ReadInto) of the
// block's sectors, trimmed to the payload.
func TestReadBlockIntoLends(t *testing.T) {
	r, twin := newRig(t), newRig(t)
	s := r.writeVideo(t, 32, 1024, 3, 6) // 10 full blocks + a 2-frame tail
	rd, trd := NewReader(r.d, s), NewReader(twin.d, twin.writeVideo(t, 32, 1024, 3, 6))
	var buf []byte
	for i := 0; i < s.NumBlocks(); i++ {
		data, dur, silent, err := rd.ReadBlockInto(0, i, &buf)
		te, _ := trd.s.Block(i)
		want := make([]byte, int(te.SectorCount)*twin.d.Geometry().SectorSize)
		wdur, werr := twin.d.ReadInto(0, int(te.Sector), int(te.SectorCount), want)
		want = want[:trd.blockPayloadBytes(i)]
		if err != nil || werr != nil || dur != wdur || silent || !bytes.Equal(data, want) {
			t.Fatalf("block %d: ReadBlockInto (%d B, %v, %v, %v), twin ReadInto (%d B, %v, %v)",
				i, len(data), dur, silent, err, len(want), wdur, werr)
		}
		if cap(data) != len(data) {
			t.Fatalf("block %d: cap %d > len %d", i, cap(data), len(data))
		}
		if &data[0] == &buf[0] {
			t.Fatalf("block %d was copied into the scratch buffer", i)
		}
		// Lent means aliased: a write to the block's first sector shows
		// through (which is why the slice dies at the next write).
		e, _ := s.Block(i)
		sector := append([]byte(nil), data[:512]...)
		sector[0]++
		if err := r.d.WriteAt(int(e.Sector), sector); err != nil {
			t.Fatal(err)
		}
		if data[0] != sector[0] {
			t.Fatalf("block %d does not alias the device's store", i)
		}
		sector[0]--
		if err := r.d.WriteAt(int(e.Sector), sector); err != nil {
			t.Fatal(err)
		}
	}
	if r.d.Stats() != twin.d.Stats() || r.d.HeadCylinder() != twin.d.HeadCylinder() {
		t.Fatalf("stats/head diverged: %+v @%d, twin %+v @%d",
			r.d.Stats(), r.d.HeadCylinder(), twin.d.Stats(), twin.d.HeadCylinder())
	}
}

// What cannot be lent lands in *buf: a block wider than a cylinder
// (every read crosses one) and a regenerated silence holder.
func TestReadBlockIntoFallsBackToScratch(t *testing.T) {
	g := testGeometry()
	g.Surfaces, g.SectorsPerTrack = 1, 4 // 4-sector cylinders, 6-sector blocks
	d := disk.MustNew(g)
	a, err := alloc.New(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{d: d, a: a, st: NewStore(d, a)}
	s := r.writeVideo(t, 12, 1024, 3, 8)
	rd := NewReader(d, s)
	var buf []byte
	for i := 0; i < s.NumBlocks(); i++ {
		data, _, _, err := rd.ReadBlockInto(0, i, &buf)
		if err != nil {
			t.Fatal(err)
		}
		e, _ := s.Block(i)
		want, err := d.ReadAt(int(e.Sector), int(e.SectorCount))
		if err != nil {
			t.Fatal(err)
		}
		if &data[0] != &buf[0] || cap(data) != len(data) || !bytes.Equal(data, want[:len(data)]) {
			t.Fatalf("block %d: not a clipped, correct fill of the scratch buffer", i)
		}
	}

	ar := newRig(t)
	as := ar.writeAudio(t, 40, 9)
	ard := NewReader(ar.d, as)
	for i := 0; i < as.NumBlocks(); i++ {
		data, dur, silent, err := ard.ReadBlockInto(0, i, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if e, _ := as.Block(i); !e.Silent() {
			continue
		}
		if !silent || dur != 0 || &data[0] != &buf[0] || cap(data) != len(data) {
			t.Fatalf("silence holder %d: silent=%v dur=%v cap=%d len=%d", i, silent, dur, cap(data), len(data))
		}
	}
}

// VisitUnits hands fn byte for byte what a loop of one-unit visits
// returns, for ranges that start and end in the middle of blocks — lent, not
// copied: a unit of a block the device can lend is a capacity-clipped
// slice of the platter; a block wider than a cylinder and a silence
// holder arrive in *buf.
func TestVisitUnitsMatchesUnitLoop(t *testing.T) {
	r := newRig(t)
	g := testGeometry()
	g.Surfaces, g.SectorsPerTrack = 1, 4 // 4-sector cylinders, 6-sector blocks: every read crosses one
	cd := disk.MustNew(g)
	ca, err := alloc.New(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	crossing := &rig{d: cd, a: ca, st: NewStore(cd, ca)}
	cases := []struct {
		name string
		d    disk.Device
		s    *Strand
	}{
		{"fixed rate, trailing partial block", r.d, r.writeVideo(t, 32, 1024, 3, 6)},
		{"eliminated silence", r.d, r.writeAudio(t, 41, 9)},
		{"variable rate", r.d, r.writeVBR(t, 61, 8192, 2048, 10, 3, 99)},
		{"blocks that cross a cylinder", cd, crossing.writeVideo(t, 32, 1024, 3, 8)},
	}
	for _, c := range cases {
		rd := NewReader(c.d, c.s)
		total := c.s.UnitCount()
		q := uint64(c.s.Granularity())
		ranges := [][2]uint64{
			{0, total}, {1, total - 1}, {q - 1, 2}, {q + 1, 3*q + 1}, {2*q + 1, 1},
			{total - 1, 1}, {total - q - 1, q + 1}, {5, 0},
		}
		var buf []byte
		for _, rg := range ranges {
			start, n := rg[0], rg[1]
			u := start
			err := rd.VisitUnits(start, n, &buf, func(unit []byte) error {
				want, err := unitAt(rd, u)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(unit, want) {
					t.Fatalf("%s [%d,+%d): unit %d differs from the one-unit visit", c.name, start, n, u)
				}
				if cap(unit) != len(unit) {
					t.Fatalf("%s: unit %d cap %d > len %d", c.name, u, cap(unit), len(unit))
				}
				blk, _, _ := c.s.UnitRange(u)
				e, _ := c.s.Block(blk)
				inBuf := len(buf) > 0 && len(unit) > 0 &&
					uintptr(unsafe.Pointer(&unit[0])) >= uintptr(unsafe.Pointer(&buf[0])) &&
					uintptr(unsafe.Pointer(&unit[0])) < uintptr(unsafe.Pointer(&buf[0]))+uintptr(len(buf))
				spc := c.d.Geometry().SectorsPerCylinder()
				crosses := int(e.Sector)/spc != int(e.Sector+e.SectorCount-1)/spc
				if wantLent := !e.Silent() && !crosses; inBuf == wantLent {
					t.Fatalf("%s: unit %d in scratch = %v, want lent = %v", c.name, u, inBuf, wantLent)
				}
				u++
				return nil
			})
			if err != nil {
				t.Fatalf("%s [%d,+%d): %v", c.name, start, n, err)
			}
			if u != start+n {
				t.Fatalf("%s [%d,+%d): %d units visited", c.name, start, n, u-start)
			}
		}
		// fn's error stops the walk and comes back as is.
		stop := errors.New("stop")
		calls := 0
		if err := rd.VisitUnits(0, total, &buf, func([]byte) error { calls++; return stop }); err != stop || calls != 1 {
			t.Fatalf("%s: err %v after %d call(s), want the visitor's error after 1", c.name, err, calls)
		}
		if err := rd.VisitUnits(total-1, 2, &buf, func([]byte) error { return nil }); err == nil {
			t.Fatalf("%s: range past the end accepted", c.name)
		}
	}
}
