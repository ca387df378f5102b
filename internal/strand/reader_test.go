package strand

import (
	"bytes"
	"testing"

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
	if r.d.Stats() != twin.d.Stats() || r.d.HeadCylinder(0) != twin.d.HeadCylinder(0) {
		t.Fatalf("stats/head diverged: %+v @%d, twin %+v @%d",
			r.d.Stats(), r.d.HeadCylinder(0), twin.d.Stats(), twin.d.HeadCylinder(0))
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
		want, _, err := rd.BlockPayload(i)
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

// AppendUnits returns byte for byte what a loop of Unit calls returns,
// for ranges that start and end in the middle of blocks, and the bytes
// are the caller's own.
func TestAppendUnitsMatchesUnitLoop(t *testing.T) {
	r := newRig(t)
	strands := map[string]*Strand{
		"fixed rate, trailing partial block": r.writeVideo(t, 32, 1024, 3, 6),
		"eliminated silence":                 r.writeAudio(t, 41, 9),
		"variable rate":                      r.writeVBR(t, 61, 8192, 2048, 10, 3, 99),
	}
	for name, s := range strands {
		rd := NewReader(r.d, s)
		total := s.UnitCount()
		q := uint64(s.Granularity())
		ranges := [][2]uint64{
			{0, total}, {1, total - 1}, {q - 1, 2}, {q + 1, 3*q + 1}, {2*q + 1, 1},
			{total - 1, 1}, {total - q - 1, q + 1}, {5, 0},
		}
		for _, rg := range ranges {
			start, n := rg[0], rg[1]
			prefix := [][]byte{{0xAA}}
			got, err := rd.AppendUnits(prefix, start, n)
			if err != nil {
				t.Fatalf("%s [%d,+%d): %v", name, start, n, err)
			}
			if uint64(len(got)) != n+1 || &got[0][0] != &prefix[0][0] {
				t.Fatalf("%s [%d,+%d): %d units appended, or the prefix was lost", name, start, n, len(got)-1)
			}
			for i, u := range got[1:] {
				want, err := rd.Unit(start + uint64(i))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(u, want) {
					t.Fatalf("%s [%d,+%d): unit %d differs from Unit", name, start, n, start+uint64(i))
				}
				if cap(u) != len(u) {
					t.Fatalf("%s: unit %d cap %d > len %d", name, start+uint64(i), cap(u), len(u))
				}
			}
			if n > 0 { // owned, not lent: scribbling on a unit leaves the strand alone
				got[1][0] ^= 0xFF
				if again, _ := rd.Unit(start); again[0] == got[1][0] {
					t.Fatalf("%s: unit %d aliases the device's store", name, start)
				}
			}
		}
		if _, err := rd.AppendUnits(nil, total-1, 2); err == nil {
			t.Fatalf("%s: range past the end accepted", name)
		}
	}
}
