package disk_test

import (
	"bytes"
	"testing"

	"mmfs/internal/disk"
)

// WriteAt pads the last sector with zeros inside the cylinder page, not
// through a padded copy of the caller's bytes: a write that ends
// mid-sector over a region full of 0xFF leaves the payload, zeros up to
// the sector boundary, and 0xFF untouched beyond it — also when the
// write crosses a cylinder boundary (a stripe-group boundary on the
// arrays, which hand each spindle its own span), and on both twins of a
// mirrored pair.
func TestWriteAtPadsInPlace(t *testing.T) {
	g := arrayGeom() // 32 sectors of 512 bytes per cylinder
	spc, ss := g.SectorsPerCylinder(), g.SectorSize
	mirrored, twins := newMirrorArray(t, 4, 1)
	devices := map[string]disk.Device{
		"disk":     disk.MustNew(g),
		"striped":  newTestArray(t, 2, 1),
		"mirrored": mirrored,
	}
	for name, d := range devices {
		for _, c := range []struct {
			what     string
			lba, len int
		}{
			{"inside one sector", 3, 100},
			{"ending mid-sector", 5, 2*ss + 7},
			{"across a cylinder boundary", spc - 2, 3*ss + 129},
			{"whole sectors", 2*spc + 1, 2 * ss},
		} {
			sectors := (c.len + ss - 1) / ss
			lo, n := c.lba-1, sectors+2 // one guard sector each side
			if err := d.WriteAt(lo, bytes.Repeat([]byte{0xFF}, n*ss)); err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{0xA5}, c.len)
			if err := d.WriteAt(c.lba, payload); err != nil {
				t.Fatal(err)
			}
			want := bytes.Repeat([]byte{0xFF}, n*ss)
			copy(want[ss:], payload)
			clear(want[ss+c.len : ss+sectors*ss])
			got, err := d.ReadAt(lo, n)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %s: sectors [%d,%d) differ from payload + zero tail + untouched guards", name, c.what, lo, lo+n)
			}
			if !bytes.Equal(payload, bytes.Repeat([]byte{0xA5}, c.len)) {
				t.Errorf("%s, %s: WriteAt modified the caller's bytes", name, c.what)
			}
		}
	}
	// Both twins of each mirrored pair hold the same padded bytes.
	for pair := 0; pair < len(twins); pair += 2 {
		for cyl := 0; cyl < g.Cylinders; cyl++ {
			a, errA := twins[pair].ReadAt(cyl*spc, spc)
			b, errB := twins[pair+1].ReadAt(cyl*spc, spc)
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("mirror pair %d: twins differ in cylinder %d", pair/2, cyl)
			}
		}
	}
}
