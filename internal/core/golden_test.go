package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
	"mmfs/internal/rope"
)

var update = flag.Bool("update", false, "rewrite testdata/sync_image.golden from the current tree")

// syncImage hashes what a Sync leaves on the device: the superblock
// sector, the bitmap, and the three tables — each with the run it was
// placed in, because table placement feeds the allocator and the
// allocator feeds media placement.
func syncImage(t *testing.T, fs *FS) string {
	t.Helper()
	h := sha256.New()
	region := func(run alloc.Run, length int) {
		var hdr [12]byte
		binary.LittleEndian.PutUint32(hdr[0:], uint32(run.LBA))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(run.Sectors))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(length))
		h.Write(hdr[:])
		data, err := fs.d.ReadAt(run.LBA, run.Sectors)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
	}
	region(alloc.Run{LBA: superLBA, Sectors: 1}, 0)
	region(alloc.Run{LBA: fs.bitmapLBA, Sectors: fs.bitmapSectors}, 0)
	region(fs.strandTab, fs.strandTabLen)
	region(fs.ropeTab, fs.ropeTabLen)
	region(fs.textTab, fs.textTabLen)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// platterImage hashes every materialised cylinder of every spindle:
// media blocks, index blocks and metadata, and where each landed.
func platterImage(t *testing.T, d disk.Device) string {
	t.Helper()
	spindles := []disk.Device{d}
	if arr, ok := d.(*disk.Array); ok {
		spindles = spindles[:0]
		for i := 0; i < arr.Spindles(); i++ {
			spindles = append(spindles, arr.Spindle(i))
		}
	}
	h := sha256.New()
	for i, sp := range spindles {
		dk, ok := sp.(*disk.Disk)
		if !ok {
			t.Fatalf("spindle %d is %T, want *disk.Disk", i, sp)
		}
		g := dk.Geometry()
		spc := g.SectorsPerCylinder()
		for cyl := 0; cyl < g.Cylinders; cyl++ {
			if !dk.CylinderMaterialized(cyl) {
				continue
			}
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:], uint32(i))
			binary.LittleEndian.PutUint32(hdr[4:], uint32(cyl))
			h.Write(hdr[:])
			page, err := dk.ReadAt(cyl*spc, spc)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(page)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSyncImageGolden replays one scripted RECORD / INSERT / SUBSTRING /
// CONCATE / DELETE / text-file sequence on one disk and on four
// spindles, syncing after every step, and compares the metadata image
// (and the platters') with hashes generated before Sync stopped
// reflecting and WriteAt stopped padding through a copy: a faster write
// path must leave the same bytes in the same sectors. The last step
// mounts the image with Open and syncs it again — a round trip through
// Unmarshal and Marshal that must change nothing.
func TestSyncImageGolden(t *testing.T) {
	var got []string
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"disk1", Options{}},
		{"disks4", Options{Disks: 4}},
	} {
		fs, err := Format(cfg.opts)
		if err != nil {
			t.Fatal(err)
		}
		step := func(name string, fs *FS) {
			t.Helper()
			if err := fs.Sync(); err != nil {
				t.Fatalf("%s %s: sync: %v", cfg.name, name, err)
			}
			if p := fs.Check(); len(p) != 0 {
				t.Fatalf("%s %s: fsck: %v", cfg.name, name, p)
			}
			got = append(got, fmt.Sprintf("%s %-9s meta %s platters %s", cfg.name, name, syncImage(t, fs), platterImage(t, fs.d)))
		}
		step("format", fs)

		r1 := recordClip(t, fs, "venkat", 3, 9100)
		r2 := recordClip(t, fs, "harrick", 2, 9200)
		r1.PlayAccess = []string{"harrick", "srinivas"}
		r1.EditAccess = []string{"harrick"}
		step("record", fs)

		res, err := fs.Insert("venkat", r1.ID, time.Second, rope.AudioVisual, r2.ID, 0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.CopiedBlocks() == 0 {
			t.Fatalf("%s: the INSERT smoothed no junction; the script must exercise the copy path", cfg.name)
		}
		step("insert", fs)

		sub, _, err := fs.Substring("venkat", r1.ID, rope.AudioVisual, 500*time.Millisecond, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		step("substring", fs)

		if _, _, err := fs.Concate("venkat", sub.ID, r2.ID); err != nil {
			t.Fatal(err)
		}
		step("concate", fs)

		if _, err := fs.DeleteRange("venkat", r1.ID, rope.AudioVisual, time.Second, time.Second); err != nil {
			t.Fatal(err)
		}
		if err := fs.AddTrigger("venkat", r1.ID, 1500*time.Millisecond, "slide 2: continuity"); err != nil {
			t.Fatal(err)
		}
		step("delete", fs)

		if err := fs.Text().Write("notes.txt", []byte(strings.Repeat("in the gaps between media blocks\n", 4000))); err != nil {
			t.Fatal(err)
		}
		if err := fs.Text().Write("empty", nil); err != nil {
			t.Fatal(err)
		}
		step("text", fs)

		if _, err := fs.DeleteRope("harrick", r2.ID); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.DeleteRope("venkat", sub.ID); err != nil {
			t.Fatal(err)
		}
		step("delrope", fs)

		reopened, err := Open(fs.Disk(), cfg.opts)
		if err != nil {
			t.Fatalf("%s: open: %v", cfg.name, err)
		}
		step("reopen", reopened)
		if a, b := got[len(got)-2], got[len(got)-1]; a[strings.Index(a, "meta"):] != b[strings.Index(b, "meta"):] {
			t.Fatalf("%s: Open + Sync changed the image:\n%s\n%s", cfg.name, a, b)
		}
	}

	text := strings.Join(got, "\n") + "\n"
	golden := filepath.Join("testdata", "sync_image.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	exp := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := range got {
		if i >= len(exp) || got[i] != exp[i] {
			e := "(nothing)"
			if i < len(exp) {
				e = exp[i]
			}
			t.Fatalf("image differs from %s at step %d:\n got: %s\nwant: %s", golden, i+1, got[i], e)
		}
	}
	if len(exp) != len(got) {
		t.Fatalf("%s has %d steps, the script %d", golden, len(exp), len(got))
	}
}
