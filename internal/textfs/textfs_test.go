package textfs

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
)

func newStore(t *testing.T) (*Store, *alloc.Allocator) {
	t.Helper()
	g := disk.Geometry{
		Cylinders: 50, Surfaces: 2, SectorsPerTrack: 16, SectorSize: 512,
		RPM: 3600, MinSeek: 2 * time.Millisecond, MaxSeek: 20 * time.Millisecond,
	}
	d := disk.MustNew(g)
	a, err := alloc.New(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewStore(d, a), a
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, _ := newStore(t)
	data := []byte("the gaps between media blocks hold text files")
	if err := s.Write("readme.txt", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("readme.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestMultiExtentFile(t *testing.T) {
	s, _ := newStore(t)
	// 40 KB forces multiple 16-sector extents at 512-byte sectors.
	data := make([]byte, 40<<10)
	rand.New(rand.NewSource(3)).Read(data)
	if err := s.Write("big", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-extent round trip mismatch")
	}
}

func TestOverwriteReplacesAndFrees(t *testing.T) {
	s, a := newStore(t)
	if err := s.Write("f", make([]byte, 20<<10)); err != nil {
		t.Fatal(err)
	}
	bigFree := a.FreeSectors()
	if err := s.Write("f", []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	if a.FreeSectors() <= bigFree {
		t.Fatal("overwrite did not free the old extents")
	}
	got, _ := s.Read("f")
	if string(got) != "tiny" {
		t.Fatalf("content %q", got)
	}
}

func TestEmptyFileAndEmptyName(t *testing.T) {
	s, _ := newStore(t)
	if err := s.Write("", []byte("x")); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Write("empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("empty file read %v %v", got, err)
	}
}

func TestList(t *testing.T) {
	s, _ := newStore(t)
	for _, n := range []string{"charlie", "alpha", "bravo"} {
		if err := s.Write(n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	want := []string{"alpha", "bravo", "charlie"}
	if len(got) != 3 {
		t.Fatalf("list %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list %v, want %v", got, want)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	s, a := newStore(t)
	files := map[string][]byte{
		"a.txt": []byte("alpha"),
		"b.bin": make([]byte, 12<<10),
		"c":     {},
	}
	rand.New(rand.NewSource(9)).Read(files["b.bin"])
	for n, d := range files {
		if err := s.Write(n, d); err != nil {
			t.Fatal(err)
		}
	}
	data := s.Marshal(nil)
	if want := refMarshal(s); !bytes.Equal(data, want) {
		t.Fatalf("table differs from the reflecting encoder's:\n got %x\nwant %x", data, want)
	}
	if got := s.Marshal([]byte("head")); !bytes.Equal(got, append([]byte("head"), data...)) {
		t.Fatal("Marshal does not append to its destination")
	}

	// Restore into a fresh store over the same disk/allocator.
	s2 := NewStore(sDisk(s), a)
	if err := s2.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	for n, want := range files {
		got, err := s2.Read(n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file %q differs after restore", n)
		}
	}
	if got := s2.Marshal(nil); !bytes.Equal(got, data) {
		t.Fatal("decode + encode changed the table")
	}
	for cut := 0; cut < len(data); cut++ {
		if err := s2.Unmarshal(data[:cut]); err == nil {
			t.Fatalf("table truncated to %d of %d bytes accepted", cut, len(data))
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := s2.Unmarshal(bad); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

// refMarshal is the file-table encoder as it was while it reflected
// (bytes.Buffer + binary.Write per field): the byte-for-byte reference
// for the appending one.
func refMarshal(s *Store) []byte {
	var w bytes.Buffer
	binary.Write(&w, binary.LittleEndian, uint32(tableMagic))
	binary.Write(&w, binary.LittleEndian, uint32(len(s.files)))
	for _, name := range s.List() {
		f := s.files[name]
		binary.Write(&w, binary.LittleEndian, uint32(len(f.name)))
		w.WriteString(f.name)
		binary.Write(&w, binary.LittleEndian, uint64(f.size))
		binary.Write(&w, binary.LittleEndian, uint32(len(f.runs)))
		for _, r := range f.runs {
			binary.Write(&w, binary.LittleEndian, uint32(r.LBA))
			binary.Write(&w, binary.LittleEndian, uint32(r.Sectors))
		}
	}
	return w.Bytes()
}

// sDisk exposes the store's disk for the restore test.
func sDisk(s *Store) *disk.Disk { return s.d.(*disk.Disk) }

// Property: random write/overwrite sequences never lose data — reads
// always match the latest write — and never leak sectors: what the
// allocator has handed out is exactly the live files' extents.
func TestTextFSQuick(t *testing.T) {
	f := func(seed int64) bool {
		g := disk.Geometry{
			Cylinders: 50, Surfaces: 2, SectorsPerTrack: 16, SectorSize: 512,
			RPM: 3600, MinSeek: 2 * time.Millisecond, MaxSeek: 20 * time.Millisecond,
		}
		d := disk.MustNew(g)
		a, err := alloc.New(g, 2)
		if err != nil {
			return false
		}
		s := NewStore(d, a)
		free := a.FreeSectors()
		rng := rand.New(rand.NewSource(seed))
		shadow := make(map[string][]byte)
		names := []string{"a", "b", "c", "d"}
		for step := 0; step < 40; step++ {
			n := names[rng.Intn(len(names))]
			data := make([]byte, rng.Intn(4096))
			rng.Read(data)
			if err := s.Write(n, data); err != nil {
				return false
			}
			shadow[n] = data
		}
		held := 0
		for n, want := range shadow {
			got, err := s.Read(n)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
			for _, run := range s.Extents(n) {
				held += run.Sectors
			}
		}
		return s.Len() == len(shadow) && a.FreeSectors() == free-held
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
