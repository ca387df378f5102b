package strand

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
	"mmfs/internal/layout"
	"mmfs/internal/media"
)

func testGeometry() disk.Geometry {
	return disk.Geometry{
		Cylinders:       200,
		Surfaces:        4,
		SectorsPerTrack: 32,
		SectorSize:      512,
		RPM:             3600,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         30 * time.Millisecond,
	}
}

type rig struct {
	d  *disk.Disk
	a  *alloc.Allocator
	st *Store
}

func newRig(t *testing.T) *rig {
	t.Helper()
	g := testGeometry()
	d := disk.MustNew(g)
	a, err := alloc.New(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{d: d, a: a, st: NewStore(d, a)}
}

// writeVideo records a strand of `frames` frames at granularity q.
func (r *rig) writeVideo(t *testing.T, frames, frameBytes, q int, seed int64) *Strand {
	t.Helper()
	w, err := NewWriter(r.d, r.a, WriterConfig{
		ID:          r.st.NewID(),
		Medium:      layout.Video,
		Rate:        30,
		UnitBytes:   frameBytes,
		Granularity: q,
		Constraint:  alloc.Constraint{MinCylinders: 1, MaxCylinders: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewVideoSource(frames, frameBytes, 30, seed)
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		if _, err := w.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	s, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	r.st.Put(s)
	return s
}

// unitAt reads unit u on its own through the range traversal and copies
// it out.
func unitAt(rd *Reader, u uint64) (unit []byte, err error) {
	var buf []byte
	err = rd.VisitUnits(u, 1, &buf, func(b []byte) error { unit = bytes.Clone(b); return nil })
	return unit, err
}

func TestWriterReaderRoundTrip(t *testing.T) {
	r := newRig(t)
	s := r.writeVideo(t, 30, 1024, 3, 5)
	if s.UnitCount() != 30 || s.NumBlocks() != 10 {
		t.Fatalf("units %d blocks %d", s.UnitCount(), s.NumBlocks())
	}
	rd := NewReader(r.d, s)
	for f := uint64(0); f < 30; f++ {
		got, err := unitAt(rd, f)
		if err != nil {
			t.Fatal(err)
		}
		want := media.FramePayload(5, f, 1024)
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d corrupted", f)
		}
	}
}

func TestPartialFinalBlock(t *testing.T) {
	r := newRig(t)
	s := r.writeVideo(t, 32, 1024, 3, 6) // 10 full blocks + 2 frames
	if s.UnitCount() != 32 {
		t.Fatalf("unit count %d", s.UnitCount())
	}
	if s.NumBlocks() != 11 {
		t.Fatalf("blocks %d, want 11", s.NumBlocks())
	}
	rd := NewReader(r.d, s)
	// The last block's payload is trimmed to 2 frames.
	var buf []byte
	data, _, silent, err := rd.ReadBlockInto(0, 10, &buf)
	if err != nil || silent {
		t.Fatalf("read: %v silent=%v", err, silent)
	}
	if len(data) != 2*1024 {
		t.Fatalf("tail block payload %d bytes, want %d", len(data), 2*1024)
	}
	if _, err := unitAt(rd, 31); err != nil {
		t.Fatal(err)
	}
	if _, err := unitAt(rd, 32); err == nil {
		t.Fatal("unit past end accepted")
	}
}

func TestScatterTimesRespectConstraint(t *testing.T) {
	r := newRig(t)
	s := r.writeVideo(t, 60, 1024, 3, 7)
	g := r.d.Geometry()
	bound := g.AccessTime(16)
	for i := 1; i < s.NumBlocks(); i++ {
		a, _ := s.Block(i - 1)
		b, _ := s.Block(i)
		if st := g.AccessTime(g.CylinderOf(int(b.Sector)) - g.CylinderOf(int(a.Sector))); st > bound {
			t.Fatalf("gap %d: %v exceeds constraint bound %v", i, st, bound)
		}
	}
}

func TestTimedReadBlockMatchesDiskModel(t *testing.T) {
	r := newRig(t)
	s := r.writeVideo(t, 9, 1024, 3, 8)
	rd := NewReader(r.d, s)
	peek, err := rd.PeekBlockTime(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	_, actual, _, err := rd.ReadBlockInto(0, 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if peek != actual {
		t.Fatalf("peek %v vs actual %v", peek, actual)
	}
}

// writeAudio records an audio strand of `units` 200-sample units at
// granularity 2 with silence elimination on; about half its blocks
// come out as silence holders.
func (r *rig) writeAudio(t *testing.T, units int, seed int64) *Strand {
	t.Helper()
	det := media.DefaultSilenceDetector()
	w, err := NewWriter(r.d, r.a, WriterConfig{
		ID:          r.st.NewID(),
		Medium:      layout.Audio,
		Rate:        10,
		UnitBytes:   200,
		Granularity: 2,
		Constraint:  alloc.Constraint{MinCylinders: 1, MaxCylinders: 16},
		Silence:     &det,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewAudioSource(units, 200, 10, 0.5, 10, seed)
	for {
		u, ok := src.Next()
		if !ok {
			break
		}
		if _, err := w.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	s, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	r.st.Put(s)
	return s
}

func TestSilenceBlocksInWriter(t *testing.T) {
	r := newRig(t)
	s := r.writeAudio(t, 40, 9)
	silent := 0
	for i := 0; i < s.NumBlocks(); i++ {
		e, _ := s.Block(i)
		if e.Silent() {
			silent++
		}
	}
	if silent == 0 || silent == s.NumBlocks() {
		t.Fatalf("silent blocks %d of %d", silent, s.NumBlocks())
	}
	// Silent blocks read back as fill, with zero disk time.
	rd := NewReader(r.d, s)
	var buf []byte
	for i := 0; i < s.NumBlocks(); i++ {
		e, _ := s.Block(i)
		if !e.Silent() {
			continue
		}
		data, dur, isSilent, err := rd.ReadBlockInto(0, i, &buf)
		if err != nil || !isSilent || dur != 0 {
			t.Fatalf("silence read: err=%v silent=%v dur=%v", err, isSilent, dur)
		}
		for _, b := range data {
			if b != SilenceFill(layout.Audio) {
				t.Fatal("silence fill mismatch")
			}
		}
	}
}

func TestWriterValidation(t *testing.T) {
	r := newRig(t)
	bad := []WriterConfig{
		{ID: Nil, Rate: 30, UnitBytes: 10, Granularity: 1},
		{ID: 1, Rate: 0, UnitBytes: 10, Granularity: 1},
		{ID: 1, Rate: 30, UnitBytes: 0, Granularity: 1},
		{ID: 1, Rate: 30, UnitBytes: 10, Granularity: 0},
	}
	for i, cfg := range bad {
		if _, err := NewWriter(r.d, r.a, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Wrong unit size rejected at append.
	w, err := NewWriter(r.d, r.a, WriterConfig{ID: 1, Medium: layout.Video, Rate: 30, UnitBytes: 10, Granularity: 1,
		Constraint: alloc.Constraint{MinCylinders: 1, MaxCylinders: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(media.Unit{Payload: make([]byte, 11)}); err == nil {
		t.Fatal("wrong-size unit accepted")
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err == nil {
		t.Fatal("double close accepted")
	}
	if _, err := w.Append(media.Unit{Payload: make([]byte, 10)}); err == nil {
		t.Fatal("append after close accepted")
	}
}

func TestWriterAbortFreesSectors(t *testing.T) {
	r := newRig(t)
	free := r.a.FreeSectors()
	w, err := NewWriter(r.d, r.a, WriterConfig{ID: r.st.NewID(), Medium: layout.Video, Rate: 30,
		UnitBytes: 512, Granularity: 1, Constraint: alloc.Constraint{MinCylinders: 1, MaxCylinders: 8}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(media.Unit{Seq: uint64(i), Payload: make([]byte, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Abort()
	if r.a.FreeSectors() != free {
		t.Fatalf("abort leaked %d sectors", free-r.a.FreeSectors())
	}
}

func TestStoreRemoveFreesEverything(t *testing.T) {
	r := newRig(t)
	free := r.a.FreeSectors()
	s := r.writeVideo(t, 30, 1024, 3, 11)
	if r.a.FreeSectors() >= free {
		t.Fatal("strand occupies nothing?")
	}
	if err := r.st.Remove(s.ID()); err != nil {
		t.Fatal(err)
	}
	if r.a.FreeSectors() != free {
		t.Fatalf("remove leaked %d sectors", free-r.a.FreeSectors())
	}
	if err := r.st.Remove(s.ID()); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestStoreMarshalUnmarshalRoundTrip(t *testing.T) {
	r := newRig(t)
	s1 := r.writeVideo(t, 12, 1024, 3, 12)
	s2 := r.writeVideo(t, 21, 512, 3, 13)
	data := r.st.Marshal(nil)

	st2 := NewStore(r.d, r.a)
	if err := st2.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 2 {
		t.Fatalf("restored %d strands", st2.Len())
	}
	for _, want := range []*Strand{s1, s2} {
		got, ok := st2.Get(want.ID())
		if !ok {
			t.Fatalf("strand %d lost", want.ID())
		}
		if got.UnitCount() != want.UnitCount() || got.NumBlocks() != want.NumBlocks() ||
			got.Granularity() != want.Granularity() || got.Rate() != want.Rate() {
			t.Fatalf("strand %d metadata mismatch", want.ID())
		}
	}
	// New IDs continue past the restored watermark.
	if id := st2.NewID(); id <= s2.ID() {
		t.Fatalf("next ID %d not past %d", id, s2.ID())
	}
	if err := st2.Unmarshal(data[:4]); err == nil {
		t.Fatal("truncated table accepted")
	}
}

func TestStoreDuplicatePutPanics(t *testing.T) {
	r := newRig(t)
	s := r.writeVideo(t, 3, 512, 1, 14)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate put did not panic")
		}
	}()
	r.st.Put(s)
}

func TestUnitRangeQuick(t *testing.T) {
	r := newRig(t)
	s := r.writeVideo(t, 50, 512, 4, 15)
	f := func(raw uint16) bool {
		u := uint64(raw) % 50
		blk, off, err := s.UnitRange(u)
		if err != nil {
			return false
		}
		return uint64(blk)*4+uint64(off) == u && off < 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.UnitRange(50); err == nil {
		t.Fatal("out-of-range unit accepted")
	}
}

func TestBuildFromEntries(t *testing.T) {
	r := newRig(t)
	src := r.writeVideo(t, 12, 1024, 3, 16)
	// Copy the first two blocks to fresh locations.
	rd := NewReader(r.d, src)
	var entries []layout.PrimaryEntry
	var scratch []byte
	for b := 0; b < 2; b++ {
		payload, silent, err := rd.BlockView(b, &scratch)
		if err != nil || silent {
			t.Fatal(err)
		}
		run, err := r.a.AllocateNearCylinder(100, len(payload)/r.d.Geometry().SectorSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.d.WriteAt(run.LBA, payload); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, layout.PrimaryEntry{Sector: uint32(run.LBA), SectorCount: uint32(run.Sectors)})
	}
	copyStrand, err := r.st.BuildFromEntries(BuildMeta{
		ID: r.st.NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 1024, Granularity: 3, UnitCount: 6,
	}, entries)
	if err != nil {
		t.Fatal(err)
	}
	crd := NewReader(r.d, copyStrand)
	for u := uint64(0); u < 6; u++ {
		got, err := unitAt(crd, u)
		if err != nil {
			t.Fatal(err)
		}
		want, err := unitAt(rd, u)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("copied unit %d differs", u)
		}
	}
}

func TestBlockSectors(t *testing.T) {
	r := newRig(t)
	s := r.writeVideo(t, 6, 1000, 3, 17)
	// 3 × 1000 bytes over 512-byte sectors → 6 sectors.
	if got := s.BlockSectors(512); got != 6 {
		t.Fatalf("block sectors %d", got)
	}
	if s.Duration() != 0.2 {
		t.Fatalf("duration %g", s.Duration())
	}
}
