package strand

import (
	"bytes"
	"testing"

	"mmfs/internal/alloc"
	"mmfs/internal/layout"
	"mmfs/internal/media"
)

// writeVBR records a variable-rate strand through the writer.
func (r *rig) writeVBR(t *testing.T, frames, peak, diff, gop, q int, seed int64) *Strand {
	t.Helper()
	w, err := NewWriter(r.d, r.a, WriterConfig{
		ID:          r.st.NewID(),
		Medium:      layout.Video,
		Rate:        30,
		UnitBytes:   peak,
		Granularity: q,
		Variable:    true,
		Constraint:  alloc.Constraint{MinCylinders: 1, MaxCylinders: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	src := media.NewVBRVideoSource(frames, peak, diff, gop, 30, seed)
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

func TestVBRRoundTrip(t *testing.T) {
	r := newRig(t)
	const frames, peak, diff, gop, q = 60, 8192, 2048, 10, 3
	s := r.writeVBR(t, frames, peak, diff, gop, q, 99)
	if !s.Variable() {
		t.Fatal("strand not flagged variable")
	}
	if s.UnitCount() != frames {
		t.Fatalf("units %d", s.UnitCount())
	}
	rd := NewReader(r.d, s)
	for f := uint64(0); f < frames; f++ {
		got, err := unitAt(rd, f)
		if err != nil {
			t.Fatalf("unit %d: %v", f, err)
		}
		want := media.VBRFramePayload(99, f, peak, diff, gop)
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: %d bytes vs %d expected", f, len(got), len(want))
		}
	}
}

func TestVBRBlocksShrinkToContent(t *testing.T) {
	r := newRig(t)
	const frames, peak, diff, gop, q = 60, 8192, 2048, 10, 3
	s := r.writeVBR(t, frames, peak, diff, gop, q, 7)
	ss := r.d.Geometry().SectorSize
	peakBlockSectors := (q*(peak+4) + ss - 1) / ss
	smaller := 0
	total := 0
	for i := 0; i < s.NumBlocks(); i++ {
		e, _ := s.Block(i)
		total += int(e.SectorCount)
		if int(e.SectorCount) < peakBlockSectors {
			smaller++
		}
	}
	if smaller == 0 {
		t.Fatal("no block smaller than peak provisioning")
	}
	// Storage must be well below peak provisioning (gop 10 at 4:1
	// peak:diff ratio → ~2.7:1 gain).
	if total >= s.NumBlocks()*peakBlockSectors*2/3 {
		t.Fatalf("VBR stored %d sectors, peak provisioning %d: no meaningful gain",
			total, s.NumBlocks()*peakBlockSectors)
	}
}

func TestVBRSurvivesStoreRoundTrip(t *testing.T) {
	r := newRig(t)
	s := r.writeVBR(t, 30, 4096, 1024, 5, 3, 11)
	data := r.st.Marshal(nil)
	st2 := NewStore(r.d, r.a)
	if err := st2.Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	got, ok := st2.Get(s.ID())
	if !ok {
		t.Fatal("strand lost")
	}
	if !got.Variable() {
		t.Fatal("variable flag lost across persistence")
	}
	rd := NewReader(r.d, got)
	u, err := unitAt(rd, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(u, media.VBRFramePayload(11, 7, 4096, 1024, 5)) {
		t.Fatal("unit corrupted after reload")
	}
}

func TestVBRRejectsOversizedUnit(t *testing.T) {
	r := newRig(t)
	w, err := NewWriter(r.d, r.a, WriterConfig{
		ID: r.st.NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 1000,
		Granularity: 1, Variable: true,
		Constraint: alloc.Constraint{MinCylinders: 1, MaxCylinders: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(media.Unit{Payload: make([]byte, 1001)}); err == nil {
		t.Fatal("unit above peak accepted")
	}
	if _, err := w.Append(media.Unit{Payload: nil}); err == nil {
		t.Fatal("empty unit accepted")
	}
	if _, err := w.Append(media.Unit{Payload: make([]byte, 500)}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVBRSourceDeterministic(t *testing.T) {
	a := media.NewVBRVideoSource(20, 4096, 1024, 5, 30, 3)
	b := media.NewVBRVideoSource(20, 4096, 1024, 5, 30, 3)
	for {
		ua, oka := a.Next()
		ub, okb := b.Next()
		if oka != okb {
			t.Fatal("length divergence")
		}
		if !oka {
			break
		}
		if !bytes.Equal(ua.Payload, ub.Payload) {
			t.Fatalf("frame %d differs", ua.Seq)
		}
	}
	// Intra frames hit the peak exactly on the GOP boundary.
	if media.VBRFrameSize(3, 0, 4096, 1024, 5) != 4096 {
		t.Fatal("frame 0 not intra")
	}
	if media.VBRFrameSize(3, 5, 4096, 1024, 5) != 4096 {
		t.Fatal("frame 5 not intra")
	}
	if media.VBRFrameSize(3, 1, 4096, 1024, 5) >= 4096 {
		t.Fatal("difference frame at peak size")
	}
	if !media.IsVariable(a) {
		t.Fatal("VBR source not variable")
	}
	if media.IsVariable(media.NewVideoSource(1, 100, 30, 1)) {
		t.Fatal("CBR source claims variable")
	}
}
