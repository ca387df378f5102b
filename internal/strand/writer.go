package strand

import (
	"encoding/binary"
	"fmt"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
	"mmfs/internal/layout"
	"mmfs/internal/media"
)

// WriterConfig parameterizes recording of one strand.
type WriterConfig struct {
	// ID is the strand's unique ID (assigned by the store).
	ID ID
	// Medium is the strand's media kind.
	Medium layout.Medium
	// Rate is the recording rate in units/second.
	Rate float64
	// UnitBytes is the size of one unit in bytes.
	UnitBytes int
	// Granularity is the storage granularity q in units per block,
	// from the continuity derivation.
	Granularity int
	// Variable enables variable-rate compression support (§6.2):
	// units may have any size up to UnitBytes (the peak), blocks
	// shrink to their content, and each unit is stored with a length
	// prefix.
	Variable bool
	// Constraint bounds the placement of successive blocks (the
	// scattering parameter mapped to cylinders).
	Constraint alloc.Constraint
	// Silence, if non-nil, enables silence detection and elimination
	// for audio strands (§4).
	Silence *media.SilenceDetector
	// StartCylinder hints where the strand's first block should
	// land; recording spreads strands across the disk by varying it.
	StartCylinder int
}

func (c WriterConfig) validate() error {
	switch {
	case c.ID == Nil:
		return fmt.Errorf("strand: writer needs a non-nil strand ID")
	case c.Rate <= 0:
		return fmt.Errorf("strand: writer rate %g ≤ 0", c.Rate)
	case c.UnitBytes < 1:
		return fmt.Errorf("strand: writer unit size %d < 1 byte", c.UnitBytes)
	case c.Granularity < 1:
		return fmt.Errorf("strand: writer granularity %d < 1", c.Granularity)
	}
	return nil
}

// Writer records one strand: it accumulates units into blocks of
// Granularity units, places each block by constrained allocation,
// performs the timed disk write, and on Close builds the 3-level
// index. The strand becomes immutable the moment Close returns.
type Writer struct {
	cfg     WriterConfig
	d       disk.Device
	a       *alloc.Allocator
	pending []media.Unit
	entries []layout.PrimaryEntry
	// blockBuf is the reusable flush assembly buffer; valid only
	// during one flush.
	blockBuf []byte
	units    uint64
	prev     alloc.Run
	havePrev bool
	closed   bool
}

// NewWriter starts recording a strand.
func NewWriter(d disk.Device, a *alloc.Allocator, cfg WriterConfig) (*Writer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Writer{cfg: cfg, d: d, a: a}, nil
}

// Append adds one unit to the strand. When a full block of
// Granularity units has accumulated it is flushed; the returned
// duration is the disk service time of that flush (zero when no block
// was written). Recording and playback have symmetric continuity
// requirements (§3's assumptions), so the storage manager charges
// these times against the same per-round budget as reads.
func (w *Writer) Append(u media.Unit) (time.Duration, error) {
	if w.closed {
		return 0, fmt.Errorf("strand %d: append after close", w.cfg.ID)
	}
	if w.cfg.Variable {
		if len(u.Payload) < 1 || len(u.Payload) > w.cfg.UnitBytes {
			return 0, fmt.Errorf("strand %d: variable unit %d is %d bytes, want 1..%d", w.cfg.ID, u.Seq, len(u.Payload), w.cfg.UnitBytes)
		}
	} else if len(u.Payload) != w.cfg.UnitBytes {
		return 0, fmt.Errorf("strand %d: unit %d is %d bytes, want %d", w.cfg.ID, u.Seq, len(u.Payload), w.cfg.UnitBytes)
	}
	w.pending = append(w.pending, u)
	w.units++
	if len(w.pending) < w.cfg.Granularity {
		return 0, nil
	}
	return w.flush()
}

// flush writes the pending block (or records a silence holder).
func (w *Writer) flush() (time.Duration, error) {
	if len(w.pending) == 0 {
		return 0, nil
	}
	defer func() { w.pending = w.pending[:0] }()

	if w.cfg.Silence != nil && w.allPendingSilent() {
		// §4: no audio data is stored for a silent block; a NULL
		// pointer in the primary block represents the delay.
		w.entries = append(w.entries, layout.SilenceEntry())
		return 0, nil
	}

	// Assemble the block into the reusable scratch buffer; Write
	// copies it into the disk's backing store before returning.
	buf := w.blockBuf[:0]
	if w.cfg.Variable {
		// Self-describing block: a 32-bit length prefixes each unit.
		for _, u := range w.pending {
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(u.Payload)))
			buf = append(buf, hdr[:]...)
			buf = append(buf, u.Payload...)
		}
	} else {
		for _, u := range w.pending {
			buf = append(buf, u.Payload...)
		}
	}
	w.blockBuf = buf
	ss := w.d.Geometry().SectorSize
	nsec := (len(buf) + ss - 1) / ss
	run, err := w.allocateBlock(nsec)
	if err != nil {
		// The pending units are lost with the failed block; keep the
		// unit count consistent with what lands on disk.
		w.units -= uint64(len(w.pending))
		return 0, err
	}
	t, err := w.d.Write(run.LBA, buf)
	if err != nil {
		w.a.Free(run)
		w.units -= uint64(len(w.pending))
		return 0, err
	}
	w.entries = append(w.entries, layout.PrimaryEntry{Sector: uint32(run.LBA), SectorCount: uint32(run.Sectors)})
	w.prev = run
	w.havePrev = true
	return t, nil
}

func (w *Writer) allPendingSilent() bool {
	for _, u := range w.pending {
		if !w.cfg.Silence.Silent(u.Payload) {
			return false
		}
	}
	return true
}

func (w *Writer) allocateBlock(nsec int) (alloc.Run, error) {
	if !w.havePrev {
		return w.a.AllocateNearCylinder(w.cfg.StartCylinder, nsec)
	}
	return w.a.AllocateConstrained(w.prev, nsec, w.cfg.Constraint)
}

// Close flushes any partial final block, builds the index, and
// returns the completed immutable strand. A partial block is padded
// on disk but the header's unit count preserves the true length.
func (w *Writer) Close() (*Strand, error) {
	if w.closed {
		return nil, fmt.Errorf("strand %d: double close", w.cfg.ID)
	}
	w.closed = true
	if len(w.pending) > 0 {
		if _, err := w.flush(); err != nil {
			return nil, err
		}
	}
	var flags uint8
	if w.cfg.Variable {
		flags |= layout.FlagVariable
	}
	h := layout.Header{
		StrandID:    uint64(w.cfg.ID),
		Medium:      w.cfg.Medium,
		Flags:       flags,
		RateMilli:   uint64(w.cfg.Rate * 1000),
		UnitBits:    uint32(w.cfg.UnitBytes * 8),
		Granularity: uint32(w.cfg.Granularity),
		UnitCount:   w.units,
	}
	ix, err := layout.BuildIndex(h, w.entries, w.d.Geometry().SectorSize, w.allocMeta, w.d)
	if err != nil {
		return nil, err
	}
	return FromIndex(ix), nil
}

// Abort releases everything the writer has allocated; used when a
// RECORD request is stopped by an error.
func (w *Writer) Abort() {
	w.closed = true
	for _, e := range w.entries {
		if e.Silent() {
			continue
		}
		w.a.Free(alloc.Run{LBA: int(e.Sector), Sectors: int(e.SectorCount)})
	}
	w.entries = nil
	w.pending = nil
}

func (w *Writer) allocMeta(sectors int) (int, error) {
	r, err := w.a.Allocate(sectors)
	if err != nil {
		return 0, err
	}
	return r.LBA, nil
}

// UnitsWritten reports how many units have been appended so far.
func (w *Writer) UnitsWritten() uint64 { return w.units }

// BlocksWritten reports how many blocks (including silence holders)
// have been emitted so far.
func (w *Writer) BlocksWritten() int { return len(w.entries) }
