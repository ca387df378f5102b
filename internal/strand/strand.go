// Package strand implements the paper's strand abstraction: "an
// immutable sequence of continuously recorded audio samples or video
// frames" (§2). A strand's media blocks are placed by constrained
// allocation so the scattering parameter stays within bounds, and are
// located through the 3-level index of internal/layout. Immutability
// "is necessary to simplify the process of garbage collection": all
// editing happens above, in internal/rope, by manipulating pointers to
// strand intervals.
package strand

import (
	"fmt"

	"mmfs/internal/alloc"
	"mmfs/internal/layout"
)

// ID uniquely identifies a strand within one file system.
type ID uint64

// Nil is the absent-strand ID (the paper: "a NULL ID indicates the
// absence of that media in the rope").
const Nil ID = 0

// Strand is a loaded, immutable media strand.
type Strand struct {
	ix *layout.Index
}

// FromIndex wraps a resolved index as a strand.
func FromIndex(ix *layout.Index) *Strand { return &Strand{ix: ix} }

// ID returns the strand's unique ID.
func (s *Strand) ID() ID { return ID(s.ix.Header.StrandID) }

// Medium reports whether the strand holds video frames or audio
// samples.
func (s *Strand) Medium() layout.Medium { return s.ix.Header.Medium }

// Rate is the recording rate in units/second (Figure 6's frameRate).
func (s *Strand) Rate() float64 { return s.ix.Header.Rate() }

// Granularity is the storage granularity in units per media block.
func (s *Strand) Granularity() int { return int(s.ix.Header.Granularity) }

// UnitBits is the size of one unit in bits.
func (s *Strand) UnitBits() int { return int(s.ix.Header.UnitBits) }

// UnitBytes is the size of one unit in bytes (unit sizes are whole
// bytes in this implementation); for variable-rate strands it is the
// peak unit size.
func (s *Strand) UnitBytes() int { return int(s.ix.Header.UnitBits) / 8 }

// Variable reports whether the strand stores variable-size units
// (variable-rate compression, §6.2).
func (s *Strand) Variable() bool { return s.ix.Header.Flags&layout.FlagVariable != 0 }

// UnitCount is the total number of recorded units, including units in
// eliminated silent blocks (Figure 6's frameCount).
func (s *Strand) UnitCount() uint64 { return s.ix.Header.UnitCount }

// NumBlocks is the number of media blocks including silence holders.
func (s *Strand) NumBlocks() int { return s.ix.NumBlocks() }

// Duration is the strand's playback duration in seconds.
func (s *Strand) Duration() float64 { return float64(s.UnitCount()) / s.Rate() }

// Block returns the index entry for media block i.
func (s *Strand) Block(i int) (layout.PrimaryEntry, error) { return s.ix.Block(i) }

// BlockSectors is the size of a full (non-silent) media block in
// sectors for the given sector size.
func (s *Strand) BlockSectors(sectorSize int) int {
	bytes := s.Granularity() * s.UnitBytes()
	return (bytes + sectorSize - 1) / sectorSize
}

// Index exposes the underlying index; the store and GC use it.
func (s *Strand) Index() *layout.Index { return s.ix }

// MediaRuns lists the disk runs of all non-silent media blocks.
func (s *Strand) MediaRuns() []alloc.Run {
	var runs []alloc.Run
	for _, e := range s.ix.Entries {
		if e.Silent() {
			continue
		}
		runs = append(runs, alloc.Run{LBA: int(e.Sector), Sectors: int(e.SectorCount)})
	}
	return runs
}

// MetaRuns lists the disk runs of the index blocks (header, secondary,
// primary).
func (s *Strand) MetaRuns() []alloc.Run {
	runs := []alloc.Run{{LBA: int(s.ix.HeaderRun.Sector), Sectors: int(s.ix.HeaderRun.SectorCount)}}
	for _, m := range s.ix.MetaRuns {
		runs = append(runs, alloc.Run{LBA: int(m.Sector), Sectors: int(m.SectorCount)})
	}
	return runs
}

// UnitRange describes which media block holds unit u and at what
// offset.
func (s *Strand) UnitRange(u uint64) (block int, offset int, err error) {
	if u >= s.UnitCount() {
		return 0, 0, fmt.Errorf("strand %d: unit %d outside %d units", s.ID(), u, s.UnitCount())
	}
	q := uint64(s.Granularity())
	return int(u / q), int(u % q), nil
}
