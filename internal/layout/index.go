package layout

import (
	"fmt"
)

// Index is a strand's fully resolved 3-level index: the header, every
// primary entry in block-number order, and the locations of the index
// blocks themselves (so garbage collection can reclaim them along with
// the media blocks).
type Index struct {
	// Header is the decoded Header Block.
	Header Header
	// Entries maps media block number → disk address (or silence).
	Entries []PrimaryEntry
	// HeaderRun locates the Header Block on disk.
	HeaderRun SecondaryRun
	// MetaRuns locates every Secondary and Primary Block.
	MetaRuns []SecondaryRun
}

// Block returns the primary entry for media block i.
func (ix *Index) Block(i int) (PrimaryEntry, error) {
	if i < 0 || i >= len(ix.Entries) {
		return PrimaryEntry{}, fmt.Errorf("layout: block %d outside strand of %d blocks", i, len(ix.Entries))
	}
	return ix.Entries[i], nil
}

// NumBlocks is the number of media blocks (including silence holders).
func (ix *Index) NumBlocks() int { return len(ix.Entries) }

// AllocFunc reserves a run of sectors for an index block and returns
// its starting LBA. The layout package stays ignorant of allocation
// policy; internal/strand passes the allocator's first-fit method.
type AllocFunc func(sectors int) (int, error)

// BuildIndex writes the 3-level index for the given header metadata
// and primary entries: Primary Blocks first, then Secondary Blocks
// pointing at them, then the Header Block pointing at the Secondary
// Blocks. Index writes are metadata-path operations and are untimed
// (continuity concerns only media block transfers).
func BuildIndex(h Header, entries []PrimaryEntry, sectorSize int, alloc AllocFunc, sink Sink) (*Index, error) {
	if sectorSize < primaryEntrySize {
		return nil, fmt.Errorf("layout: sector size %d below entry size", sectorSize)
	}
	h.BlockCount = uint32(len(entries))

	ix := &Index{Entries: entries}

	// Level 1: primary blocks.
	pfan := PrimaryEntriesPerBlock(sectorSize)
	var secEntries []SecondaryEntry
	for start := 0; start < len(entries); start += pfan {
		end := start + pfan
		if end > len(entries) {
			end = len(entries)
		}
		chunk := entries[start:end]
		buf := EncodePrimary(chunk, sectorSize)
		nsec := len(buf) / sectorSize
		lba, err := alloc(nsec)
		if err != nil {
			return nil, fmt.Errorf("layout: primary block: %w", err)
		}
		if err := sink.WriteAt(lba, buf); err != nil {
			return nil, err
		}
		ix.MetaRuns = append(ix.MetaRuns, SecondaryRun{Sector: uint32(lba), SectorCount: uint32(nsec)})
		secEntries = append(secEntries, SecondaryEntry{
			StartBlock:  uint32(start),
			BlockCount:  uint32(len(chunk)),
			Sector:      uint32(lba),
			SectorCount: uint32(nsec),
		})
	}
	// A strand with zero blocks still gets an empty index so it can
	// be loaded and garbage collected uniformly.

	// Level 2: secondary blocks.
	sfan := SecondaryEntriesPerBlock(sectorSize)
	var secondaries []SecondaryRun
	for start := 0; start < len(secEntries) || (start == 0 && len(secEntries) == 0); start += sfan {
		end := start + sfan
		if end > len(secEntries) {
			end = len(secEntries)
		}
		buf := EncodeSecondary(secEntries[start:end], sectorSize)
		nsec := len(buf) / sectorSize
		lba, err := alloc(nsec)
		if err != nil {
			return nil, fmt.Errorf("layout: secondary block: %w", err)
		}
		if err := sink.WriteAt(lba, buf); err != nil {
			return nil, err
		}
		run := SecondaryRun{Sector: uint32(lba), SectorCount: uint32(nsec)}
		ix.MetaRuns = append(ix.MetaRuns, run)
		secondaries = append(secondaries, run)
		if len(secEntries) == 0 {
			break
		}
	}

	// Level 3: header block.
	h.Secondaries = secondaries
	buf, err := EncodeHeader(h, sectorSize, 8)
	if err != nil {
		return nil, err
	}
	nsec := len(buf) / sectorSize
	lba, err := alloc(nsec)
	if err != nil {
		return nil, fmt.Errorf("layout: header block: %w", err)
	}
	if err := sink.WriteAt(lba, buf); err != nil {
		return nil, err
	}
	ix.Header = h
	ix.HeaderRun = SecondaryRun{Sector: uint32(lba), SectorCount: uint32(nsec)}
	return ix, nil
}

// LoadIndex reads and resolves a strand index from its header block
// address.
func LoadIndex(src Source, headerLBA, headerSectors, sectorSize int) (*Index, error) {
	hbuf, err := src.ReadAt(headerLBA, headerSectors)
	if err != nil {
		return nil, err
	}
	h, err := DecodeHeader(hbuf)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		Header:    h,
		HeaderRun: SecondaryRun{Sector: uint32(headerLBA), SectorCount: uint32(headerSectors)},
	}
	ix.Entries = make([]PrimaryEntry, 0, h.BlockCount)
	for _, srun := range h.Secondaries {
		sbuf, err := src.ReadAt(int(srun.Sector), int(srun.SectorCount))
		if err != nil {
			return nil, err
		}
		ses, err := DecodeSecondary(sbuf)
		if err != nil {
			return nil, err
		}
		ix.MetaRuns = append(ix.MetaRuns, srun)
		for _, se := range ses {
			pbuf, err := src.ReadAt(int(se.Sector), int(se.SectorCount))
			if err != nil {
				return nil, err
			}
			pes, err := DecodePrimary(pbuf, int(se.BlockCount))
			if err != nil {
				return nil, err
			}
			if int(se.StartBlock) != len(ix.Entries) {
				return nil, fmt.Errorf("layout: secondary entry starts at block %d, expected %d", se.StartBlock, len(ix.Entries))
			}
			ix.MetaRuns = append(ix.MetaRuns, SecondaryRun{Sector: se.Sector, SectorCount: se.SectorCount})
			ix.Entries = append(ix.Entries, pes...)
		}
	}
	if len(ix.Entries) != int(h.BlockCount) {
		return nil, fmt.Errorf("layout: index resolves %d blocks, header claims %d", len(ix.Entries), h.BlockCount)
	}
	return ix, nil
}
