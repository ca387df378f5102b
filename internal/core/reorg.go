package core

import (
	"bytes"
	"fmt"

	"mmfs/internal/alloc"
	"mmfs/internal/layout"
	"mmfs/internal/strand"
)

// This file implements §6.2's storage reorganization: "When it becomes
// impossible to place new media strands in such a way that their
// scattering bounds are satisfied, the storage of existing media
// strands on the disk may have to be reorganized." ReorganizeStrand
// relocates one strand's blocks into a fresh policy-compliant chain;
// Compact packs every strand against a moving frontier, consolidating
// the free space that fragmentation has scattered.

// ReorganizeStrand relocates the strand's media blocks into a new
// constrained chain starting near startCylinder, rewrites every rope
// reference to point at the relocated strand, frees the old blocks,
// and re-smooths every junction of the ropes that reference it (the
// copies count in mmfs_edit_copied_blocks_total, as an edit's do). It
// returns the relocated strand. Strands are immutable, so relocation
// necessarily mints a new strand ID.
//
// The payloads are staged in memory and the old placement freed
// *before* re-placement — reorganization exists precisely for disks
// too fragmented to hold two copies of a chain at once. A block that
// still finds no constrained placement falls back to unconstrained
// (nearest-free) placement rather than failing: data is never lost,
// and a later Compact pass can improve its position.
func (fs *FS) ReorganizeStrand(id strand.ID, startCylinder int) (*strand.Strand, error) {
	old, ok := fs.strands.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: reorganize of unknown strand %d", id)
	}
	rd := strand.NewReader(fs.d, old)
	g := fs.d.Geometry()

	// Stage every payload, then release the old strand's space.
	type staged struct {
		payload []byte
		silent  bool
	}
	blocks := make([]staged, old.NumBlocks())
	var scratch []byte
	for b := range blocks {
		view, silent, err := rd.BlockView(b, &scratch)
		if err != nil {
			return nil, err
		}
		blocks[b] = staged{payload: bytes.Clone(view), silent: silent}
	}
	meta := strand.BuildMeta{
		ID:          fs.strands.NewID(),
		Medium:      old.Medium(),
		Rate:        old.Rate(),
		UnitBytes:   old.UnitBytes(),
		Granularity: old.Granularity(),
		UnitCount:   old.UnitCount(),
		Variable:    old.Variable(),
	}
	if err := fs.strands.Remove(id); err != nil {
		return nil, err
	}

	var entries []layout.PrimaryEntry
	var prev alloc.Run
	havePrev := false
	for _, blk := range blocks {
		if blk.silent {
			entries = append(entries, layout.SilenceEntry())
			continue
		}
		nsec := (len(blk.payload) + g.SectorSize - 1) / g.SectorSize
		var run alloc.Run
		var err error
		if !havePrev {
			run, err = fs.a.AllocateNearCylinder(startCylinder, nsec)
		} else {
			run, err = fs.a.AllocateConstrained(prev, nsec, fs.Constraint())
			if err != nil {
				// Fragmentation fallback: place unconstrained near
				// the chain rather than lose the block.
				run, err = fs.a.AllocateNearCylinder(g.CylinderOf(prev.LBA), nsec)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: reorganize strand %d: %w", id, err)
		}
		if err := fs.d.WriteAt(run.LBA, blk.payload); err != nil {
			fs.a.Free(run)
			return nil, err
		}
		entries = append(entries, layout.PrimaryEntry{Sector: uint32(run.LBA), SectorCount: uint32(run.Sectors)})
		prev = run
		havePrev = true
	}
	relocated, err := fs.strands.BuildFromEntries(meta, entries)
	if err != nil {
		return nil, err
	}
	// The relocation moved one end of every junction the strand is at:
	// the ropes that reference it are smoothed again, as an edit's are.
	for _, r := range fs.ropes.ReplaceStrandRefs(id, relocated.ID()) {
		if _, err := fs.smooth(r); err != nil {
			return relocated, err
		}
	}
	return relocated, nil
}

// CompactReport summarizes a Compact run.
type CompactReport struct {
	// Moved is the number of strands relocated.
	Moved int
	// SectorsMoved is the media payload relocated, in sectors.
	SectorsMoved int
	// LargestFreeRunBefore and After measure consolidation in
	// sectors.
	LargestFreeRunBefore int
	LargestFreeRunAfter  int
}

// Compact relocates every strand toward the start of the disk,
// weaving the constrained chains of successive strands into each
// other's scattering gaps (each chain is re-placed from cylinder 0 and
// takes the first policy-compliant holes), packing media at the front
// and consolidating free space at the end — the reorganization §6.2
// calls for when constrained allocation starts failing on a
// fragmented disk.
func (fs *FS) Compact() (CompactReport, error) {
	rep := CompactReport{LargestFreeRunBefore: fs.a.LargestFreeRun()}
	for _, id := range fs.strands.IDs() {
		moved, err := fs.ReorganizeStrand(id, 0)
		if err != nil {
			return rep, err
		}
		rep.Moved++
		for _, run := range moved.MediaRuns() {
			rep.SectorsMoved += run.Sectors
		}
	}
	rep.LargestFreeRunAfter = fs.a.LargestFreeRun()
	return rep, nil
}
