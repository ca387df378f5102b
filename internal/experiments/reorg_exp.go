package experiments

import (
	"fmt"
	"time"

	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/media"
	"mmfs/internal/strand"
)

// Reorg regenerates §6.2's reorganization scenario: after churn
// (recording and deleting many small-block strands) the free space is
// fragmented into block-sized holes; a new strand with larger blocks
// cannot find policy-compliant placements and is cut short. Compacting
// the surviving strands consolidates the holes, after which the same
// recording succeeds in full.
func Reorg() Result {
	res := Result{
		ID:      "EXP-REORG",
		Title:   "Storage reorganization (§6.2): recording on a fragmented disk, before and after compaction",
		Headers: []string{"phase", "occupancy", "largest free run (sectors)", "blocks placed", "wanted"},
	}
	// A small disk makes fragmentation cheap to create.
	g := disk.Geometry{
		Cylinders:       160,
		Surfaces:        2,
		SectorsPerTrack: 32,
		SectorSize:      512,
		RPM:             3600,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         25 * time.Millisecond,
	}
	r := formatRig(core.Options{Geometry: g, TargetCylinders: 16})
	fs := r.fs

	// Churn: fill ~90% with small-block strands, then delete every
	// other one, leaving small scattered holes.
	writeStrand := func(q, frameB, blocks int, seed int64) *strand.Strand {
		return r.record(media.NewVideoSource(blocks*q, frameB, 30, seed),
			take{q: q, place: fs.Constraint(), start: int(seed*29) % g.Cylinders, untilFull: true})
	}
	var churn []*strand.Strand
	for i := 0; fs.Occupancy() < 0.88 && i < 500; i++ {
		churn = append(churn, writeStrand(3, 4500, 18, int64(100+i)))
	}
	for i := 0; i < len(churn); i += 2 {
		if err := fs.Strands().Remove(churn[i].ID()); err != nil {
			panic(err)
		}
	}

	// Attempt: a strand with 4× larger blocks, needing longer runs
	// than the churn holes provide.
	const wantBlocks = 20
	attempt := func(seed int64) (*strand.Strand, int) {
		s := writeStrand(12, 4500, wantBlocks, seed)
		return s, s.NumBlocks()
	}
	occBefore, freeBefore := fs.Occupancy(), fs.Allocator().LargestFreeRun()
	before, placedBefore := attempt(9000)
	res.AddRow("fragmented", fmt.Sprintf("%.0f%%", occBefore*100),
		fmt.Sprint(freeBefore), fmt.Sprint(placedBefore), fmt.Sprint(wantBlocks))
	// Remove the partial attempt before compaction.
	if err := fs.Strands().Remove(before.ID()); err != nil {
		panic(err)
	}

	rep, err := fs.Compact()
	if err != nil {
		panic(err)
	}
	occAfter, freeAfter := fs.Occupancy(), fs.Allocator().LargestFreeRun()
	_, placedAfter := attempt(9001)
	check(fs)
	res.AddRow("after Compact()", fmt.Sprintf("%.0f%%", occAfter*100),
		fmt.Sprint(freeAfter), fmt.Sprint(placedAfter), fmt.Sprint(wantBlocks))

	res.Note("paper §6.2: \"when it becomes impossible to place new media strands … the storage of existing media strands on the disk may have to be reorganized\"")
	res.Note("compaction relocated %d strand(s) (%d sectors), growing the largest free run %d → %d sectors",
		rep.Moved, rep.SectorsMoved, rep.LargestFreeRunBefore, rep.LargestFreeRunAfter)
	return res
}
