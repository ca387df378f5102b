package core

import (
	"fmt"
	"slices"

	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// Problem is one inconsistency found by Check.
type Problem struct {
	// Kind is a short category ("leak", "overlap", "unallocated",
	// "dangling-ref", "interest", "range", "memo").
	Kind string
	// Detail describes the finding.
	Detail string
}

// String renders the problem.
func (p Problem) String() string { return fmt.Sprintf("%s: %s", p.Kind, p.Detail) }

// claimant is a structure that claims sectors during Check: one of the
// fixed metadata regions, a strand's media or index blocks, or a text
// file.
type claimant struct {
	kind   string
	strand strand.ID
	file   string
}

// String renders the claimant as problems name it.
func (c claimant) String() string {
	switch c.kind {
	case "media", "index":
		return fmt.Sprintf("strand-%d-%s", c.strand, c.kind)
	case "text":
		return fmt.Sprintf("text-%q", c.file)
	}
	return c.kind
}

// Check is the file system's integrity checker (fsck): it verifies
// that every reachable structure — superblock tables, strand media and
// index blocks, text-file extents — is marked allocated, that no two
// structures overlap, that the allocator tracks no unreachable
// sectors, that every rope reference resolves to a registered strand
// within range, that the interests table matches the ropes, and that
// the repeat-play memo holds plans of live ropes' video and audio alone.
// It is read-only; callers decide what to do about findings.
func (fs *FS) Check() []Problem {
	var problems []Problem
	total := fs.a.TotalSectors()
	// owner[i] is the claimant of sector i, as an index into claimants
	// plus one; names are formatted only when a problem is reported.
	owner := make([]uint32, total)
	var claimants []claimant
	enrol := func(c claimant) uint32 {
		claimants = append(claimants, c)
		return uint32(len(claimants))
	}
	claim := func(id uint32, lba, n int) {
		if lba < 0 || n < 0 || lba+n > total {
			problems = append(problems, Problem{Kind: "range",
				Detail: fmt.Sprintf("%s claims sectors [%d,%d) outside the disk", claimants[id-1], lba, lba+n)})
			return
		}
		for i := lba; i < lba+n; i++ {
			if owner[i] != 0 {
				problems = append(problems, Problem{Kind: "overlap",
					Detail: fmt.Sprintf("sector %d claimed by both %s and %s", i, claimants[owner[i]-1], claimants[id-1])})
				return
			}
			owner[i] = id
			if !fs.a.InUse(i) {
				problems = append(problems, Problem{Kind: "unallocated",
					Detail: fmt.Sprintf("%s uses sector %d but the allocator marks it free", claimants[id-1], i)})
				return
			}
		}
	}

	// Metadata region.
	claim(enrol(claimant{kind: "superblock"}), 0, 1)
	claim(enrol(claimant{kind: "bitmap"}), fs.bitmapLBA, fs.bitmapSectors)
	if fs.strandTab.Sectors > 0 {
		claim(enrol(claimant{kind: "strand-table"}), fs.strandTab.LBA, fs.strandTab.Sectors)
	}
	if fs.ropeTab.Sectors > 0 {
		claim(enrol(claimant{kind: "rope-table"}), fs.ropeTab.LBA, fs.ropeTab.Sectors)
	}
	if fs.textTab.Sectors > 0 {
		claim(enrol(claimant{kind: "text-table"}), fs.textTab.LBA, fs.textTab.Sectors)
	}

	// Strands: media blocks and index blocks.
	for _, id := range fs.strands.IDs() {
		s := fs.strands.MustGet(id)
		media, index := enrol(claimant{kind: "media", strand: id}), enrol(claimant{kind: "index", strand: id})
		for _, run := range s.MediaRuns() {
			claim(media, run.LBA, run.Sectors)
		}
		for _, run := range s.MetaRuns() {
			claim(index, run.LBA, run.Sectors)
		}
	}

	// Text files.
	for _, name := range fs.text.List() {
		file := enrol(claimant{kind: "text", file: name})
		for _, run := range fs.text.Extents(name) {
			claim(file, run.LBA, run.Sectors)
		}
	}

	// Rope references resolve and stay within their strands.
	truth := make(map[uint64][]strand.ID)
	for _, rid := range fs.ropes.IDs() {
		r, _ := fs.ropes.Get(rid)
		truth[uint64(rid)] = r.Strands()
		for i, iv := range r.Intervals {
			check := func(name string, ref *rope.ComponentRef) {
				if ref == nil || ref.Strand == strand.Nil {
					return
				}
				s, ok := fs.strands.Get(ref.Strand)
				if !ok {
					problems = append(problems, Problem{Kind: "dangling-ref",
						Detail: fmt.Sprintf("rope %d interval %d %s references unknown strand %d", rid, i, name, ref.Strand)})
					return
				}
				// A ref exactly at the strand end is legal: duration
				// rounding at split points can leave a sub-unit
				// residue that plays as a delay. Only refs strictly
				// beyond the strand are corrupt.
				if avail := s.UnitCount(); ref.StartUnit > avail {
					problems = append(problems, Problem{Kind: "range",
						Detail: fmt.Sprintf("rope %d interval %d %s starts at unit %d of strand %d (%d units)", rid, i, name, ref.StartUnit, ref.Strand, avail)})
				}
			}
			check("video", iv.Video)
			check("audio", iv.Audio)
		}
	}

	// Interests match the ropes exactly.
	if err := fs.interests.Audit(truth); err != nil {
		problems = append(problems, Problem{Kind: "interest", Detail: err.Error()})
	}

	// The memo holds no plan a PLAY could not ask for.
	var stale []string
	for key := range fs.plays {
		if _, ok := fs.ropes.Get(key.rope); !ok || key.m != rope.VideoOnly && key.m != rope.AudioOnly {
			stale = append(stale, fmt.Sprintf("rope %d %v", key.rope, key.m))
		}
	}
	if slices.Sort(stale); len(stale) > 0 {
		problems = append(problems, Problem{Kind: "memo", Detail: fmt.Sprintf("the repeat-play memo holds plans of %v", stale)})
	}

	// Leak detection: allocated sectors nothing claims.
	leaked := 0
	for i := 0; i < total; i++ {
		if fs.a.InUse(i) && owner[i] == 0 {
			leaked++
		}
	}
	if leaked > 0 {
		problems = append(problems, Problem{Kind: "leak",
			Detail: fmt.Sprintf("%d allocated sector(s) unreachable from any structure", leaked)})
	}
	return problems
}
