package alloc

import (
	"errors"
	"fmt"
	"time"

	"mmfs/internal/disk"
)

// ErrNoSpace reports that no placement satisfying the request exists.
// For constrained allocations this may mean the disk needs
// reorganization (§6.2 of the paper) rather than being full.
var ErrNoSpace = errors.New("alloc: no placement satisfies the request")

// Run is a contiguous extent of sectors.
type Run struct {
	LBA     int
	Sectors int
}

// End is the first sector past the run.
func (r Run) End() int { return r.LBA + r.Sectors }

// Stats counts allocator activity.
type Stats struct {
	Allocs            uint64
	Frees             uint64
	ConstrainedAllocs uint64
	ConstrainedFails  uint64
	SectorsAllocated  uint64
	SectorsFreed      uint64
}

// Allocator manages sector occupancy for one disk and implements both
// unconstrained (first-fit) allocation for metadata and text files and
// constrained allocation for media blocks, where the cylinder distance
// between successive blocks of a strand must fall within the bounds
// derived from the scattering parameter.
//
// Allocator is not safe for concurrent use; the storage manager
// serializes access.
type Allocator struct {
	geom  disk.Geometry
	bm    *bitmap
	stats Stats
}

// New creates an allocator for the geometry with the first reserved
// sectors (metadata region) pre-allocated.
func New(g disk.Geometry, reserved int) (*Allocator, error) {
	total := g.TotalSectors()
	if reserved < 0 || reserved > total {
		return nil, fmt.Errorf("alloc: reserved %d outside [0,%d]", reserved, total)
	}
	a := &Allocator{geom: g, bm: newBitmap(total)}
	if reserved > 0 {
		a.bm.setRange(0, reserved)
	}
	return a, nil
}

// Geometry returns the geometry the allocator was built for.
func (a *Allocator) Geometry() disk.Geometry { return a.geom }

// Stats returns a snapshot of the counters.
func (a *Allocator) Stats() Stats { return a.stats }

// TotalSectors is the managed capacity in sectors.
func (a *Allocator) TotalSectors() int { return a.bm.n }

// FreeSectors is the number of unallocated sectors.
func (a *Allocator) FreeSectors() int { return a.bm.n - a.bm.used }

// Occupancy is the allocated fraction of the disk in [0,1]. The
// editing copy bounds switch from Eq. 19 to Eq. 20 as this approaches
// one.
func (a *Allocator) Occupancy() float64 {
	return float64(a.bm.used) / float64(a.bm.n)
}

// Allocate finds a free contiguous run of n sectors anywhere on the
// disk (first fit), for index blocks, superblocks, and text files —
// which thereby land in the gaps constrained media allocation leaves.
func (a *Allocator) Allocate(n int) (Run, error) {
	if n < 1 {
		return Run{}, fmt.Errorf("alloc: allocate %d sectors", n)
	}
	lo := a.bm.findRun(0, a.bm.n, n)
	if lo < 0 {
		return Run{}, fmt.Errorf("%w: %d contiguous sectors", ErrNoSpace, n)
	}
	return a.take(lo, n), nil
}

// Free releases a run.
func (a *Allocator) Free(r Run) {
	a.bm.clearRange(r.LBA, r.Sectors)
	a.stats.Frees++
	a.stats.SectorsFreed += uint64(r.Sectors)
}

// Constraint bounds the placement of the next block of a strand
// relative to the previous one, in cylinders of actuator travel. It is
// the spatial image of the scattering parameter's time bounds
// [l_lower, l_upper] under the disk's seek model.
type Constraint struct {
	// MinCylinders is the smallest allowed cylinder distance (from
	// the lower scattering bound that the editing algorithm needs).
	MinCylinders int
	// MaxCylinders is the largest allowed cylinder distance (from
	// the continuity equations' upper bound).
	MaxCylinders int
}

// RunPlacement is the strand placement policy as a constraint: the next
// block goes into the previous block's cylinder while a free run exists
// there (distance 0) and hops — forward first — to the nearest cylinder
// within maxCylinders only when it is full. A cylinder holds many blocks
// (sixteen 27-sector video blocks on the default geometry), so a strand
// fills one before it moves on.
func RunPlacement(maxCylinders int) Constraint {
	return Constraint{MinCylinders: runMinCylinders, MaxCylinders: maxCylinders}
}

// runMinCylinders is the run placement's smallest hop: none — successive
// blocks may share a cylinder.
const runMinCylinders = 0

// MinAccessTime is l_lower under RunPlacement: the smallest positioning
// time the disk model charges between two successive blocks of a strand.
// Blocks that share a cylinder pay no seek, so it is the average
// rotational latency alone. The scattering lower bound (§3.3.4) and the
// editing copy bounds (Eqs. 19/20) are derived from it.
func MinAccessTime(g disk.Geometry) time.Duration {
	return g.AccessTime(runMinCylinders)
}

// AllocateConstrained places a media block of n sectors whose cylinder
// distance from the cylinder of prev (the strand's previous block)
// falls within c. Forward placement (ascending cylinders) is preferred
// at the smallest admissible distance — keeping the strand sweeping in
// one direction and leaving maximal gaps — falling back to backward
// placement, then to larger distances, before failing with ErrNoSpace.
// A block that fits a cylinder never straddles one while a run wholly
// inside some admissible cylinder exists (see findNear).
func (a *Allocator) AllocateConstrained(prev Run, n int, c Constraint) (Run, error) {
	if n < 1 {
		return Run{}, fmt.Errorf("alloc: allocate %d sectors", n)
	}
	if c.MinCylinders < 0 || c.MaxCylinders < c.MinCylinders {
		return Run{}, fmt.Errorf("alloc: bad constraint %+v", c)
	}
	prevCyl := a.geom.CylinderOf(prev.LBA)
	a.stats.ConstrainedAllocs++
	lo := a.findNear(prevCyl, n, c.MinCylinders, c.MaxCylinders)
	if lo < 0 {
		a.stats.ConstrainedFails++
		return Run{}, fmt.Errorf("%w: %d sectors within %d..%d cylinders of cylinder %d",
			ErrNoSpace, n, c.MinCylinders, c.MaxCylinders, prevCyl)
	}
	return a.take(lo, n), nil
}

// findNear finds a free run of n sectors starting in a cylinder minDist
// to maxDist away from center: the nearest such cylinder, forward before
// backward. A block that fits a cylinder is first sought wholly inside
// one — a straddling block is two cylinder pages to the device, which can
// lend neither (DESIGN §12) — and only when no admissible cylinder has
// such a run, or the block is larger than a cylinder, may the run spill
// into the cylinders that follow. It reports -1 when neither exists.
func (a *Allocator) findNear(center, n, minDist, maxDist int) int {
	for _, whole := range [...]bool{true, false} {
		if whole && n > a.geom.SectorsPerCylinder() {
			continue
		}
		for dist := minDist; dist <= maxDist; dist++ {
			for _, cyl := range [...]int{center + dist, center - dist} {
				if cyl < 0 || cyl >= a.geom.Cylinders {
					continue
				}
				if lo := a.findRunInCylinder(cyl, n, whole); lo >= 0 {
					return lo
				}
				if dist == 0 {
					break // +0 and −0 are the same cylinder
				}
			}
		}
	}
	return -1
}

// findRunInCylinder finds a free run of n sectors starting within the
// cylinder, or -1. With whole set the run must also end there; without,
// it may spill into the following cylinders.
func (a *Allocator) findRunInCylinder(cyl, n int, whole bool) int {
	spc := a.geom.SectorsPerCylinder()
	lo := cyl * spc
	hi := lo + spc
	if !whole {
		hi += n - 1 // a run starting in-cylinder may spill over
	}
	if hi > a.bm.n {
		hi = a.bm.n
	}
	start := a.bm.findRun(lo, hi, n)
	if start < 0 || start >= lo+spc {
		return -1
	}
	return start
}

// take marks the run found at lo allocated.
func (a *Allocator) take(lo, n int) Run {
	a.bm.setRange(lo, n)
	a.stats.Allocs++
	a.stats.SectorsAllocated += uint64(n)
	return Run{LBA: lo, Sectors: n}
}

// AllocateNearCylinder places a run of n sectors as close as possible
// to the target cylinder, searching outward. The first block of a
// strand and redistribution copies during editing use it.
func (a *Allocator) AllocateNearCylinder(target, n int) (Run, error) {
	if n < 1 {
		return Run{}, fmt.Errorf("alloc: allocate %d sectors", n)
	}
	lo := a.findNear(target, n, 0, a.geom.Cylinders-1)
	if lo < 0 {
		return Run{}, fmt.Errorf("%w: %d sectors near cylinder %d", ErrNoSpace, n, target)
	}
	return a.take(lo, n), nil
}

// MarshalBitmap appends the serialized occupancy bitmap to dst, for
// persistence in the metadata region.
func (a *Allocator) MarshalBitmap(dst []byte) []byte { return a.bm.marshal(dst) }

// UnmarshalBitmap restores the occupancy bitmap.
func (a *Allocator) UnmarshalBitmap(data []byte) error { return a.bm.unmarshal(data) }

// LargestFreeRun is the longest contiguous free extent in sectors: the
// fragmentation metric reorganization improves.
func (a *Allocator) LargestFreeRun() int {
	best, all := 0, ^uint64(0)
	for free := a.bm.next(0, a.bm.n, all); free < a.bm.n; {
		taken := a.bm.next(free, a.bm.n, 0)
		best = max(best, taken-free)
		free = a.bm.next(taken, a.bm.n, all)
	}
	return best
}

// InUse reports whether the sector is allocated; tests and the
// integrity checker use it.
func (a *Allocator) InUse(sector int) bool { return a.bm.get(sector) }
