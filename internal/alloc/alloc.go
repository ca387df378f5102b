package alloc

import (
	"errors"
	"fmt"

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
	a.bm.setRange(lo, n)
	a.stats.Allocs++
	a.stats.SectorsAllocated += uint64(n)
	return Run{LBA: lo, Sectors: n}, nil
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

// AllocateConstrained places a media block of n sectors whose cylinder
// distance from the cylinder of prev (the strand's previous block)
// falls within c. Forward placement (ascending cylinders) is preferred
// at the smallest admissible distance — keeping the strand sweeping in
// one direction and leaving maximal gaps — falling back to backward
// placement, then to larger distances, before failing with ErrNoSpace.
func (a *Allocator) AllocateConstrained(prev Run, n int, c Constraint) (Run, error) {
	if n < 1 {
		return Run{}, fmt.Errorf("alloc: allocate %d sectors", n)
	}
	if c.MinCylinders < 0 || c.MaxCylinders < c.MinCylinders {
		return Run{}, fmt.Errorf("alloc: bad constraint %+v", c)
	}
	prevCyl := a.geom.CylinderOf(prev.LBA)
	a.stats.ConstrainedAllocs++
	for dist := c.MinCylinders; dist <= c.MaxCylinders; dist++ {
		for _, cyl := range []int{prevCyl + dist, prevCyl - dist} {
			if cyl < 0 || cyl >= a.geom.Cylinders {
				continue
			}
			if lo := a.findRunInCylinder(cyl, n); lo >= 0 {
				a.bm.setRange(lo, n)
				a.stats.Allocs++
				a.stats.SectorsAllocated += uint64(n)
				return Run{LBA: lo, Sectors: n}, nil
			}
			if dist == 0 {
				break // +0 and −0 are the same cylinder
			}
		}
	}
	a.stats.ConstrainedFails++
	return Run{}, fmt.Errorf("%w: %d sectors within %d..%d cylinders of cylinder %d",
		ErrNoSpace, n, c.MinCylinders, c.MaxCylinders, prevCyl)
}

// findRunInCylinder finds a free run of n sectors starting within the
// cylinder (it may spill into following cylinders when a block is
// larger than a cylinder), or -1.
func (a *Allocator) findRunInCylinder(cyl, n int) int {
	spc := a.geom.SectorsPerCylinder()
	lo := cyl * spc
	hi := lo + spc + n - 1 // allow a run starting in-cylinder to spill over
	if hi > a.bm.n {
		hi = a.bm.n
	}
	start := a.bm.findRun(lo, hi, n)
	if start < 0 || start >= lo+spc {
		return -1
	}
	return start
}

// AllocateNearCylinder places a run of n sectors as close as possible
// to the target cylinder, searching outward. The first block of a
// strand and redistribution copies during editing use it.
func (a *Allocator) AllocateNearCylinder(target, n int) (Run, error) {
	if n < 1 {
		return Run{}, fmt.Errorf("alloc: allocate %d sectors", n)
	}
	for dist := 0; dist < a.geom.Cylinders; dist++ {
		for _, cyl := range []int{target + dist, target - dist} {
			if cyl < 0 || cyl >= a.geom.Cylinders {
				continue
			}
			if lo := a.findRunInCylinder(cyl, n); lo >= 0 {
				a.bm.setRange(lo, n)
				a.stats.Allocs++
				a.stats.SectorsAllocated += uint64(n)
				return Run{LBA: lo, Sectors: n}, nil
			}
			if dist == 0 {
				break
			}
		}
	}
	return Run{}, fmt.Errorf("%w: %d sectors near cylinder %d", ErrNoSpace, n, target)
}

// MarshalBitmap appends the serialized occupancy bitmap to dst, for
// persistence in the metadata region.
func (a *Allocator) MarshalBitmap(dst []byte) []byte { return a.bm.marshal(dst) }

// UnmarshalBitmap restores the occupancy bitmap.
func (a *Allocator) UnmarshalBitmap(data []byte) error { return a.bm.unmarshal(data) }

// InUse reports whether the sector is allocated; tests and the
// integrity checker use it.
func (a *Allocator) InUse(sector int) bool { return a.bm.get(sector) }
