// Package disk implements the storage substrate of the multimedia file
// system: a sector-addressed disk simulator with one actuator and an
// explicit seek, rotation, and transfer-time model, and the striped
// Array of p such disks that is the paper's "concurrent architecture"
// of degree p (Rangan & Vin, SOSP '91, §3.1).
//
// The paper's continuity equations consume exactly the parameters this
// model exposes: the data transfer rate r_dt, the bounded inter-block
// access time (the scattering parameter l_ds), and the maximum
// seek-plus-latency time l_max_seek. All service times are virtual
// (time.Duration on the storage manager's clock), making experiments
// deterministic.
package disk

import (
	"fmt"
	"time"
)

// Geometry describes the physical shape and timing of a simulated disk.
type Geometry struct {
	// Cylinders is the number of seek positions (n_cyl in the paper).
	Cylinders int
	// Surfaces is the number of recording surfaces per cylinder
	// (tracks per cylinder).
	Surfaces int
	// SectorsPerTrack is the number of fixed-size sectors on each track.
	SectorsPerTrack int
	// SectorSize is the sector payload in bytes.
	SectorSize int
	// RPM is the spindle speed in revolutions per minute.
	RPM float64
	// MinSeek is the time to seek between adjacent cylinders
	// (l_min_seek in the paper's buffering analysis).
	MinSeek time.Duration
	// MaxSeek is the full-stroke seek time.
	MaxSeek time.Duration
}

// Validate reports an error if the geometry is not usable.
func (g Geometry) Validate() error {
	switch {
	case g.Cylinders < 1:
		return fmt.Errorf("disk: geometry needs at least 1 cylinder, have %d", g.Cylinders)
	case g.Surfaces < 1:
		return fmt.Errorf("disk: geometry needs at least 1 surface, have %d", g.Surfaces)
	case g.SectorsPerTrack < 1:
		return fmt.Errorf("disk: geometry needs at least 1 sector per track, have %d", g.SectorsPerTrack)
	case g.SectorSize < 1:
		return fmt.Errorf("disk: geometry needs positive sector size, have %d", g.SectorSize)
	case g.RPM <= 0:
		return fmt.Errorf("disk: geometry needs positive RPM, have %g", g.RPM)
	case g.MinSeek < 0 || g.MaxSeek < 0:
		return fmt.Errorf("disk: negative seek times (%v, %v)", g.MinSeek, g.MaxSeek)
	case g.MaxSeek < g.MinSeek:
		return fmt.Errorf("disk: max seek %v below min seek %v", g.MaxSeek, g.MinSeek)
	}
	return nil
}

// TotalSectors is the disk capacity in sectors.
func (g Geometry) TotalSectors() int {
	return g.Cylinders * g.Surfaces * g.SectorsPerTrack
}

// CapacityBytes is the disk capacity in bytes.
func (g Geometry) CapacityBytes() int64 {
	return int64(g.TotalSectors()) * int64(g.SectorSize)
}

// SectorsPerCylinder is the number of sectors under one seek position.
func (g Geometry) SectorsPerCylinder() int {
	return g.Surfaces * g.SectorsPerTrack
}

// RotationTime is the duration of one platter revolution.
func (g Geometry) RotationTime() time.Duration {
	return time.Duration(60 / g.RPM * float64(time.Second))
}

// AvgRotationalLatency is half a revolution: the expected wait for the
// target sector to come under the head. The simulator charges this
// deterministic average on every discontiguous access, which is the
// same simplification the paper's model makes by folding latency into
// the scattering parameter.
func (g Geometry) AvgRotationalLatency() time.Duration {
	return g.RotationTime() / 2
}

// SectorTime is the time to transfer one sector past the head.
func (g Geometry) SectorTime() time.Duration {
	return g.RotationTime() / time.Duration(g.SectorsPerTrack)
}

// TransferRateBits is the sustained media transfer rate r_dt in
// bits/second (Table 1 of the paper).
func (g Geometry) TransferRateBits() float64 {
	return float64(g.SectorsPerTrack*g.SectorSize*8) * g.RPM / 60
}

// SeekTime is the time to move the actuator across dist cylinders,
// using a linear model between MinSeek (one cylinder) and MaxSeek
// (full stroke). A zero-distance seek is free.
func (g Geometry) SeekTime(dist int) time.Duration {
	if dist < 0 {
		dist = -dist
	}
	if dist == 0 {
		return 0
	}
	if g.Cylinders <= 2 || dist == 1 {
		return g.MinSeek
	}
	maxDist := g.Cylinders - 1
	if dist > maxDist {
		dist = maxDist
	}
	span := g.MaxSeek - g.MinSeek
	frac := float64(dist-1) / float64(maxDist-1)
	return g.MinSeek + time.Duration(float64(span)*frac)
}

// AccessTime is the positioning cost (seek + average rotational
// latency) for a head moving dist cylinders. This is the quantity the
// paper bounds with the scattering parameter l_ds.
func (g Geometry) AccessTime(dist int) time.Duration {
	return g.SeekTime(dist) + g.AvgRotationalLatency()
}

// MaxAccessTime is the worst-case positioning cost, the paper's
// l_max_seek ("maximum seek (and latency) time").
func (g Geometry) MaxAccessTime() time.Duration {
	return g.SeekTime(g.Cylinders-1) + g.AvgRotationalLatency()
}

// TransferTime is the time to transfer n sectors once positioned.
// Track and cylinder switches during a sequential run are assumed free,
// consistent with the model's single transfer-rate parameter.
func (g Geometry) TransferTime(n int) time.Duration {
	return time.Duration(n) * g.SectorTime()
}

// MaxDistanceWithin reports the largest cylinder distance whose access
// time (seek + average latency) does not exceed budget. It reports -1
// if even a zero-distance access (average latency alone) exceeds the
// budget, and Cylinders-1 if the budget covers a full-stroke access.
// Constrained allocation uses this to convert the time-valued
// scattering bound into a placement bound in cylinders.
func (g Geometry) MaxDistanceWithin(budget time.Duration) int {
	if budget < g.AvgRotationalLatency() {
		return -1
	}
	lo, hi := 0, g.Cylinders-1
	// Binary search for the largest dist with AccessTime(dist) <= budget.
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.AccessTime(mid) <= budget {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if g.AccessTime(lo) > budget {
		return -1
	}
	return lo
}

// CylinderOf reports the cylinder holding the given linear address.
func (g Geometry) CylinderOf(lba int) int {
	return lba / g.SectorsPerCylinder()
}

// DefaultGeometry models a disk of the early-90s server class the
// paper targets, scaled so that experiments hold several minutes of
// compressed NTSC video: 1 GiB-class, 3600 RPM, 16 ms average seek.
func DefaultGeometry() Geometry {
	return Geometry{
		Cylinders:       1200,
		Surfaces:        8,
		SectorsPerTrack: 56,
		SectorSize:      2048,
		RPM:             3600,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         30 * time.Millisecond,
	}
}
