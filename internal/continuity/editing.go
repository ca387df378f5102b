package continuity

import (
	"fmt"
	"math"
)

// This file implements §4.2: maintenance of the scattering parameter
// while editing. Editing operations make a rope a sequence of
// intervals of immutable strands; within each interval the scattering
// parameter is bounded, but the hop from the last block of one
// interval to the first block of the next may exceed the bound. The
// paper bounds the number of blocks that must be copied (into a fresh
// strand, preserving immutability) to smooth such a junction:
//
//	sparse disk (Eq. 19):  C_b = l_max_seek / (2·l_lower)
//	dense  disk (Eq. 20):  C_b = l_max_seek / l_lower
//
// where l_lower is the lower bound on the destination strand's
// scattering parameter. The symmetric C_a redistributes the tail of
// the preceding strand instead; the editor copies min(C_a, C_b).

// Occupancy describes how full the disk region around a junction is,
// selecting which copy bound applies.
type Occupancy int

const (
	// SparseDisk means free space is plentiful near the junction, so
	// redistributed blocks can be placed mid-gap (Eq. 19).
	SparseDisk Occupancy = iota
	// DenseDisk means the disk is nearly full and redistribution must
	// reuse the strands' own slots (Eq. 20).
	DenseDisk
)

// String names the occupancy regime.
func (o Occupancy) String() string {
	if o == SparseDisk {
		return "sparse"
	}
	return "dense"
}

// CopyBound is the maximum number of blocks of the following strand
// that must be copied to guarantee the junction's separation satisfies
// the scattering bounds: Eq. 19 (sparse) or Eq. 20 (dense). lLower is
// the lower bound on the strand's scattering parameter in seconds;
// maxSeek is l_max_seek. A non-positive lLower would make the bound
// meaningless, so it is an error.
func CopyBound(occ Occupancy, maxSeek, lLower float64) (int, error) {
	if lLower <= 0 {
		return 0, fmt.Errorf("continuity: scattering lower bound %g must be positive for the editing copy bound", lLower)
	}
	if maxSeek < 0 {
		return 0, fmt.Errorf("continuity: negative max seek %g", maxSeek)
	}
	m := maxSeek / lLower
	var c float64
	if occ == SparseDisk {
		c = m / 2
	} else {
		c = m
	}
	n := int(math.Ceil(c))
	if n < 0 {
		n = 0
	}
	return n, nil
}
