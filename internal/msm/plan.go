package msm

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/media"
	"mmfs/internal/strand"
)

// PlanOptions tune plan compilation.
type PlanOptions struct {
	// Buffers overrides the display device's block buffer count;
	// 0 uses twice the read-ahead (the pipelined rule of §3.3.2).
	Buffers int
	// ReadAhead overrides the anti-jitter read-ahead in blocks;
	// 0 uses k = 1 (strict continuity).
	ReadAhead int
	// Speed enables fast-forward (> 1) or slow motion (< 1);
	// 0 means 1.
	Speed float64
	// Skip drops all but every ⌈Speed⌉-th block during fast-forward
	// (§3.3.2: fast-forward "with skipping").
	Skip bool
	// Scattering overrides the admission-control scattering estimate
	// for the strand; 0 measures the strand's realized maximum.
	Scattering float64
	// Class is the request's QoS class (zero value is best-effort; see
	// continuity.Class). Only meaningful when the manager has QoS
	// enabled.
	Class continuity.Class
}

// PlanStrandPlay compiles a whole-strand PLAY plan: one planned block
// per media block, each with its recording-rate playback duration
// (adjusted for fast-forward), plus the admission-control description
// of the request.
func PlanStrandPlay(d disk.Device, s *strand.Strand, opts PlanOptions) (PlayPlan, error) {
	return PlanPlay(d, fmt.Sprintf("strand-%d", s.ID()), []Interval{{Strand: s, NumUnits: s.UnitCount()}}, opts)
}

// Interval is one entry of a play's interval list: NumUnits units of
// Strand from StartUnit on. An entry without units — a nil Strand where
// the medium is absent, or the sub-unit residue duration rounding leaves
// — plays as a pure delay of Gap.
type Interval struct {
	Strand    *strand.Strand
	StartUnit uint64
	NumUnits  uint64
	Gap       time.Duration
}

// PlanPlay is the play-plan compiler: an interval list (a whole strand,
// or what one medium of an edited rope's range flattens to) becomes one
// planned block per covered media block — edge blocks covered only
// partially play for their pro-rated share — with a delay block per gap.
// The admission description takes the first strand's parameters and,
// unless opts.Scattering overrides it, the worst positioning time between
// successive stored blocks of the compiled sequence, hops across interval
// junctions included.
//
// The same walk over the strand index builds the plan map (planPos) for
// d's stripe groups (stripeKey), and notes the rest of what admission
// asks of the blocks: the interval-cache range and the first block
// without a duration. An admission reads them; it never walks the plan.
func PlanPlay(d disk.Device, name string, ivs []Interval, opts PlanOptions) (PlayPlan, error) {
	speed := opts.Speed
	if speed == 0 {
		speed = 1
	}
	// Skipping keeps every stride-th block, each standing for its whole
	// stride's share of playback, so blocks arrive at the recording rate.
	stride := 1
	if opts.Skip && speed > 1 {
		stride = int(speed + 0.999999)
	}

	g := d.Geometry()
	c := &compiled{cacheOK: true}
	c.groupSec, c.classes = stripeKey(d)
	var first, cached *strand.Strand
	var blocks []PlannedBlock
	var pm []planPos
	var offset time.Duration
	// Each block appends its map entry: the display offset and, for a
	// block the strand stores, its sector, stripe group and own classes,
	// with next marking it stored until the backward pass below resolves
	// it (-1: not stored).
	//
	// The scattering measure: SeekTime is monotone in distance, so the
	// widest hop between successive stored blocks is the slowest, and it is
	// converted to a time once. -1: no hop seen.
	prevCyl, maxHop := -1, -1
	for _, iv := range ivs {
		s := iv.Strand
		if first == nil {
			first = s
		}
		if s == nil || iv.NumUnits == 0 {
			if iv.Gap > 0 {
				dur := time.Duration(math.Round(float64(iv.Gap) / speed))
				if dur <= 0 && c.badBlock == 0 {
					c.badBlock = len(blocks) + 1
				}
				c.cacheOK = false
				blocks = append(blocks, PlannedBlock{Duration: dur})
				pm = append(pm, planPos{offset: offset, next: -1})
				offset += dur
			}
			continue
		}
		end := iv.StartUnit + iv.NumUnits
		if end > s.UnitCount() {
			return PlayPlan{}, fmt.Errorf("msm: interval [%d,%d) outside strand %d (%d units)",
				iv.StartUnit, end, s.ID(), s.UnitCount())
		}
		r := strand.NewReader(d, s)
		q, rate := uint64(s.Granularity()), s.Rate()
		firstBlock, lastBlock := int(iv.StartUnit/q), int((end-1)/q)
		// The map has one entry more than the blocks: the one past the end.
		blocks = slices.Grow(blocks, (lastBlock-firstBlock)/stride+1)
		pm = slices.Grow(pm, (lastBlock-firstBlock)/stride+2)
		for b := firstBlock; b <= lastBlock; b += stride {
			// Units of this block (of its stride, when skipping) that
			// the interval actually covers.
			lo := max(uint64(b)*q, iv.StartUnit)
			hi := min((uint64(b)+uint64(stride))*q, end)
			dur := continuity.Duration(float64(hi-lo) / rate / speed)
			if dur <= 0 {
				continue
			}
			j := len(blocks)
			switch {
			case j == 0:
				cached, c.cacheFirst = s, b
			case s != cached || b != c.cacheFirst+j:
				c.cacheOK = false
			}
			p := planPos{offset: offset, next: -1}
			offset += dur
			if e, err := s.Block(b); err == nil && !e.Silent() {
				p.next, p.sector = int32(j), e.Sector
				if c.groupSec > 0 {
					lo := int(e.Sector) / c.groupSec
					hi := (int(e.Sector) + int(e.SectorCount) - 1) / c.groupSec
					p.group = int32(lo)
					if hi != lo {
						p.group = -1
					}
					for grp := lo; c.classes > 0 && grp <= hi; grp++ {
						p.classes |= 1 << (grp % c.classes)
					}
				}
				cyl := g.CylinderOf(int(e.Sector))
				if prevCyl >= 0 {
					maxHop = max(maxHop, cyl-prevCyl, prevCyl-cyl)
				}
				prevCyl = cyl
			}
			blocks = append(blocks, PlannedBlock{Reader: r, Index: b, Duration: dur})
			pm = append(pm, p)
		}
	}
	if first == nil || len(blocks) == 0 {
		return PlayPlan{}, fmt.Errorf("msm: plan %q compiles to zero blocks", name)
	}
	n := len(blocks)
	if c.cacheOK {
		c.cacheSID, c.cacheEnd = cached.ID(), c.cacheFirst+n
	}
	// Backward over the map, not the index: every entry takes the suffix's
	// class set and its next stored position, and a stored block inside
	// one group the first later stored position in another.
	pm = append(pm, planPos{offset: offset, next: int32(n)})
	for j := n - 1; j >= 0; j-- {
		after, p := &pm[j+1], &pm[j]
		p.classes |= after.classes
		if p.next < 0 {
			p.next = after.next
			continue
		}
		p.other = after.next
		if c.groupSec > 0 && int(after.next) < n && pm[after.next].group == p.group {
			p.other = pm[after.next].other
		}
	}
	c.pm = pm

	lds := opts.Scattering
	if lds == 0 && maxHop >= 0 {
		lds = continuity.Seconds(g.AccessTime(maxHop))
	}
	rate := first.Rate()
	if stride == 1 {
		rate *= speed
	}
	return PlayPlan{
		Name:   "play-" + name,
		Blocks: blocks,
		Admission: continuity.Request{
			Name:        name,
			Granularity: first.Granularity(),
			UnitBits:    float64(first.UnitBits()),
			Rate:        rate,
			Scattering:  lds,
		},
		comp: c,
	}.WithOptions(opts), nil
}

// WithOptions returns the plan with opts' per-play fields — ReadAhead,
// Buffers and Class — set as PlanPlay sets them. The compiled body (the
// blocks, the admission description, the map) is shared, not copied:
// every play of the same compiler input may read the one compiled.
func (p PlayPlan) WithOptions(opts PlanOptions) PlayPlan {
	p.ReadAhead = max(opts.ReadAhead, 1)
	p.Buffers = opts.Buffers
	if p.Buffers == 0 {
		p.Buffers = 2 * p.ReadAhead
	}
	p.Class = opts.Class
	return p
}

// stripeKey is what a plan map is built for on device d, as the manager
// over d keys it: the sectors in a stripe group and the array's steering
// classes (disk.Array.SteerClasses). Both are zero on a single device;
// classes is zero too when a word cannot hold a bit per class.
func stripeKey(d disk.Device) (groupSec, classes int) {
	a, ok := d.(*disk.Array)
	if !ok || a.Spindles() <= 1 {
		return 0, 0
	}
	groupSec = a.StripeCylinders() * a.Geometry().SectorsPerCylinder()
	if c := a.SteerClasses(); c <= 64 {
		classes = c
	}
	return groupSec, classes
}

// PlanRecord compiles a RECORD plan for a writer/source pair.
// totalUnits of 0 records until the source is exhausted.
func PlanRecord(name string, w *strand.Writer, src media.Source, unitsPerBlock int, totalUnits uint64, scattering float64, buffers int) RecordPlan {
	if buffers < 1 {
		buffers = 2
	}
	return RecordPlan{
		Name:          name,
		Writer:        w,
		Source:        src,
		UnitsPerBlock: unitsPerBlock,
		TotalUnits:    totalUnits,
		Admission: continuity.Request{
			Name:        name,
			Granularity: unitsPerBlock,
			UnitBits:    float64(src.UnitBytes() * 8),
			Rate:        src.Rate(),
			Scattering:  scattering,
		},
		Buffers: buffers,
	}
}
