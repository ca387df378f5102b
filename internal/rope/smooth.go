package rope

import (
	"fmt"
	"math"

	"mmfs/internal/alloc"
	"mmfs/internal/continuity"
	"mmfs/internal/disk"
	"mmfs/internal/layout"
	"mmfs/internal/strand"
)

// Editor maintains the scattering parameter while editing (§4.2).
// After rope operations create junctions between strand intervals, the
// hop from the last block of one interval to the first block of the
// next may exceed the scattering bound; the editor copies a bounded
// number of blocks (Eqs. 19/20) of the following strand into a fresh
// strand, redistributed "equally in the region" between the junction
// ends, so that every inter-block access stays within bounds.
type Editor struct {
	d     disk.Device
	a     *alloc.Allocator
	ropes *Store
	// MaxCylinders is the placement policy's scattering upper bound
	// expressed in cylinders: no two successive blocks of a played
	// sequence may be farther apart.
	MaxCylinders int
	// DenseThreshold is the disk occupancy above which the dense
	// copy bound (Eq. 20) is reported instead of the sparse one.
	DenseThreshold float64
	// scratch is where a source block the device cannot lend is
	// assembled for the copy (strand.Reader.BlockView).
	scratch []byte
}

// NewEditor creates an editor with the given placement policy.
func NewEditor(d disk.Device, a *alloc.Allocator, ropes *Store, maxCylinders int) *Editor {
	return &Editor{d: d, a: a, ropes: ropes, MaxCylinders: maxCylinders, DenseThreshold: 0.85}
}

// JunctionReport describes one smoothed (or checked) junction.
type JunctionReport struct {
	// Medium is the component the junction belongs to.
	Medium Medium
	// Interval is the index of the interval following the junction.
	Interval int
	// DistCylinders is the junction's pre-smoothing cylinder
	// distance.
	DistCylinders int
	// Copied is the number of non-silent blocks copied, CopiedBytes
	// their payload.
	Copied      int
	CopiedBytes int
	// NewStrand is the fresh strand holding the copies (Nil when no
	// copying was needed).
	NewStrand strand.ID
	// BoundSparse and BoundDense are the analytic copy bounds of
	// Eqs. 19 and 20 for this device, for comparison.
	BoundSparse, BoundDense int
}

// Bounds computes the analytic copy bounds (Eqs. 19/20) under the
// editor's placement policy: l_lower is the smallest positioning time
// between two blocks of a strand (alloc.MinAccessTime: they may share a
// cylinder, so latency alone) and l_max_seek the worst-case access.
func (e *Editor) Bounds() (sparse, dense int, err error) {
	g := e.d.Geometry()
	maxSeek := continuity.Seconds(g.MaxAccessTime())
	lLower := continuity.Seconds(alloc.MinAccessTime(g))
	sparse, err = continuity.CopyBound(continuity.SparseDisk, maxSeek, lLower)
	if err != nil {
		return 0, 0, err
	}
	dense, err = continuity.CopyBound(continuity.DenseDisk, maxSeek, lLower)
	if err != nil {
		return 0, 0, err
	}
	return sparse, dense, nil
}

// SmoothRope walks every junction of every medium in the rope and
// smooths those whose hop exceeds the placement bound. It returns a
// report per smoothed junction. The rope's interval list is patched in
// place; interests are reconciled with it once, on every exit — a
// junction that fails leaves the ones before it patched.
func (e *Editor) SmoothRope(r *Rope) ([]JunctionReport, error) {
	defer e.ropes.SyncInterests(r)
	var reports []JunctionReport
	for _, m := range []Medium{VideoOnly, AudioOnly} {
		// Junction indices shift as smoothing splits intervals, so
		// walk with an explicit index over the live list.
		for i := 0; i+1 < len(r.Intervals); i++ {
			j, err := e.Junction(r, m, i)
			if err != nil {
				return reports, err
			}
			if !j.Over(e.MaxCylinders) {
				continue
			}
			rep, err := e.copyJunction(r, m, i, j)
			if err != nil {
				return reports, err
			}
			reports = append(reports, rep)
		}
	}
	return reports, nil
}

// junctionEnds finds the disk cylinders at a junction: the last
// non-silent block of interval i's component and the first non-silent
// block of interval i+1's component. ok is false when the junction
// imposes no constraint (missing component or all-silent range).
func (e *Editor) junctionEnds(r *Rope, m Medium, i int) (cylA int, ok bool, err error) {
	prev := r.Intervals[i].Component(m)
	next := r.Intervals[i+1].Component(m)
	if prev == nil || next == nil || prev.Strand == strand.Nil || next.Strand == strand.Nil {
		return 0, false, nil
	}
	ps, found := e.ropes.strands.Get(prev.Strand)
	if !found {
		return 0, false, fmt.Errorf("rope %d: unknown strand %d", r.ID, prev.Strand)
	}
	units, err := e.ropes.unitsIn(prev, r.Intervals[i].Duration)
	if err != nil {
		return 0, false, err
	}
	if units == 0 {
		return 0, false, nil
	}
	lastUnit := prev.StartUnit + units - 1
	if lastUnit >= ps.UnitCount() {
		lastUnit = ps.UnitCount() - 1
	}
	q := uint64(ps.Granularity())
	g := e.d.Geometry()
	for b := int(lastUnit / q); b >= int(prev.StartUnit/q); b-- {
		entry, err := ps.Block(b)
		if err != nil {
			return 0, false, err
		}
		if !entry.Silent() {
			return g.CylinderOf(int(entry.Sector)), true, nil
		}
	}
	return 0, false, nil // all silence: no seek constraint
}

// Junction is one junction of a rope's medium as Editor.Junction finds
// it: the hop, in cylinders, from the last stored block before it to the
// first stored block after it. Constrained is false when there is no such
// hop — a component missing on either side, or a side all silence — and
// then nothing else is set. The unexported fields are what smoothing the
// junction starts from.
type Junction struct {
	Constrained bool
	Cylinders   int
	// cylA is the cylinder of the last stored block before the junction;
	// ns the strand the following interval's component reads, its blocks
	// [rawFirst, rawLast] covering the interval's nextUnits units.
	cylA              int
	next              *ComponentRef
	ns                *strand.Strand
	q, nextUnits      uint64
	rawFirst, rawLast int
}

// Over reports whether the junction's hop exceeds a bound of
// maxCylinders: the placement guarantee the editor keeps.
func (j Junction) Over(maxCylinders int) bool {
	return j.Constrained && j.Cylinders > maxCylinders
}

// Junction checks the junction between intervals i and i+1 for medium
// m, copying nothing: SmoothRope smooths those Over the editor's bound,
// and an integrity check can ask it of any rope.
func (e *Editor) Junction(r *Rope, m Medium, i int) (Junction, error) {
	cylA, constrained, err := e.junctionEnds(r, m, i)
	if err != nil || !constrained {
		return Junction{}, err
	}
	next := r.Intervals[i+1].Component(m)
	ns, found := e.ropes.strands.Get(next.Strand)
	if !found {
		return Junction{}, fmt.Errorf("rope %d: unknown strand %d", r.ID, next.Strand)
	}
	q := uint64(ns.Granularity())
	nextUnits, err := e.ropes.unitsIn(next, r.Intervals[i+1].Duration)
	if err != nil || nextUnits == 0 {
		return Junction{}, err
	}
	rawFirst := int(next.StartUnit / q)
	lastUnit := next.StartUnit + nextUnits - 1
	if lastUnit >= ns.UnitCount() {
		lastUnit = ns.UnitCount() - 1
	}
	rawLast := int(lastUnit / q)

	// First non-silent block of the next range.
	for b := rawFirst; b <= rawLast; b++ {
		entry, err := ns.Block(b)
		if err != nil {
			return Junction{}, err
		}
		if !entry.Silent() {
			dist := e.d.Geometry().CylinderOf(int(entry.Sector)) - cylA
			return Junction{Constrained: true, Cylinders: max(dist, -dist), cylA: cylA, next: next, ns: ns,
				q: q, nextUnits: nextUnits, rawFirst: rawFirst, rawLast: rawLast}, nil
		}
	}
	return Junction{}, nil // all silence
}

// copyJunction smooths junction j, which Junction found between
// intervals i and i+1 for medium m and over the bound: it copies a prefix
// of the following interval's blocks into a fresh strand, placed evenly
// between the junction's ends, and points the covered prefix of the
// interval at the copy.
func (e *Editor) copyJunction(r *Rope, m Medium, i int, j Junction) (JunctionReport, error) {
	g := e.d.Geometry()
	cylA, next, ns, q := j.cylA, j.next, j.ns, j.q
	nextUnits, rawFirst, rawLast := j.nextUnits, j.rawFirst, j.rawLast

	// Choose the copy prefix length c (in raw blocks) such that the
	// copied non-silent blocks, redistributed equally between cylA
	// and the first surviving block, make every gap ≤ MaxCylinders.
	copiedNS := 0
	var c int
	anchorCyl := -1
	for c = 1; rawFirst+c <= rawLast+1; c++ {
		entry, err := ns.Block(rawFirst + c - 1)
		if err != nil {
			return JunctionReport{}, err
		}
		if !entry.Silent() {
			copiedNS++
		}
		if rawFirst+c > rawLast {
			anchorCyl = -1 // everything in range copied
			break
		}
		// Anchor: first surviving non-silent block.
		a := -1
		for b := rawFirst + c; b <= rawLast; b++ {
			en, err := ns.Block(b)
			if err != nil {
				return JunctionReport{}, err
			}
			if !en.Silent() {
				a = b
				break
			}
		}
		if a < 0 {
			anchorCyl = -1
			break
		}
		ea, err := ns.Block(a)
		if err != nil {
			return JunctionReport{}, err
		}
		anchorCyl = g.CylinderOf(int(ea.Sector))
		if copiedNS > 0 {
			gap := int(math.Ceil(math.Abs(float64(anchorCyl-cylA)) / float64(copiedNS+1)))
			if gap <= e.MaxCylinders {
				break
			}
		}
	}

	// Place the copies evenly between cylA and the anchor. Each source
	// block is lent by the device and written once, to a run allocated
	// after the view was taken (so the two cannot overlap). A failure
	// part-way returns the runs already placed to the allocator.
	newID := e.ropes.strands.NewID()
	var entries []layout.PrimaryEntry
	fail := func(err error) (JunctionReport, error) {
		for _, en := range entries {
			if !en.Silent() {
				e.a.Free(alloc.Run{LBA: int(en.Sector), Sectors: int(en.SectorCount)})
			}
		}
		return JunctionReport{}, err
	}
	nsIdx, copiedBytes := 0, 0
	rd := strand.NewReader(e.d, ns)
	for b := 0; b < c; b++ {
		payload, silent, err := rd.BlockView(rawFirst+b, &e.scratch)
		if err != nil {
			return fail(err)
		}
		if silent {
			entries = append(entries, layout.SilenceEntry())
			continue
		}
		blockSectors := (len(payload) + g.SectorSize - 1) / g.SectorSize
		nsIdx++
		var target int
		if anchorCyl >= 0 {
			target = cylA + int(math.Round(float64(nsIdx)*float64(anchorCyl-cylA)/float64(copiedNS+1)))
		} else {
			step := e.MaxCylinders / 2
			if step < 1 {
				step = 1
			}
			target = cylA + nsIdx*step
		}
		run, err := e.a.AllocateNearCylinder(min(max(target, 0), g.Cylinders-1), blockSectors)
		if err != nil {
			return fail(fmt.Errorf("rope %d: smoothing: %w", r.ID, err))
		}
		if err := e.d.WriteAt(run.LBA, payload); err != nil {
			e.a.Free(run)
			return fail(err)
		}
		copiedBytes += len(payload)
		entries = append(entries, layout.PrimaryEntry{Sector: uint32(run.LBA), SectorCount: uint32(run.Sectors)})
	}

	unitsCovered := uint64(c) * q
	if avail := ns.UnitCount() - uint64(rawFirst)*q; unitsCovered > avail {
		unitsCovered = avail
	}
	copyStrand, err := e.ropes.strands.BuildFromEntries(strand.BuildMeta{
		ID:          newID,
		Medium:      ns.Medium(),
		Rate:        ns.Rate(),
		UnitBytes:   ns.UnitBytes(),
		Granularity: ns.Granularity(),
		UnitCount:   unitsCovered,
		Variable:    ns.Variable(),
	}, entries)
	if err != nil {
		return fail(fmt.Errorf("rope %d: smoothing: %w", r.ID, err))
	}

	// Patch the interval list: the covered prefix of interval i+1 now
	// references the copy strand.
	offset := next.StartUnit - uint64(rawFirst)*q
	coveredPlay := unitsCovered - offset
	intervalUnits := nextUnits
	iv := r.Intervals[i+1]
	if coveredPlay >= intervalUnits {
		r.Intervals[i+1].setComponent(m, &ComponentRef{Strand: copyStrand.ID(), StartUnit: offset})
	} else {
		d1 := continuity.Duration(float64(coveredPlay) / ns.Rate())
		a, b, err := e.ropes.splitInterval(iv, d1)
		if err != nil {
			return JunctionReport{}, err
		}
		a.setComponent(m, &ComponentRef{Strand: copyStrand.ID(), StartUnit: offset})
		r.Intervals = append(r.Intervals[:i+1], append([]Interval{a, b}, r.Intervals[i+2:]...)...)
	}

	sparse, dense, err := e.Bounds()
	if err != nil {
		return JunctionReport{}, err
	}
	return JunctionReport{
		Medium:        m,
		Interval:      i + 1,
		DistCylinders: j.Cylinders,
		Copied:        copiedNS,
		CopiedBytes:   copiedBytes,
		NewStrand:     copyStrand.ID(),
		BoundSparse:   sparse,
		BoundDense:    dense,
	}, nil
}
