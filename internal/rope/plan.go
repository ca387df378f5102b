package rope

import (
	"fmt"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/msm"
	"mmfs/internal/strand"
)

// CompilePlay compiles one medium of a rope's [start, start+dur) range
// into an MSM playback plan: one planned block per covered media
// block, with pure-delay blocks standing in for intervals where the
// medium is absent. Playing a whole multimedia rope issues one such
// plan per medium, started simultaneously — the block-level
// correspondence plus equal recording rates then keep the media in
// sync (§4: "the block-level correspondence and the recording rate
// information together maintain inter-media synchronization"). It is
// PlayIntervals then msm.PlanPlay under PlayName.
func (s *Store) CompilePlay(d disk.Device, r *Rope, m Medium, start, dur time.Duration, opts msm.PlanOptions) (msm.PlayPlan, error) {
	ivs, err := s.PlayIntervals(r, m, start, dur)
	if err != nil {
		return msm.PlayPlan{}, err
	}
	return msm.PlanPlay(d, PlayName(r.ID, m), ivs, opts)
}

// PlayName is the name CompilePlay compiles medium m of rope id under.
func PlayName(id ID, m Medium) string { return fmt.Sprintf("rope-%d-%v", id, m) }

// PlayIntervals flattens one medium of a rope's [start, start+dur) range
// into the compiler's input: an msm.Interval per rope interval the range
// covers — units of an immutable strand, or a pure delay where the medium
// is absent. Equal lists compile to equal plans.
func (s *Store) PlayIntervals(r *Rope, m Medium, start, dur time.Duration) ([]msm.Interval, error) {
	if m == AudioVisual {
		return nil, fmt.Errorf("rope: compile one medium at a time")
	}
	if err := r.validateRange(start, dur); err != nil {
		return nil, err
	}
	part, err := s.slice(r, m, start, dur)
	if err != nil {
		return nil, err
	}
	ivs := make([]msm.Interval, 0, len(part))
	hasStrand := false
	for _, iv := range part {
		ref := iv.Component(m)
		if ref == nil || ref.Strand == strand.Nil {
			ivs = append(ivs, msm.Interval{Gap: iv.Duration})
			continue
		}
		st, ok := s.strands.Get(ref.Strand)
		if !ok {
			return nil, fmt.Errorf("rope %d: unknown strand %d", r.ID, ref.Strand)
		}
		hasStrand = true
		units, err := s.unitsIn(ref, iv.Duration)
		if err != nil {
			return nil, err
		}
		var avail uint64
		if ref.StartUnit < st.UnitCount() {
			avail = st.UnitCount() - ref.StartUnit
		}
		piece := msm.Interval{Strand: st, StartUnit: ref.StartUnit, NumUnits: min(units, avail)}
		if piece.NumUnits == 0 {
			// Duration rounding can leave a sub-unit residue (or a
			// ref exactly at the strand end); preserve the timing
			// with a pure delay so later intervals keep their
			// deadlines.
			piece.Gap = iv.Duration
		}
		ivs = append(ivs, piece)
	}
	if !hasStrand {
		return nil, fmt.Errorf("rope %d has no %v component in [%v, %v)", r.ID, m, start, start+dur)
	}
	return ivs, nil
}

// Components reports which media the rope actually contains.
func (r *Rope) Components() (hasVideo, hasAudio bool) {
	for i := range r.Intervals {
		if r.Intervals[i].Video != nil {
			hasVideo = true
		}
		if r.Intervals[i].Audio != nil {
			hasAudio = true
		}
	}
	return hasVideo, hasAudio
}
