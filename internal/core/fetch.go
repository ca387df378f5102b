package core

import (
	"fmt"
	"math"
	"time"

	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// VisitUnits walks one medium of a rope's [start, start+dur) range as
// raw unit payloads, untimed (the data path for editors and network
// transfer, not the continuity-bearing playback path), calling fn with
// each unit in order. Intervals where the medium is absent yield
// silence-filled units at the medium's unit size and rate.
//
// Units are lent (see strand.Reader.VisitUnits): each aliases the
// device's store or the file system's scratch, is read-only, has
// cap == len, and is valid only until fn returns — so fn must not
// call back into the file system. fn's error stops the walk and is
// returned as is. FetchUnits is the owning variant.
func (fs *FS) VisitUnits(user string, id rope.ID, m rope.Medium, start, dur time.Duration, fn func(unit []byte) error) error {
	if m == rope.AudioVisual {
		return fmt.Errorf("core: fetch one medium at a time")
	}
	r, err := fs.playable(user, id)
	if err != nil {
		return err
	}
	if dur == 0 {
		dur = r.Length() - start
	}
	part, err := fs.ropes.Slice(r, m, start, dur)
	if err != nil {
		return err
	}
	// Find the medium's template strand for unit size/rate of gaps.
	var tmpl *strand.Strand
	for _, iv := range part {
		if ref := iv.Component(m); ref != nil && ref.Strand != strand.Nil {
			if s, ok := fs.strands.Get(ref.Strand); ok {
				tmpl = s
				break
			}
		}
	}
	if tmpl == nil {
		return fmt.Errorf("core: rope %d has no %v component in range", id, m)
	}
	fill := strand.SilenceFill(tmpl.Medium())
	for _, iv := range part {
		ref := iv.Component(m)
		if ref == nil || ref.Strand == strand.Nil {
			n := int(math.Round(iv.Duration.Seconds() * tmpl.Rate()))
			ub := tmpl.UnitBytes()
			if cap(fs.unitBuf) < ub {
				fs.unitBuf = make([]byte, ub)
			}
			silence := fs.unitBuf[:ub:ub]
			for j := range silence {
				silence[j] = fill
			}
			for i := 0; i < n; i++ {
				if err := fn(silence); err != nil {
					return err
				}
			}
			continue
		}
		s, ok := fs.strands.Get(ref.Strand)
		if !ok {
			return fmt.Errorf("core: rope %d references unknown strand %d", id, ref.Strand)
		}
		n := uint64(math.Round(iv.Duration.Seconds() * s.Rate()))
		if avail := s.UnitCount() - ref.StartUnit; n > avail {
			n = avail
		}
		if err := strand.NewReader(fs.d, s).VisitUnits(ref.StartUnit, n, &fs.unitBuf, fn); err != nil {
			return err
		}
	}
	return nil
}

// FetchUnits is VisitUnits plus the one copy that makes each unit the
// caller's own, with cap == len.
func (fs *FS) FetchUnits(user string, id rope.ID, m rope.Medium, start, dur time.Duration) ([][]byte, error) {
	var out [][]byte
	err := fs.VisitUnits(user, id, m, start, dur, func(unit []byte) error {
		own := make([]byte, len(unit))
		copy(own, unit)
		out = append(out, own)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
