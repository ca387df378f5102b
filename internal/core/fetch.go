package core

import (
	"fmt"
	"math"
	"time"

	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// FetchUnits retrieves one medium of a rope's [start, start+dur) range
// as raw unit payloads, untimed (the data path for editors and
// network transfer, not the continuity-bearing playback path).
// Intervals where the medium is absent yield silence-filled units at
// the medium's unit size and rate.
func (fs *FS) FetchUnits(user string, id rope.ID, m rope.Medium, start, dur time.Duration) ([][]byte, error) {
	if m == rope.AudioVisual {
		return nil, fmt.Errorf("core: fetch one medium at a time")
	}
	r, ok := fs.ropes.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown rope %d", id)
	}
	if !r.CanPlay(user) {
		return nil, fmt.Errorf("%w: user %q cannot play rope %d", ErrAccess, user, id)
	}
	if dur == 0 {
		dur = r.Length() - start
	}
	part, err := fs.ropes.Slice(r, m, start, dur)
	if err != nil {
		return nil, err
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
		return nil, fmt.Errorf("core: rope %d has no %v component in range", id, m)
	}
	fill := strand.SilenceFill(tmpl.Medium())
	var out [][]byte
	for _, iv := range part {
		ref := iv.Component(m)
		if ref == nil || ref.Strand == strand.Nil {
			n := int(math.Round(iv.Duration.Seconds() * tmpl.Rate()))
			for i := 0; i < n; i++ {
				u := make([]byte, tmpl.UnitBytes())
				for j := range u {
					u[j] = fill
				}
				out = append(out, u)
			}
			continue
		}
		s, ok := fs.strands.Get(ref.Strand)
		if !ok {
			return nil, fmt.Errorf("core: rope %d references unknown strand %d", id, ref.Strand)
		}
		rd := strand.NewReader(fs.d, s)
		n := uint64(math.Round(iv.Duration.Seconds() * s.Rate()))
		if avail := s.UnitCount() - ref.StartUnit; n > avail {
			n = avail
		}
		if out, err = rd.AppendUnits(out, ref.StartUnit, n); err != nil {
			return nil, err
		}
	}
	return out, nil
}
