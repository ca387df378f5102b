package core

import (
	"errors"
	"fmt"

	"mmfs/internal/alloc"
	"mmfs/internal/media"
	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// Flatten implements §6.2's strand-merging direction: "we are
// investigating mechanisms for merging multiple media strands so as to
// optimize storage utilization". A heavily edited rope accumulates an
// interval list spanning many strands (each with its own index blocks
// and junction hops); Flatten materializes each medium of the rope
// into one fresh, contiguous-chained strand and replaces the interval
// list with a single interval. Strands that thereby lose their last
// interest are reclaimed by the garbage collector.
//
// Flatten trades a one-time copy of the rope's data for permanently
// smaller metadata, zero junctions, and the tightest possible
// scattering — the opposite end of the copying spectrum from §4.2's
// bounded junction smoothing.
func (fs *FS) Flatten(user string, id rope.ID) (EditResult, error) {
	r, err := fs.editable(user, id)
	if err != nil {
		return EditResult{}, err
	}
	var res EditResult
	newIv := rope.Interval{Duration: r.Length()}
	for _, m := range []rope.Medium{rope.VideoOnly, rope.AudioOnly} {
		ref, err := fs.flattenMedium(r, m)
		if err != nil {
			return res, err
		}
		switch m {
		case rope.VideoOnly:
			newIv.Video = ref
		case rope.AudioOnly:
			newIv.Audio = ref
		}
	}
	if newIv.Video == nil && newIv.Audio == nil {
		return res, fmt.Errorf("core: rope %d has no media to flatten", id)
	}
	r.Intervals = []rope.Interval{newIv}
	fs.ropes.SyncInterests(r)
	if err := fs.ropes.RefreshCorrespondence(r); err != nil {
		return res, err
	}
	if res.Reclaimed, err = fs.Collect(); err != nil {
		return res, err
	}
	return res, nil
}

// flattenMedium copies one medium of the rope into a fresh strand and
// returns its component ref, or nil when the medium is absent
// everywhere. Triggers are intentionally not carried over: their block
// anchors belong to the old strands (callers re-attach them from
// Triggers() output if needed).
func (fs *FS) flattenMedium(r *rope.Rope, m rope.Medium) (*rope.ComponentRef, error) {
	// Find a template strand for the medium's parameters.
	var tmpl *strand.Strand
	for _, iv := range r.Intervals {
		if ref := iv.Component(m); ref != nil && ref.Strand != strand.Nil {
			s, ok := fs.strands.Get(ref.Strand)
			if !ok {
				return nil, fmt.Errorf("core: rope %d references unknown strand %d", r.ID, ref.Strand)
			}
			tmpl = s
			break
		}
	}
	if tmpl == nil {
		return nil, nil
	}
	if tmpl.Variable() {
		return nil, fmt.Errorf("core: flatten of variable-rate strands is not supported (strand %d)", tmpl.ID())
	}
	w, err := strand.NewWriter(fs.d, fs.a, strand.WriterConfig{
		ID:            fs.strands.NewID(),
		Medium:        tmpl.Medium(),
		Rate:          tmpl.Rate(),
		UnitBytes:     tmpl.UnitBytes(),
		Granularity:   tmpl.Granularity(),
		Constraint:    fs.Constraint(),
		StartCylinder: fs.nextStartCylinder(),
	})
	if err != nil {
		return nil, err
	}
	// Walk the rope's units for this medium, reading through the old
	// strands (gaps come back silence-filled) and appending to the
	// fresh strand.
	units, err := fs.FetchUnits(r.Creator, r.ID, m, 0, 0)
	if err != nil {
		w.Abort()
		return nil, err
	}
	for seq, payload := range units {
		if len(payload) != tmpl.UnitBytes() {
			w.Abort()
			return nil, fmt.Errorf("core: flatten unit %d has %d bytes, template %d", seq, len(payload), tmpl.UnitBytes())
		}
		if _, err := w.Append(media.Unit{Seq: uint64(seq), Payload: payload}); err != nil {
			w.Abort()
			if errors.Is(err, alloc.ErrNoSpace) {
				return nil, fmt.Errorf("core: flatten of rope %d: %w", r.ID, err)
			}
			return nil, err
		}
	}
	s, err := w.Close()
	if err != nil {
		return nil, err
	}
	fs.strands.Put(s)
	return &rope.ComponentRef{Strand: s.ID()}, nil
}
