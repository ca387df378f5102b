package core

import (
	"fmt"
	"time"

	"mmfs/internal/rope"
	"mmfs/internal/strand"
)

// EditResult reports what an editing operation did beyond the interval
// manipulation itself.
type EditResult struct {
	// Smoothed lists the junctions the scattering-maintenance
	// algorithm had to smooth, with their copy counts.
	Smoothed []rope.JunctionReport
	// Reclaimed lists strands the garbage collector removed because
	// the edit dropped the last interest in them.
	Reclaimed []strand.ID
}

// CopiedBlocks sums the blocks copied across all smoothed junctions.
func (er EditResult) CopiedBlocks() int {
	total := 0
	for _, j := range er.Smoothed {
		total += j.Copied
	}
	return total
}

// finishEdit runs the post-edit pipeline on a mutated rope: smooth
// junction scattering, refresh block-level correspondence, and collect
// garbage.
func (fs *FS) finishEdit(r *rope.Rope) (EditResult, error) {
	var res EditResult
	reports, err := fs.smooth(r)
	if err != nil {
		return res, err
	}
	res.Smoothed = reports
	if res.Reclaimed, err = fs.Collect(); err != nil {
		return res, err
	}
	return res, nil
}

// smooth keeps the editing guarantee on a rope whose junctions may have
// moved — an edit made them, or a reorganization relocated a strand at
// one of their ends: it smooths every junction over the bound
// (rope.Editor.SmoothRope), counts the copies, and refreshes the rope's
// block-level correspondence.
func (fs *FS) smooth(r *rope.Rope) ([]rope.JunctionReport, error) {
	reports, err := fs.editor.SmoothRope(r)
	for _, j := range reports { // those smoothed before a failure included
		fs.copiedBlocks.Add(uint64(j.Copied))
		fs.copiedBytes.Add(uint64(j.CopiedBytes))
	}
	if err != nil {
		return nil, err
	}
	return reports, fs.ropes.RefreshCorrespondence(r)
}

// editable fetches a rope and checks edit access.
func (fs *FS) editable(user string, id rope.ID) (*rope.Rope, error) {
	r, ok := fs.ropes.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown rope %d", id)
	}
	if !r.CanEdit(user) {
		return nil, fmt.Errorf("%w: user %q cannot edit rope %d", ErrAccess, user, id)
	}
	return r, nil
}

// playable fetches a rope and checks play (read) access.
func (fs *FS) playable(user string, id rope.ID) (*rope.Rope, error) {
	r, ok := fs.ropes.Get(id)
	if !ok {
		return nil, fmt.Errorf("core: unknown rope %d", id)
	}
	if !r.CanPlay(user) {
		return nil, fmt.Errorf("%w: user %q cannot read rope %d", ErrAccess, user, id)
	}
	return r, nil
}

// Insert implements §4.1's INSERT on a stored rope, then maintains
// scattering across the junctions the insertion created.
func (fs *FS) Insert(user string, base rope.ID, position time.Duration, m rope.Medium, with rope.ID, withStart, withDur time.Duration) (EditResult, error) {
	br, err := fs.editable(user, base)
	if err != nil {
		return EditResult{}, err
	}
	wr, err := fs.playable(user, with)
	if err != nil {
		return EditResult{}, err
	}
	if err := fs.ropes.Insert(br, position, m, wr, withStart, withDur); err != nil {
		return EditResult{}, err
	}
	return fs.finishEdit(br)
}

// Replace implements §4.1's REPLACE.
func (fs *FS) Replace(user string, base rope.ID, m rope.Medium, baseStart, baseDur time.Duration, with rope.ID, withStart, withDur time.Duration) (EditResult, error) {
	br, err := fs.editable(user, base)
	if err != nil {
		return EditResult{}, err
	}
	wr, err := fs.playable(user, with)
	if err != nil {
		return EditResult{}, err
	}
	if err := fs.ropes.Replace(br, m, baseStart, baseDur, wr, withStart, withDur); err != nil {
		return EditResult{}, err
	}
	return fs.finishEdit(br)
}

// Substring implements §4.1's SUBSTRING, returning the new rope.
func (fs *FS) Substring(user string, base rope.ID, m rope.Medium, start, dur time.Duration) (*rope.Rope, EditResult, error) {
	br, err := fs.playable(user, base)
	if err != nil {
		return nil, EditResult{}, err
	}
	out, err := fs.ropes.Substring(user, br, m, start, dur)
	if err != nil {
		return nil, EditResult{}, err
	}
	res, err := fs.finishEdit(out)
	return out, res, err
}

// Concate implements §4.1's CONCATE, returning the new rope (Figure
// 10: the junction between the two ropes' strands is where copying may
// occur).
func (fs *FS) Concate(user string, r1, r2 rope.ID) (*rope.Rope, EditResult, error) {
	a, err := fs.playable(user, r1)
	if err != nil {
		return nil, EditResult{}, err
	}
	b, err := fs.playable(user, r2)
	if err != nil {
		return nil, EditResult{}, err
	}
	out, err := fs.ropes.Concate(user, a, b)
	if err != nil {
		return nil, EditResult{}, err
	}
	res, err := fs.finishEdit(out)
	return out, res, err
}

// DeleteRange implements §4.1's DELETE of a media interval.
func (fs *FS) DeleteRange(user string, base rope.ID, m rope.Medium, start, dur time.Duration) (EditResult, error) {
	br, err := fs.editable(user, base)
	if err != nil {
		return EditResult{}, err
	}
	if err := fs.ropes.Delete(br, m, start, dur); err != nil {
		return EditResult{}, err
	}
	return fs.finishEdit(br)
}

// AddTrigger attaches synchronized text at an offset of the rope
// (Figure 8's trigger information).
func (fs *FS) AddTrigger(user string, id rope.ID, at time.Duration, text string) error {
	r, err := fs.editable(user, id)
	if err != nil {
		return err
	}
	return fs.ropes.AddTrigger(r, at, text)
}

// Triggers lists a rope's synchronized-text triggers with their
// resolved rope-relative times.
func (fs *FS) Triggers(user string, id rope.ID) ([]rope.TriggerAt, error) {
	r, err := fs.playable(user, id)
	if err != nil {
		return nil, err
	}
	return fs.ropes.Triggers(r)
}

// DeleteRope removes a whole rope; strands it alone referenced are
// reclaimed by the garbage collector.
func (fs *FS) DeleteRope(user string, id rope.ID) ([]strand.ID, error) {
	if _, err := fs.editable(user, id); err != nil {
		return nil, err
	}
	if err := fs.ropes.Remove(id); err != nil {
		return nil, err
	}
	delete(fs.plays, playKey{id, rope.VideoOnly})
	delete(fs.plays, playKey{id, rope.AudioOnly})
	return fs.Collect()
}
