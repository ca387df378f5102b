package rope

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mmfs/internal/gc"
	"mmfs/internal/strand"
)

// Store is the rope registry of one file system. It owns rope
// identity, resolves component refs against the strand store, and
// keeps the interests table in sync with the ropes' strand references
// so the garbage collector can reclaim unreferenced strands.
type Store struct {
	strands   *strand.Store
	interests *gc.Interests
	ropes     map[ID]*Rope
	// lastStrands remembers each rope's strand set at the last sync,
	// so edits can release interests the rope no longer holds.
	lastStrands map[ID][]strand.ID
	nextID      ID
}

// NewStore creates an empty rope registry.
func NewStore(ss *strand.Store, in *gc.Interests) *Store {
	return &Store{
		strands:     ss,
		interests:   in,
		ropes:       make(map[ID]*Rope),
		lastStrands: make(map[ID][]strand.ID),
		nextID:      1,
	}
}

// Strands exposes the strand store ropes resolve against.
func (s *Store) Strands() *strand.Store { return s.strands }

// Create registers a new empty rope owned by creator.
func (s *Store) Create(creator string) *Rope {
	r := &Rope{ID: s.nextID, Creator: creator}
	s.nextID++
	s.ropes[r.ID] = r
	return r
}

// Get looks a rope up by ID.
func (s *Store) Get(id ID) (*Rope, bool) {
	r, ok := s.ropes[id]
	return r, ok
}

// Len reports the number of registered ropes.
func (s *Store) Len() int { return len(s.ropes) }

// IDs lists rope IDs ascending.
func (s *Store) IDs() []ID {
	out := make([]ID, 0, len(s.ropes))
	for id := range s.ropes {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Remove deletes a rope and releases its interests; a following GC
// collection reclaims any strands now unreferenced.
func (s *Store) Remove(id ID) error {
	r, ok := s.ropes[id]
	if !ok {
		return fmt.Errorf("rope: delete of unknown rope %d", id)
	}
	for _, sid := range s.lastStrands[id] {
		s.interests.Release(uint64(id), sid)
	}
	delete(s.lastStrands, id)
	delete(s.ropes, r.ID)
	return nil
}

// SyncInterests reconciles the interests table with the rope's current
// strand references: one merge of the rope's sorted strand set against
// the set it held at the last sync registers what is new and releases
// what is gone. Every operation that changes an interval list must call
// it before the next collection.
func (s *Store) SyncInterests(r *Rope) {
	cur, last := r.Strands(), s.lastStrands[r.ID]
	for i, j := 0, 0; i < len(cur) || j < len(last); {
		switch {
		case j == len(last) || (i < len(cur) && cur[i] < last[j]):
			s.interests.Register(uint64(r.ID), cur[i])
			i++
		case i == len(cur) || last[j] < cur[i]:
			s.interests.Release(uint64(r.ID), last[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	s.lastStrands[r.ID] = cur
}

// ReplaceStrandRefs rewrites every rope reference from the old strand
// to the new one (used when reorganization relocates a strand's
// blocks; the unit numbering is preserved, so StartUnit fields carry
// over unchanged). Interests move with the references. It returns the
// ropes it rewrote, by ascending ID.
func (s *Store) ReplaceStrandRefs(old, new strand.ID) []*Rope {
	var touched []*Rope
	for _, id := range s.IDs() {
		r := s.ropes[id]
		hit := false
		for i := range r.Intervals {
			if v := r.Intervals[i].Video; v != nil && v.Strand == old {
				v.Strand = new
				hit = true
			}
			if a := r.Intervals[i].Audio; a != nil && a.Strand == old {
				a.Strand = new
				hit = true
			}
		}
		if hit {
			s.SyncInterests(r)
			touched = append(touched, r)
		}
	}
	return touched
}

// rate resolves a component ref's recording rate (units/second).
func (s *Store) rate(ref *ComponentRef) (float64, error) {
	st, ok := s.strands.Get(ref.Strand)
	if !ok {
		return 0, fmt.Errorf("rope: component references unknown strand %d", ref.Strand)
	}
	return st.Rate(), nil
}

// unitsIn converts a duration to a unit count at the ref's rate.
func (s *Store) unitsIn(ref *ComponentRef, d time.Duration) (uint64, error) {
	rate, err := s.rate(ref)
	if err != nil {
		return 0, err
	}
	return uint64(math.Round(d.Seconds() * rate)), nil
}

// advance returns a copy of ref moved forward by d of playback.
func (s *Store) advance(ref *ComponentRef, d time.Duration) (*ComponentRef, error) {
	if ref == nil {
		return nil, nil
	}
	units, err := s.unitsIn(ref, d)
	if err != nil {
		return nil, err
	}
	out := *ref
	out.StartUnit += units
	return &out, nil
}

// splitInterval cuts iv into [0,d) and [d,Duration), advancing the
// second part's component refs.
func (s *Store) splitInterval(iv Interval, d time.Duration) (Interval, Interval, error) {
	a := iv.clone()
	b := iv.clone()
	a.Duration = d
	b.Duration = iv.Duration - d
	var err error
	if b.Video, err = s.advance(iv.Video, d); err != nil {
		return Interval{}, Interval{}, err
	}
	if b.Audio, err = s.advance(iv.Audio, d); err != nil {
		return Interval{}, Interval{}, err
	}
	// Correspondence entries mark the interval start and stay with
	// the first part. Triggers are anchored to media blocks, so each
	// follows the part that contains its block (block numbers are
	// strand-absolute and need no rewriting).
	b.Corr = nil
	a.Triggers, b.Triggers = nil, nil
	for _, trig := range iv.Triggers {
		off, err := s.triggerOffset(&iv, trig)
		if err != nil {
			return Interval{}, Interval{}, err
		}
		if off < d {
			a.Triggers = append(a.Triggers, trig)
		} else {
			b.Triggers = append(b.Triggers, trig)
		}
	}
	return a, b, nil
}

// splitAt ensures an interval boundary exists exactly at offset t and
// returns the index of the interval beginning at t (len(Intervals)
// when t equals the rope length).
func (s *Store) splitAt(r *Rope, t time.Duration) (int, error) {
	if t < 0 || t > r.Length() {
		return 0, fmt.Errorf("rope %d: offset %v outside length %v", r.ID, t, r.Length())
	}
	var acc time.Duration
	for i := range r.Intervals {
		if acc == t {
			return i, nil
		}
		end := acc + r.Intervals[i].Duration
		if t < end {
			a, b, err := s.splitInterval(r.Intervals[i], t-acc)
			if err != nil {
				return 0, err
			}
			r.Intervals = append(r.Intervals[:i], append([]Interval{a, b}, r.Intervals[i+1:]...)...)
			return i + 1, nil
		}
		acc = end
	}
	return len(r.Intervals), nil
}

// Slice extracts a deep copy of the rope's [start, start+dur) range,
// restricted to the selected media; it is the read-only view editing
// and data fetch build on.
func (s *Store) Slice(r *Rope, m Medium, start, dur time.Duration) ([]Interval, error) {
	return s.slice(r, m, start, dur)
}

// slice extracts a deep copy of the rope's [start, start+dur) range,
// restricted to the selected media (unselected components come back
// nil).
func (s *Store) slice(r *Rope, m Medium, start, dur time.Duration) ([]Interval, error) {
	if err := r.validateRange(start, dur); err != nil {
		return nil, err
	}
	var out []Interval
	var acc time.Duration
	end := start + dur
	for _, iv := range r.Intervals {
		ivEnd := acc + iv.Duration
		lo := max(acc, start)
		hi := min(ivEnd, end)
		if hi > lo {
			part := iv.clone()
			var err error
			if part.Video, err = s.advance(iv.Video, lo-acc); err != nil {
				return nil, err
			}
			if part.Audio, err = s.advance(iv.Audio, lo-acc); err != nil {
				return nil, err
			}
			part.Duration = hi - lo
			switch m {
			case VideoOnly:
				part.Audio = nil
			case AudioOnly:
				part.Video = nil
			}
			out = append(out, part)
		}
		acc = ivEnd
		if acc >= end {
			break
		}
	}
	return out, nil
}
