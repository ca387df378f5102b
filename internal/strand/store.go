package strand

import (
	"encoding/binary"
	"fmt"
	"slices"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
	"mmfs/internal/layout"
)

// Store is the strand registry of one file system: it assigns unique
// IDs, keeps loaded strands, and persists the (ID → header block)
// table so strands survive unmount. Reclamation is driven from above
// by the interests-based garbage collector (internal/gc); Remove here
// frees the strand's media and index sectors.
type Store struct {
	d       disk.Device
	a       *alloc.Allocator
	strands map[ID]*Strand
	nextID  ID
	// onRemove, when set, hears of every strand about to lose its sectors.
	onRemove func(ID)
}

// NewStore creates an empty registry over the disk and allocator.
func NewStore(d disk.Device, a *alloc.Allocator) *Store {
	return &Store{d: d, a: a, strands: make(map[ID]*Strand), nextID: 1}
}

// NewID reserves the next unique strand ID.
func (st *Store) NewID() ID {
	id := st.nextID
	st.nextID++
	return id
}

// Put registers a completed strand. Registering a duplicate ID is a
// programming error and panics.
func (st *Store) Put(s *Strand) {
	if _, ok := st.strands[s.ID()]; ok {
		panic(fmt.Sprintf("strand: duplicate ID %d", s.ID()))
	}
	st.strands[s.ID()] = s
	if s.ID() >= st.nextID {
		st.nextID = s.ID() + 1
	}
}

// Get looks up a strand by ID.
func (st *Store) Get(id ID) (*Strand, bool) {
	s, ok := st.strands[id]
	return s, ok
}

// MustGet looks up a strand that is known to exist.
func (st *Store) MustGet(id ID) *Strand {
	s, ok := st.strands[id]
	if !ok {
		panic(fmt.Sprintf("strand: unknown ID %d", id))
	}
	return s
}

// Len reports the number of registered strands.
func (st *Store) Len() int { return len(st.strands) }

// IDs lists registered strand IDs in ascending order.
func (st *Store) IDs() []ID {
	out := make([]ID, 0, len(st.strands))
	for id := range st.strands {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// IDsWhere lists, ascending, the registered strand IDs keep accepts. The
// garbage collector picks its victims through it: only they are sorted,
// not the whole registry.
func (st *Store) IDsWhere(keep func(ID) bool) []ID {
	var out []ID
	for id := range st.strands {
		if keep(id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// OnRemove installs the removal hook: fn is called with a strand's ID
// inside Remove, before its runs return to the allocator. Remove is the
// one place a strand's sectors are freed, so whoever retains views of a
// strand's blocks (the interval cache) lets go of them here, whichever
// caller — garbage collection, reorganization, an experiment — removes
// it.
func (st *Store) OnRemove(fn func(ID)) { st.onRemove = fn }

// Remove unregisters the strand and frees its media blocks and index
// blocks. The caller (the garbage collector) guarantees no rope still
// references it.
func (st *Store) Remove(id ID) error {
	s, ok := st.strands[id]
	if !ok {
		return fmt.Errorf("strand: remove of unknown ID %d", id)
	}
	if st.onRemove != nil {
		st.onRemove(id)
	}
	for _, r := range s.MediaRuns() {
		st.a.Free(r)
	}
	for _, r := range s.MetaRuns() {
		st.a.Free(r)
	}
	delete(st.strands, id)
	return nil
}

// tableEntrySize is the marshaled size of one strand-table entry.
const tableEntrySize = 8 + 4 + 4

// Marshal appends the registry table (ID, header location) plus the
// next-ID watermark to dst and returns the extended slice; Sync passes
// its metadata scratch buffer.
func (st *Store) Marshal(dst []byte) []byte {
	le := binary.LittleEndian
	ids := st.IDs()
	b := slices.Grow(dst, 8+4+len(ids)*tableEntrySize)
	b = le.AppendUint64(b, uint64(st.nextID))
	b = le.AppendUint32(b, uint32(len(ids)))
	for _, id := range ids {
		s := st.strands[id]
		b = le.AppendUint64(b, uint64(id))
		b = le.AppendUint32(b, s.ix.HeaderRun.Sector)
		b = le.AppendUint32(b, s.ix.HeaderRun.SectorCount)
	}
	return b
}

// Unmarshal restores the registry by loading each strand's index from
// disk.
func (st *Store) Unmarshal(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("strand: table truncated at %d bytes", len(data))
	}
	st.nextID = ID(binary.LittleEndian.Uint64(data))
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if 12+n*tableEntrySize > len(data) {
		return fmt.Errorf("strand: table claims %d entries beyond %d bytes", n, len(data))
	}
	st.strands = make(map[ID]*Strand, n)
	o := 12
	for i := 0; i < n; i++ {
		id := ID(binary.LittleEndian.Uint64(data[o:]))
		hlba := int(binary.LittleEndian.Uint32(data[o+8:]))
		hsec := int(binary.LittleEndian.Uint32(data[o+12:]))
		o += tableEntrySize
		ix, err := layout.LoadIndex(st.d, hlba, hsec, st.d.Geometry().SectorSize)
		if err != nil {
			return fmt.Errorf("strand %d: %w", id, err)
		}
		if ID(ix.Header.StrandID) != id {
			return fmt.Errorf("strand table names %d but header says %d", id, ix.Header.StrandID)
		}
		st.strands[id] = FromIndex(ix)
	}
	return nil
}

// BuildMeta describes the identity of a strand assembled from
// already-written blocks (the editing path: redistribution copies).
type BuildMeta struct {
	ID          ID
	Medium      layout.Medium
	Rate        float64
	UnitBytes   int
	Granularity int
	UnitCount   uint64
	Variable    bool
}

// BuildFromEntries constructs and registers a strand over media blocks
// that are already on disk (and already allocated), building a fresh
// index. Rope editing uses it to create the small copied strands the
// scattering-maintenance algorithm produces (§4.2: "copying creates a
// new strand containing only the copied blocks").
func (st *Store) BuildFromEntries(meta BuildMeta, entries []layout.PrimaryEntry) (*Strand, error) {
	var flags uint8
	if meta.Variable {
		flags |= layout.FlagVariable
	}
	h := layout.Header{
		StrandID:    uint64(meta.ID),
		Medium:      meta.Medium,
		Flags:       flags,
		RateMilli:   uint64(meta.Rate * 1000),
		UnitBits:    uint32(meta.UnitBytes * 8),
		Granularity: uint32(meta.Granularity),
		UnitCount:   meta.UnitCount,
	}
	// The index blocks placed so far go back to the allocator when a later
	// one finds no room: a failed build must not leak sectors.
	var placed []alloc.Run
	ix, err := layout.BuildIndex(h, entries, st.d.Geometry().SectorSize, func(n int) (int, error) {
		r, err := st.a.Allocate(n)
		if err != nil {
			return 0, err
		}
		placed = append(placed, r)
		return r.LBA, nil
	}, st.d)
	if err != nil {
		for _, r := range placed {
			st.a.Free(r)
		}
		return nil, err
	}
	s := FromIndex(ix)
	st.Put(s)
	return s, nil
}
