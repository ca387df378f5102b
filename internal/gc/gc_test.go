package gc

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/strand"
)

func TestRegisterReleaseCounts(t *testing.T) {
	in := New()
	in.Register(1, 10)
	in.Register(2, 10)
	in.Register(1, 10) // idempotent per holder
	if in.Count(10) != 2 {
		t.Fatalf("count %d, want 2", in.Count(10))
	}
	if in.Release(1, 10) {
		t.Fatal("strand reported unreferenced while holder 2 remains")
	}
	if !in.Release(2, 10) {
		t.Fatal("last release must report unreferenced")
	}
	if in.Count(10) != 0 {
		t.Fatal("count after full release")
	}
	// Releasing again is harmless.
	if in.Release(2, 10) {
		t.Fatal("release of untracked strand reported unreferenced")
	}
}

func TestNilStrandIgnored(t *testing.T) {
	in := New()
	in.Register(1, strand.Nil)
	if in.Count(strand.Nil) != 0 {
		t.Fatal("nil strand tracked")
	}
	if in.Release(1, strand.Nil) {
		t.Fatal("nil strand released")
	}
}

func TestAuditDetectsDivergence(t *testing.T) {
	in := New()
	in.Register(1, 5)
	truth := map[uint64][]strand.ID{1: {5}}
	if err := in.Audit(truth); err != nil {
		t.Fatalf("clean audit failed: %v", err)
	}
	// Missing interest.
	if err := in.Audit(map[uint64][]strand.ID{1: {5}, 2: {5}}); err == nil {
		t.Fatal("missing interest not detected")
	}
	// Phantom interest.
	if err := in.Audit(map[uint64][]strand.ID{}); err == nil {
		t.Fatal("phantom interest not detected")
	}
}

// Property: after any sequence of register/release pairs, the table
// matches a reference map maintained independently.
func TestInterestsQuick(t *testing.T) {
	f := func(seed int64) bool {
		in := New()
		truth := make(map[uint64]map[strand.ID]bool)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 200; step++ {
			h := uint64(rng.Intn(5) + 1)
			s := strand.ID(rng.Intn(8) + 1)
			if rng.Intn(2) == 0 {
				in.Register(h, s)
				if truth[h] == nil {
					truth[h] = make(map[strand.ID]bool)
				}
				truth[h][s] = true
			} else {
				in.Release(h, s)
				delete(truth[h], s)
			}
		}
		ref := make(map[uint64][]strand.ID)
		for h, set := range truth {
			for s := range set {
				ref[h] = append(ref[h], s)
			}
		}
		return in.Audit(ref) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// newStrandStore builds a store with n tiny recorded strands.
func newStrandStore(t *testing.T, n int) (*strand.Store, []strand.ID) {
	t.Helper()
	g := disk.Geometry{
		Cylinders: 100, Surfaces: 2, SectorsPerTrack: 32, SectorSize: 512,
		RPM: 3600, MinSeek: 2 * time.Millisecond, MaxSeek: 20 * time.Millisecond,
	}
	d := disk.MustNew(g)
	a, err := alloc.New(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := strand.NewStore(d, a)
	var ids []strand.ID
	for i := 0; i < n; i++ {
		w, err := strand.NewWriter(d, a, strand.WriterConfig{
			ID: st.NewID(), Medium: layout.Video, Rate: 30, UnitBytes: 256, Granularity: 2,
			Constraint: alloc.Constraint{MinCylinders: 1, MaxCylinders: 8},
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 6; j++ {
			if _, err := w.Append(media.Unit{Seq: uint64(j), Payload: media.FramePayload(int64(i), uint64(j), 256)}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		st.Put(s)
		ids = append(ids, s.ID())
	}
	return st, ids
}

func TestCollectorReclaimsOnlyUnreferenced(t *testing.T) {
	st, ids := newStrandStore(t, 3)
	in := New()
	c := NewCollector(st, in)
	in.Register(100, ids[0])
	in.Register(100, ids[2])

	victims, err := c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 1 || victims[0] != ids[1] {
		t.Fatalf("victims %v, want [%d]", victims, ids[1])
	}
	if st.Len() != 2 {
		t.Fatalf("store has %d strands", st.Len())
	}
	if c.Reclaimed != 1 {
		t.Fatalf("reclaimed counter %d", c.Reclaimed)
	}

	// Dropping the last interests reclaims the rest.
	in.Release(100, ids[0])
	in.Release(100, ids[2])
	victims, err = c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 2 || st.Len() != 0 {
		t.Fatalf("second collect: victims %v, store %d", victims, st.Len())
	}
}

func TestCollectorIdempotent(t *testing.T) {
	st, _ := newStrandStore(t, 2)
	in := New()
	c := NewCollector(st, in)
	if _, err := c.Collect(); err != nil {
		t.Fatal(err)
	}
	victims, err := c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(victims) != 0 {
		t.Fatalf("second collect found %v", victims)
	}
}
