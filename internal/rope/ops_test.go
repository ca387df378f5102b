package rope

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mmfs/internal/alloc"
	"mmfs/internal/disk"
	"mmfs/internal/gc"
	"mmfs/internal/layout"
	"mmfs/internal/media"
	"mmfs/internal/strand"
)

// rig builds a rope store over real recorded strands.
type rig struct {
	d  *disk.Disk
	a  *alloc.Allocator
	ss *strand.Store
	in *gc.Interests
	rs *Store
}

func newRig(t *testing.T) *rig {
	t.Helper()
	g := disk.Geometry{
		Cylinders: 300, Surfaces: 4, SectorsPerTrack: 32, SectorSize: 512,
		RPM: 3600, MinSeek: 2 * time.Millisecond, MaxSeek: 25 * time.Millisecond,
	}
	d := disk.MustNew(g)
	a, err := alloc.New(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	ss := strand.NewStore(d, a)
	in := gc.New()
	return &rig{d: d, a: a, ss: ss, in: in, rs: NewStore(ss, in)}
}

// record creates an AV rope: video at 30 units/s (q=3) and audio at
// 10 units/s (q=2), for `seconds` seconds.
func (r *rig) record(t *testing.T, seconds int, seed int64) *Rope {
	t.Helper()
	write := func(m layout.Medium, rate float64, unitBytes, q, units int) strand.ID {
		w, err := strand.NewWriter(r.d, r.a, strand.WriterConfig{
			ID: r.ss.NewID(), Medium: m, Rate: rate, UnitBytes: unitBytes, Granularity: q,
			Constraint:    alloc.Constraint{MinCylinders: 1, MaxCylinders: 16},
			StartCylinder: int(seed*37) % 280,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < units; i++ {
			if _, err := w.Append(media.Unit{Seq: uint64(i), Payload: media.FramePayload(seed, uint64(i), unitBytes)}); err != nil {
				t.Fatal(err)
			}
		}
		s, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		r.ss.Put(s)
		return s.ID()
	}
	vid := write(layout.Video, 30, 600, 3, 30*seconds)
	aud := write(layout.Audio, 10, 800, 2, 10*seconds)
	rp := r.rs.Create("test")
	rp.Intervals = []Interval{{
		Video:    &ComponentRef{Strand: vid},
		Audio:    &ComponentRef{Strand: aud},
		Duration: time.Duration(seconds) * time.Second,
	}}
	r.rs.SyncInterests(rp)
	return rp
}

func TestInsertGrowsLengthAndSplits(t *testing.T) {
	r := newRig(t)
	base := r.record(t, 4, 1)
	with := r.record(t, 2, 2)
	if err := r.rs.Insert(base, 2*time.Second, AudioVisual, with, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if base.Length() != 5*time.Second {
		t.Fatalf("length %v", base.Length())
	}
	if len(base.Intervals) != 3 {
		t.Fatalf("%d intervals", len(base.Intervals))
	}
	// The tail interval's refs are advanced 2 s into the original
	// strands: 60 video units, 20 audio units.
	tail := base.Intervals[2]
	if tail.Video.StartUnit != 60 || tail.Audio.StartUnit != 20 {
		t.Fatalf("tail refs %d/%d", tail.Video.StartUnit, tail.Audio.StartUnit)
	}
	// The with rope is untouched.
	if with.Length() != 2*time.Second || len(with.Intervals) != 1 {
		t.Fatal("with rope mutated")
	}
}

func TestInsertAtEndsAndErrors(t *testing.T) {
	r := newRig(t)
	base := r.record(t, 2, 3)
	with := r.record(t, 2, 4)
	if err := r.rs.Insert(base, 0, AudioVisual, with, 0, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.rs.Insert(base, base.Length(), AudioVisual, with, time.Second, time.Second); err != nil {
		t.Fatal(err)
	}
	if base.Length() != 4*time.Second {
		t.Fatalf("length %v", base.Length())
	}
	if err := r.rs.Insert(base, 99*time.Second, AudioVisual, with, 0, time.Second); err == nil {
		t.Fatal("insert past end accepted")
	}
	if err := r.rs.Insert(base, 0, AudioVisual, with, 0, 99*time.Second); err == nil {
		t.Fatal("with-range past end accepted")
	}
}

func TestDeleteAVSplicesOut(t *testing.T) {
	r := newRig(t)
	base := r.record(t, 5, 5)
	if err := r.rs.Delete(base, AudioVisual, time.Second, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if base.Length() != 3*time.Second {
		t.Fatalf("length %v", base.Length())
	}
	// The second interval starts 3 s into the strands.
	tail := base.Intervals[1]
	if tail.Video.StartUnit != 90 || tail.Audio.StartUnit != 30 {
		t.Fatalf("tail refs %d/%d", tail.Video.StartUnit, tail.Audio.StartUnit)
	}
}

func TestDeleteSingleMediumPreservesTiming(t *testing.T) {
	r := newRig(t)
	base := r.record(t, 4, 6)
	if err := r.rs.Delete(base, AudioOnly, time.Second, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if base.Length() != 4*time.Second {
		t.Fatalf("length changed to %v", base.Length())
	}
	// Middle interval has video but no audio.
	var sawGap bool
	var acc time.Duration
	for _, iv := range base.Intervals {
		if acc >= time.Second && acc < 3*time.Second {
			if iv.Audio != nil {
				t.Fatal("audio survived inside deleted range")
			}
			if iv.Video == nil {
				t.Fatal("video lost")
			}
			sawGap = true
		}
		acc += iv.Duration
	}
	if !sawGap {
		t.Fatal("no gap interval found")
	}
}

func TestSubstringSharesStrands(t *testing.T) {
	r := newRig(t)
	base := r.record(t, 4, 7)
	sub, err := r.rs.Substring("tester", base, AudioVisual, time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Length() != 2*time.Second {
		t.Fatalf("substring length %v", sub.Length())
	}
	if sub.Intervals[0].Video.Strand != base.Intervals[0].Video.Strand {
		t.Fatal("substring does not share the video strand")
	}
	if sub.Intervals[0].Video.StartUnit != 30 {
		t.Fatalf("substring video ref %d", sub.Intervals[0].Video.StartUnit)
	}
	// Both ropes hold interests in the shared strand.
	if got := r.in.Count(base.Intervals[0].Video.Strand); got != 2 {
		t.Fatalf("shared strand has %d interests", got)
	}
}

func TestSubstringSingleMedium(t *testing.T) {
	r := newRig(t)
	base := r.record(t, 3, 8)
	sub, err := r.rs.Substring("tester", base, VideoOnly, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Intervals[0].Audio != nil {
		t.Fatal("audio leaked into video-only substring")
	}
	if sub.Intervals[0].Video == nil {
		t.Fatal("video missing")
	}
}

func TestConcate(t *testing.T) {
	r := newRig(t)
	r1 := r.record(t, 2, 9)
	r2 := r.record(t, 3, 10)
	cat, err := r.rs.Concate("tester", r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Length() != 5*time.Second {
		t.Fatalf("length %v", cat.Length())
	}
	if len(cat.Intervals) != 2 {
		t.Fatalf("%d intervals", len(cat.Intervals))
	}
	// Sources untouched, strands shared.
	if r1.Length() != 2*time.Second || r2.Length() != 3*time.Second {
		t.Fatal("sources mutated")
	}
}

func TestReplaceSingleMediumMergesTimelines(t *testing.T) {
	r := newRig(t)
	base := r.record(t, 4, 11)
	with := r.record(t, 4, 12)
	origVideo := base.Intervals[0].Video.Strand
	if err := r.rs.Replace(base, AudioOnly, time.Second, 2*time.Second, with, 0, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if base.Length() != 4*time.Second {
		t.Fatalf("length %v", base.Length())
	}
	// Inside [1s,3s): video from base, audio from with.
	var acc time.Duration
	for _, iv := range base.Intervals {
		if acc >= time.Second && acc < 3*time.Second {
			if iv.Video.Strand != origVideo {
				t.Fatal("video replaced too")
			}
			if iv.Audio.Strand == 0 || iv.Audio.Strand == base.Intervals[0].Audio.Strand {
				t.Fatal("audio not replaced")
			}
			if len(iv.Corr) == 0 {
				t.Fatal("correspondence not regenerated")
			}
		}
		acc += iv.Duration
	}
	// Mismatched durations rejected.
	if err := r.rs.Replace(base, AudioOnly, 0, time.Second, with, 0, 2*time.Second); err == nil {
		t.Fatal("mismatched single-medium replace accepted")
	}
}

func TestReplaceAVChangesLength(t *testing.T) {
	r := newRig(t)
	base := r.record(t, 4, 13)
	with := r.record(t, 3, 14)
	if err := r.rs.Replace(base, AudioVisual, time.Second, time.Second, with, 0, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if base.Length() != 6*time.Second {
		t.Fatalf("length %v, want 6s", base.Length())
	}
}

func TestRemoveReleasesInterests(t *testing.T) {
	r := newRig(t)
	rp := r.record(t, 2, 15)
	strands := rp.Strands()
	if err := r.rs.Remove(rp.ID); err != nil {
		t.Fatal(err)
	}
	for _, s := range strands {
		if r.in.Count(s) != 0 {
			t.Fatalf("strand %d still has interests", s)
		}
	}
	if err := r.rs.Remove(rp.ID); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestInterestsAlwaysMatchRopes(t *testing.T) {
	// Property: after random editing sequences, the incremental
	// interests table matches ground truth recomputed from the ropes.
	r := newRig(t)
	ropes := []*Rope{r.record(t, 4, 20), r.record(t, 4, 21), r.record(t, 4, 22)}
	rng := rand.New(rand.NewSource(33))
	for step := 0; step < 60; step++ {
		a := ropes[rng.Intn(len(ropes))]
		b := ropes[rng.Intn(len(ropes))]
		switch rng.Intn(4) {
		case 0:
			if a.Length() > time.Second && b.Length() >= time.Second {
				pos := time.Duration(rng.Int63n(int64(a.Length())))
				_ = r.rs.Insert(a, pos, AudioVisual, b, 0, time.Second)
			}
		case 1:
			if a.Length() > 2*time.Second {
				_ = r.rs.Delete(a, AudioVisual, time.Second, time.Second)
			}
		case 2:
			if a.Length() >= time.Second {
				sub, err := r.rs.Substring("t", a, AudioVisual, 0, time.Second)
				if err == nil {
					ropes = append(ropes, sub)
				}
			}
		case 3:
			cat, err := r.rs.Concate("t", a, b)
			if err == nil {
				ropes = append(ropes, cat)
			}
		}
	}
	truth := make(map[uint64][]strand.ID)
	for _, id := range r.rs.IDs() {
		rp, _ := r.rs.Get(id)
		truth[uint64(id)] = rp.Strands()
	}
	if err := r.in.Audit(truth); err != nil {
		t.Fatal(err)
	}
}

// Property: rope length algebra — insert adds, AV delete subtracts,
// substring/concat compose.
func TestLengthAlgebraQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := newRigQuick(seed)
		if r == nil {
			return false
		}
		base := r.recordQuick(4, seed)
		with := r.recordQuick(3, seed+1)
		rng := rand.New(rand.NewSource(seed))
		expect := base.Length()
		for step := 0; step < 10; step++ {
			switch rng.Intn(2) {
			case 0:
				pos := time.Duration(rng.Int63n(int64(base.Length()) + 1))
				d := 500 * time.Millisecond
				if err := r.rs.Insert(base, pos, AudioVisual, with, 0, d); err != nil {
					return false
				}
				expect += d
			case 1:
				if base.Length() < time.Second {
					continue
				}
				start := time.Duration(rng.Int63n(int64(base.Length() - 500*time.Millisecond)))
				d := 500 * time.Millisecond
				if err := r.rs.Delete(base, AudioVisual, start, d); err != nil {
					return false
				}
				expect -= d
			}
			if base.Length() != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// newRigQuick/recordQuick are panic-free variants for quick.Check.
func newRigQuick(seed int64) *rig {
	g := disk.Geometry{
		Cylinders: 300, Surfaces: 4, SectorsPerTrack: 32, SectorSize: 512,
		RPM: 3600, MinSeek: 2 * time.Millisecond, MaxSeek: 25 * time.Millisecond,
	}
	d := disk.MustNew(g)
	a, err := alloc.New(g, 8)
	if err != nil {
		return nil
	}
	ss := strand.NewStore(d, a)
	in := gc.New()
	return &rig{d: d, a: a, ss: ss, in: in, rs: NewStore(ss, in)}
}

func (r *rig) recordQuick(seconds int, seed int64) *Rope {
	write := func(m layout.Medium, rate float64, unitBytes, q, units int) strand.ID {
		w, err := strand.NewWriter(r.d, r.a, strand.WriterConfig{
			ID: r.ss.NewID(), Medium: m, Rate: rate, UnitBytes: unitBytes, Granularity: q,
			Constraint: alloc.Constraint{MinCylinders: 1, MaxCylinders: 16},
		})
		if err != nil {
			panic(err)
		}
		for i := 0; i < units; i++ {
			if _, err := w.Append(media.Unit{Seq: uint64(i), Payload: make([]byte, unitBytes)}); err != nil {
				panic(err)
			}
		}
		s, err := w.Close()
		if err != nil {
			panic(err)
		}
		r.ss.Put(s)
		return s.ID()
	}
	vid := write(layout.Video, 30, 600, 3, 30*seconds)
	aud := write(layout.Audio, 10, 800, 2, 10*seconds)
	rp := r.rs.Create("q")
	rp.Intervals = []Interval{{
		Video:    &ComponentRef{Strand: vid},
		Audio:    &ComponentRef{Strand: aud},
		Duration: time.Duration(seconds) * time.Second,
	}}
	r.rs.SyncInterests(rp)
	return rp
}

func TestAccessChecks(t *testing.T) {
	r := newRig(t)
	rp := r.record(t, 2, 30)
	rp.Creator = "alice"
	rp.PlayAccess = []string{"bob"}
	rp.EditAccess = []string{"carol"}
	if !rp.CanPlay("alice") || !rp.CanPlay("bob") || rp.CanPlay("dave") {
		t.Fatal("play access")
	}
	if !rp.CanEdit("alice") || !rp.CanEdit("carol") || rp.CanEdit("bob") {
		t.Fatal("edit access")
	}
	open := &Rope{Creator: "x"}
	if !open.CanPlay("anyone") || !open.CanEdit("anyone") {
		t.Fatal("empty lists must mean open access")
	}
}

func TestMediumHelpers(t *testing.T) {
	if AudioVisual.String() != "audiovisual" || VideoOnly.String() != "video" || AudioOnly.String() != "audio" {
		t.Fatal("names")
	}
	// The wire codes are protocol: 0, 1, 2.
	for code, m := range []Medium{AudioVisual, VideoOnly, AudioOnly} {
		if m.Code() != uint16(code) {
			t.Fatalf("%v travels as %d, want %d", m, m.Code(), code)
		}
		if got, err := MediumFromCode(uint16(code)); err != nil || got != m {
			t.Fatalf("code %d reads as %v, %v", code, got, err)
		}
		for _, name := range []string{m.String(), strings.ToUpper(m.String()), []string{"av", "v", "a"}[code]} {
			if got, err := ParseMedium(name); err != nil || got != m {
				t.Fatalf("ParseMedium(%q) = %v, %v", name, got, err)
			}
		}
	}
	if got, err := ParseMedium("both"); err != nil || got != AudioVisual {
		t.Fatalf(`ParseMedium("both") = %v, %v`, got, err)
	}
	if _, err := ParseMedium("smell"); err == nil {
		t.Fatal("ParseMedium accepted an unknown medium")
	}
	if _, err := MediumFromCode(3); err == nil {
		t.Fatal("MediumFromCode accepted code 3")
	}
	if Medium(7).Code() != 0 || Medium(-1).String() != "audiovisual" {
		t.Fatal("a selector outside the table must travel and print as audiovisual")
	}
}

func TestRefreshCorrespondence(t *testing.T) {
	r := newRig(t)
	rp := r.record(t, 2, 31)
	if err := r.rs.Delete(rp, AudioVisual, 500*time.Millisecond, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := r.rs.RefreshCorrespondence(rp); err != nil {
		t.Fatal(err)
	}
	tail := rp.Intervals[len(rp.Intervals)-1]
	if len(tail.Corr) != 1 {
		t.Fatal("no correspondence on tail interval")
	}
	// Tail starts 1 s in: video unit 30 / q 3 = block 10; audio unit
	// 10 / q 2 = block 5.
	if tail.Corr[0].VideoBlock != 10 || tail.Corr[0].AudioBlock != 5 {
		t.Fatalf("correspondence %+v", tail.Corr[0])
	}
}
