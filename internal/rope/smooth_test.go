package rope

import (
	"testing"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/msm"
)

// distantRopes records two single-interval video ropes whose strands
// live in distant disk regions, so their CONCATE junction exceeds the
// placement bound.
func distantRopes(t *testing.T, r *rig) (*Rope, *Rope) {
	t.Helper()
	// record() spreads start cylinders by seed.
	a := r.record(t, 2, 1) // near cylinder 37
	b := r.record(t, 2, 7) // near cylinder 259
	return a, b
}

func TestSmoothRopeCopiesBoundedBlocks(t *testing.T) {
	r := newRig(t)
	a, b := distantRopes(t, r)
	cat, err := r.rs.Concate("t", a, b)
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEditor(r.d, r.a, r.rs, 16)
	reports, err := ed.SmoothRope(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Fatal("distant junction not smoothed")
	}
	g := r.d.Geometry()
	for _, rep := range reports {
		if rep.Copied == 0 {
			t.Fatalf("report with zero copies: %+v", rep)
		}
		if rep.NewStrand == 0 {
			t.Fatal("no copy strand recorded")
		}
		// The copied blocks live in a registered, immutable strand.
		if _, ok := r.ss.Get(rep.NewStrand); !ok {
			t.Fatalf("copy strand %d not registered", rep.NewStrand)
		}
		// Prediction: copies ≈ ceil((dist-max)/(max-1)), never more
		// than a healthy multiple on an empty disk.
		if rep.Copied > rep.DistCylinders {
			t.Fatalf("copied %d blocks for a %d-cylinder junction", rep.Copied, rep.DistCylinders)
		}
	}
	// After smoothing, every junction hop within each medium is
	// within the bound.
	for _, m := range []Medium{VideoOnly, AudioOnly} {
		ivs := cat.Intervals
		for i := 0; i+1 < len(ivs); i++ {
			cylA, constrained, err := ed.junctionEnds(cat, m, i)
			if err != nil {
				t.Fatal(err)
			}
			if !constrained {
				continue
			}
			next := ivs[i+1].Component(m)
			ns, _ := r.ss.Get(next.Strand)
			q := uint64(ns.Granularity())
			// First non-silent block of the next interval.
			for blk := int(next.StartUnit / q); blk < ns.NumBlocks(); blk++ {
				e, _ := ns.Block(blk)
				if e.Silent() {
					continue
				}
				d := g.CylinderOf(int(e.Sector)) - cylA
				if d < 0 {
					d = -d
				}
				if d > 16 {
					t.Fatalf("%v junction %d still %d cylinders wide", m, i, d)
				}
				break
			}
		}
	}
	// Interests include the fresh copy strands.
	for _, rep := range reports {
		if r.in.Count(rep.NewStrand) == 0 {
			t.Fatalf("copy strand %d has no interest", rep.NewStrand)
		}
	}
}

func TestSmoothRopeIdempotent(t *testing.T) {
	r := newRig(t)
	a, b := distantRopes(t, r)
	cat, err := r.rs.Concate("t", a, b)
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEditor(r.d, r.a, r.rs, 16)
	if _, err := ed.SmoothRope(cat); err != nil {
		t.Fatal(err)
	}
	again, err := ed.SmoothRope(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 0 {
		t.Fatalf("second smoothing still copied: %+v", again)
	}
}

func TestSmoothRopeNoWorkWithinBounds(t *testing.T) {
	r := newRig(t)
	a := r.record(t, 2, 1)
	// Substring + reassembly of the same strand region: junctions are
	// contiguous in the strand and need no copying.
	sub1, err := r.rs.Substring("t", a, AudioVisual, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := r.rs.Substring("t", a, AudioVisual, time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := r.rs.Concate("t", sub1, sub2)
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEditor(r.d, r.a, r.rs, 16)
	reports, err := ed.SmoothRope(cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("contiguous junction smoothed: %+v", reports)
	}
}

func TestSmoothedRopeCompilesAndBounds(t *testing.T) {
	r := newRig(t)
	a, b := distantRopes(t, r)
	cat, err := r.rs.Concate("t", a, b)
	if err != nil {
		t.Fatal(err)
	}
	ed := NewEditor(r.d, r.a, r.rs, 16)
	if _, err := ed.SmoothRope(cat); err != nil {
		t.Fatal(err)
	}
	plan, err := r.rs.CompilePlay(r.d, cat, VideoOnly, 0, cat.Length(), msm.PlanOptions{ReadAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The compiled plan's measured scattering respects the policy
	// bound (plus the policy's realized access time).
	bound := r.d.Geometry().AccessTime(16)
	if got := continuity.Duration(plan.Admission.Scattering); got > bound {
		t.Fatalf("plan scattering %v exceeds policy bound %v", got, bound)
	}
}

func TestEditorBounds(t *testing.T) {
	r := newRig(t)
	ed := NewEditor(r.d, r.a, r.rs, 16)
	s, d, err := ed.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if s < 1 || d < s {
		t.Fatalf("bounds %d/%d", s, d)
	}
}
