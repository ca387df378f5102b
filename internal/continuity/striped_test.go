package continuity

import "testing"

// The aggregate bound is p times Eq. 17's n_max: with n_max streams
// resident on each of p spindles every spindle's Eq. 18 holds, and one
// more on any spindle fails.
func TestStripedNMaxAggregate(t *testing.T) {
	a := AdmissionFor(testDevice())
	tmpl := videoRequest()
	single := a.NMax(tmpl)
	for _, p := range []int{1, 2, 4} {
		s := Striped{A: a, P: p}
		sets := make([][]Request, p)
		for sp := range sets {
			sets[sp] = repeatReq(tmpl, single-1)
		}
		for sp := range sets {
			if d := s.Admit(sets, sp, 1, tmpl); !d.Admitted {
				t.Fatalf("p=%d: stream %d on spindle %d rejected: %s", p, single, sp, d.Reason)
			}
			sets[sp] = append(sets[sp], tmpl)
		}
		for sp := range sets {
			if d := s.Admit(sets, sp, 1, tmpl); d.Admitted {
				t.Fatalf("p=%d: spindle %d admitted past n_max = %d", p, sp, single)
			}
		}
	}
}

func TestStripedAdmitPerSpindle(t *testing.T) {
	a := AdmissionFor(testDevice())
	tmpl := videoRequest()
	nmax := a.NMax(tmpl)
	s := Striped{A: a, P: 2}

	// Spindle 0 saturated, spindle 1 empty: a candidate homed on
	// spindle 1 is admitted, one homed on spindle 0 is refused.
	sets := [][]Request{repeatReq(tmpl, nmax), nil}
	if d := s.Admit(sets, 1, 1, tmpl); !d.Admitted {
		t.Fatalf("empty spindle refused: %s", d.Reason)
	}
	if d := s.Admit(sets, 0, 1, tmpl); d.Admitted {
		t.Fatal("saturated spindle admitted past n_max")
	}
	// Unknown placement must fit on every spindle: refused while one
	// spindle is saturated, admitted when both have room.
	if d := s.Admit(sets, -1, 1, tmpl); d.Admitted {
		t.Fatal("unknown placement admitted despite a saturated spindle")
	}
	balanced := [][]Request{repeatReq(tmpl, nmax-1), repeatReq(tmpl, nmax-2)}
	d := s.Admit(balanced, -1, 1, tmpl)
	if !d.Admitted {
		t.Fatalf("unknown placement refused with room everywhere: %s", d.Reason)
	}
	// The global K is the max of the per-spindle solutions — here the
	// fuller spindle 0 dominates — and no smaller than kOld.
	d0 := a.Admit(balanced[0], 1, tmpl)
	d1 := a.Admit(balanced[1], 1, tmpl)
	want := d0.K
	if d1.K > want {
		want = d1.K
	}
	if d.K != want {
		t.Fatalf("global K = %d, want max(per-spindle) = %d", d.K, want)
	}
	if d.K < 1 {
		t.Fatalf("global K = %d below kOld 1", d.K)
	}
	if d := s.Admit(sets, 2, 1, tmpl); d.Admitted || d.Reason == "" {
		t.Fatal("out-of-range spindle index accepted")
	}
}

// TestStripedKMonotone pins the property the shared-k design relies
// on: a set feasible at k stays feasible at every larger k, so raising
// the global k for one spindle cannot break another.
func TestStripedKMonotone(t *testing.T) {
	a := AdmissionFor(testDevice())
	tmpl := videoRequest()
	nmax := a.NMax(tmpl)
	set := repeatReq(tmpl, nmax)
	k, ok := a.KTransient(set)
	if !ok {
		t.Fatal("n_max set infeasible")
	}
	for dk := 0; dk <= 16; dk++ {
		if a.SlackSeconds(set, k+dk) < 0 {
			t.Fatalf("slack negative at k=%d", k+dk)
		}
	}
}
