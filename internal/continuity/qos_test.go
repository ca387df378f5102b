package continuity

import "testing"

func TestClassStringParseRoundTrip(t *testing.T) {
	for _, c := range []Class{BestEffort, Standard, Premium} {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("ParseClass(%q) = %v", c.String(), got)
		}
	}
	for _, alias := range []struct {
		in   string
		want Class
	}{{"be", BestEffort}, {"besteffort", BestEffort}, {"std", Standard}, {"prem", Premium}} {
		got, err := ParseClass(alias.in)
		if err != nil || got != alias.want {
			t.Fatalf("ParseClass(%q) = %v, %v", alias.in, got, err)
		}
	}
	if _, err := ParseClass("platinum"); err == nil {
		t.Fatal("ParseClass accepted an unknown class")
	}
	if s := Class(9).String(); s != "class(9)" {
		t.Fatalf("out-of-range String() = %q", s)
	}
}

func TestClassOrdering(t *testing.T) {
	if !(BestEffort < Standard && Standard < Premium) {
		t.Fatal("class lattice order broken: want best-effort < standard < premium")
	}
}

func TestDegradedScalesDiskChargeOnly(t *testing.T) {
	r := videoRequest()
	d := Degraded(r, 4)
	if d.UnitBits != r.UnitBits/4 {
		t.Fatalf("unit bits %g, want %g", d.UnitBits, r.UnitBits/4)
	}
	if d.Scattering != r.Scattering/4 {
		t.Fatalf("scattering %g, want %g", d.Scattering, r.Scattering/4)
	}
	// The display-rate term γ must not move: deadlines are unchanged.
	if d.BlockDuration() != r.BlockDuration() {
		t.Fatalf("block duration moved: %g → %g", r.BlockDuration(), d.BlockDuration())
	}
	if got := Degraded(r, 1); got != r {
		t.Fatal("stride 1 must be the identity")
	}
	if got := Degraded(r, 0); got != r {
		t.Fatal("stride 0 must be the identity")
	}
}

// Degrading a population must strictly widen Eq. 18's slack and raise
// the admissible population: that is the whole point of load shedding.
func TestDegradedWidensSlack(t *testing.T) {
	a := AdmissionFor(testDevice())
	nmax := a.NMax(videoRequest())
	full := repeatReq(videoRequest(), nmax)
	k, ok := a.KTransient(full)
	if !ok {
		t.Fatal("full population infeasible")
	}
	shed := make([]Request, nmax)
	for i := range shed {
		shed[i] = Degraded(videoRequest(), 2)
	}
	if a.SlackSeconds(shed, k) <= a.SlackSeconds(full, k) {
		t.Fatal("degrading the population did not widen the slack")
	}
	// The saturated full-rate set rejects one more stream, but the
	// same set with every stream shed at stride 2 accepts it.
	if d := Admit(a, [][]Request{full}, k, videoRequest(), Premium, 0, false); d.Admitted {
		t.Fatal("n_max+1 full-rate stream admitted")
	}
	if d := Admit(a, [][]Request{shed}, k, Degraded(videoRequest(), 2), Premium, 0, false); !d.Admitted {
		t.Fatalf("degraded overflow stream rejected: %s", d.Reason)
	}
}

func TestFeasibleTransientMatchesKTransient(t *testing.T) {
	a := AdmissionFor(testDevice())
	reqs := repeatReq(videoRequest(), 4)
	k, ok := a.KTransient(reqs)
	if !ok {
		t.Fatal("infeasible")
	}
	if !a.FeasibleTransient(reqs, k) {
		t.Fatalf("KTransient's own k=%d not feasible", k)
	}
	if k > 1 && a.FeasibleTransient(reqs, k-1) {
		t.Fatalf("k=%d feasible below KTransient's minimum %d", k-1, k)
	}
	if a.FeasibleTransient(reqs, 0) {
		t.Fatal("k=0 reported feasible")
	}
}
