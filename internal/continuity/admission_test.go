package continuity

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// videoRequest is the standard admission-test request: NTSC video,
// q = 3, 11 ms scattering.
func videoRequest() Request {
	m := NTSCVideo()
	return Request{Name: "v", Granularity: 3, UnitBits: m.UnitBits, Rate: m.Rate, Scattering: 0.011}
}

func repeatReq(r Request, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = r
	}
	return out
}

func TestRequestQuantities(t *testing.T) {
	r := videoRequest()
	if r.BlockBits() != 3*144000 {
		t.Fatalf("block bits %g", r.BlockBits())
	}
	if r.BlockDuration() != 0.1 {
		t.Fatalf("block duration %g", r.BlockDuration())
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Granularity: 0, UnitBits: 8, Rate: 30},
		{Granularity: 1, UnitBits: 0, Rate: 30},
		{Granularity: 1, UnitBits: 8, Rate: 0},
		{Granularity: 1, UnitBits: 8, Rate: 30, Scattering: -1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestAlphaBetaGamma(t *testing.T) {
	a := AdmissionFor(testDevice())
	reqs := repeatReq(videoRequest(), 3)
	xfer := 3 * 144000 / 55e6
	if got, want := a.Alpha(reqs), 0.0383+xfer; !close(got, want) {
		t.Fatalf("α = %g, want %g", got, want)
	}
	if got, want := a.Beta(reqs), 0.011+xfer; !close(got, want) {
		t.Fatalf("β = %g, want %g", got, want)
	}
	if got := a.Gamma(reqs); got != 0.1 {
		t.Fatalf("γ = %g", got)
	}
	// α ≥ β always, since l_max_seek ≥ l_ds.
	if a.Alpha(reqs) < a.Beta(reqs) {
		t.Fatal("α < β")
	}
	// Gamma of mixed rates is the fastest (minimum duration).
	mixed := append(repeatReq(videoRequest(), 1), Request{Granularity: 1, UnitBits: 8, Rate: 100, Scattering: 0.01})
	if got := a.Gamma(mixed); got != 0.01 {
		t.Fatalf("mixed γ = %g", got)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}

func TestKSteadySatisfiesEq15Minimally(t *testing.T) {
	a := AdmissionFor(testDevice())
	for n := 1; n <= 5; n++ {
		reqs := repeatReq(videoRequest(), n)
		k, ok := a.KSteady(reqs)
		if !ok {
			t.Fatalf("n=%d unserviceable", n)
		}
		if !a.FeasibleK(reqs, k) {
			t.Fatalf("n=%d: KSteady=%d violates Eq. 15", n, k)
		}
		if k > 1 && a.FeasibleK(reqs, k-1) {
			t.Fatalf("n=%d: KSteady=%d not minimal", n, k)
		}
	}
}

func TestKTransientAtLeastKSteady(t *testing.T) {
	a := AdmissionFor(testDevice())
	for n := 1; n <= 5; n++ {
		reqs := repeatReq(videoRequest(), n)
		ks, _ := a.KSteady(reqs)
		kt, ok := a.KTransient(reqs)
		if !ok {
			t.Fatalf("n=%d unserviceable", n)
		}
		if kt < ks {
			t.Fatalf("n=%d: transient k %d below steady k %d", n, kt, ks)
		}
		// Eq. 18 holds at kt: n·α + n·kt·β ≤ kt·γ.
		lhs := float64(n)*a.Alpha(reqs) + float64(n)*float64(kt)*a.Beta(reqs)
		if lhs > float64(kt)*a.Gamma(reqs)+1e-12 {
			t.Fatalf("n=%d: Eq. 18 violated at kt=%d", n, kt)
		}
	}
}

func TestKMonotoneInN(t *testing.T) {
	a := AdmissionFor(testDevice())
	prev := 0
	for n := 1; ; n++ {
		reqs := repeatReq(videoRequest(), n)
		k, ok := a.KSteady(reqs)
		if !ok {
			if n < 2 {
				t.Fatal("device cannot serve even one stream")
			}
			break
		}
		if k < prev {
			t.Fatalf("k decreased from %d to %d at n=%d (Figure 4 is non-decreasing)", prev, k, n)
		}
		prev = k
		if n > 100 {
			t.Fatal("runaway n")
		}
	}
}

func TestNMaxBoundary(t *testing.T) {
	a := AdmissionFor(testDevice())
	tmpl := videoRequest()
	nmax := a.NMax(tmpl)
	if nmax < 1 {
		t.Fatalf("nmax = %d", nmax)
	}
	if _, ok := a.KSteady(repeatReq(tmpl, nmax)); !ok {
		t.Fatalf("n = n_max = %d should be serviceable", nmax)
	}
	if _, ok := a.KSteady(repeatReq(tmpl, nmax+1)); ok {
		t.Fatalf("n = n_max+1 = %d should be unserviceable", nmax+1)
	}
}

func TestNMaxZeroBeta(t *testing.T) {
	a := Admission{MaxAccess: 0, TransferRate: 1e12}
	r := Request{Granularity: 1, UnitBits: 1e-9, Rate: 1, Scattering: 0}
	if got := a.NMax(r); got < 1<<30 {
		t.Fatalf("near-zero β should admit unbounded requests, got %d", got)
	}
}

func TestAdmitDecisions(t *testing.T) {
	a := AdmissionFor(testDevice())
	tmpl := videoRequest()
	// First admission from empty at k=1.
	dec := a.Admit(nil, 1, tmpl)
	if !dec.Admitted {
		t.Fatalf("first request rejected: %s", dec.Reason)
	}
	if dec.K < 1 {
		t.Fatalf("k = %d", dec.K)
	}
	// Admission beyond n_max is rejected with a reason.
	nmax := a.NMax(tmpl)
	dec = a.Admit(repeatReq(tmpl, nmax), 10, tmpl)
	if dec.Admitted {
		t.Fatal("admission beyond n_max accepted")
	}
	if dec.Reason == "" {
		t.Fatal("rejection carries no reason")
	}
	// Invalid candidate is rejected.
	dec = a.Admit(nil, 1, Request{})
	if dec.Admitted {
		t.Fatal("invalid request admitted")
	}
}

func TestAdmitTransitionSteps(t *testing.T) {
	a := AdmissionFor(testDevice())
	tmpl := videoRequest()
	current := repeatReq(tmpl, 3)
	kOld, _ := a.KTransient(current)
	dec := a.Admit(current, kOld, tmpl)
	if !dec.Admitted {
		t.Fatalf("rejected: %s", dec.Reason)
	}
	// One more stream needs a larger k: K is the expanded set's Eq. 18
	// solution, above the k the three run at.
	want, _ := a.KTransient(append(current, tmpl))
	if dec.K != want || dec.K <= kOld {
		t.Fatalf("K = %d for %d→%d streams at kOld %d, want %d", dec.K, len(current), len(current)+1, kOld, want)
	}
}

func TestStartupDelayPositive(t *testing.T) {
	a := AdmissionFor(testDevice())
	reqs := repeatReq(videoRequest(), 3)
	k, _ := a.KTransient(reqs)
	d := a.StartupDelay(reqs, []int{k - 1, k}, k)
	if d <= 0 {
		t.Fatalf("startup delay %g", d)
	}
	// More steps means longer startup.
	d2 := a.StartupDelay(reqs, []int{k - 2, k - 1, k}, k)
	if d2 <= d {
		t.Fatal("startup delay should grow with transition length")
	}
}

// Property: over random heterogeneous request sets, KSteady (when it
// exists) always satisfies Eq. 15 and its predecessor does not; and
// RoundTime is linear in k.
func TestAdmissionQuick(t *testing.T) {
	a := AdmissionFor(testDevice())
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{
				Name:        "r",
				Granularity: 1 + rng.Intn(6),
				UnitBits:    float64(1000 * (1 + rng.Intn(200))),
				Rate:        float64(5 * (1 + rng.Intn(10))),
				Scattering:  0.002 + rng.Float64()*0.02,
			}
		}
		k, ok := a.KSteady(reqs)
		if !ok {
			return true
		}
		if !a.FeasibleK(reqs, k) {
			return false
		}
		if k > 1 && a.FeasibleK(reqs, k-1) {
			return false
		}
		// Linearity of RoundTime in k.
		r1 := a.RoundTime(reqs, 2) - a.RoundTime(reqs, 1)
		r2 := a.RoundTime(reqs, 3) - a.RoundTime(reqs, 2)
		return close(r1, r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRequestSet(t *testing.T) {
	a := AdmissionFor(testDevice())
	if k, ok := a.KSteady(nil); !ok || k != 0 {
		t.Fatalf("empty set: k=%d ok=%v", k, ok)
	}
	if a.RoundTime(nil, 5) != 0 {
		t.Fatal("empty round should cost nothing")
	}
}

// SlackSeconds takes α, β and γ from one pass over the set; its digits
// must be those of Eq. 18's slack written with Alpha, Beta and Gamma.
func TestSlackSecondsIsEq18Slack(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a := Admission{MaxAccess: 0.035, TransferRate: 27.5e6}
	positive := 0
	for trial := 0; trial < 2000; trial++ {
		reqs := make([]Request, 1+rng.Intn(12))
		for i := range reqs {
			reqs[i] = Request{
				Granularity: 1 + rng.Intn(6), UnitBits: float64(8 * (1000 + rng.Intn(30000))),
				Rate: float64(1+rng.Intn(60)) / float64(1+rng.Intn(4)), Scattering: rng.Float64() * 0.03,
			}
		}
		k := 1 + rng.Intn(60)
		n := float64(len(reqs))
		want := float64(k)*a.Gamma(reqs) - (n*a.Alpha(reqs) + n*float64(k)*a.Beta(reqs))
		if want < 0 {
			want = 0
		}
		if got := a.SlackSeconds(reqs, k); got != want {
			t.Fatalf("trial %d: SlackSeconds = %v, Eq. 18 says %v", trial, got, want)
		}
		if want > 0 {
			positive++
		}
	}
	if positive < 300 {
		t.Fatalf("only %d of 2000 sets left slack: the comparison is mostly of zeros", positive)
	}
}
