package continuity

import (
	"fmt"
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

// feasibleK is Eq. 15: a round of k blocks per request takes no longer
// than k blocks of the fastest request play, n·α + n·(k−1)·β ≤ k·γ.
func feasibleK(a Admission, reqs []Request, k int) bool {
	return k >= 1 && a.RoundTime(reqs, k) <= float64(k)*a.Gamma(reqs)
}

func TestKSteadySatisfiesEq15Minimally(t *testing.T) {
	a := AdmissionFor(testDevice())
	for n := 1; n <= 5; n++ {
		reqs := repeatReq(videoRequest(), n)
		k, ok := a.KSteady(reqs)
		if !ok {
			t.Fatalf("n=%d unserviceable", n)
		}
		if !feasibleK(a, reqs, k) {
			t.Fatalf("n=%d: KSteady=%d violates Eq. 15", n, k)
		}
		if k > 1 && feasibleK(a, reqs, k-1) {
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

// admitFixture is the population the Admit tests share: the test
// device, the standard video request and n_max of it resident.
type admitFixture struct {
	a     Admission
	tmpl  Request
	nmax  int // 5 on the test device
	full  []Request
	kFull int
}

func newAdmitFixture() admitFixture {
	a := AdmissionFor(testDevice())
	tmpl := videoRequest()
	nmax := a.NMax(tmpl)
	full := repeatReq(tmpl, nmax)
	kFull, _ := a.KTransient(full)
	return admitFixture{a, tmpl, nmax, full, kFull}
}

// kWith is the Eq. 18 solution for set plus the candidate c.
func (f admitFixture) kWith(t *testing.T, set []Request, c Request) int {
	t.Helper()
	k, ok := f.a.KTransient(append(append([]Request(nil), set...), c))
	if !ok {
		t.Fatalf("set of %d plus the candidate is infeasible", len(set))
	}
	return k
}

type admitWant struct {
	admitted, cacheServed bool
	k, stride             int
}

// admitRow is one call of Admit and the decision it must return.
type admitRow struct {
	name      string
	sets      [][]Request
	k         int
	cand      Request
	class     Class
	maxStride int
	cached    bool
	want      admitWant
}

// run holds Admit to every row; a rejection must carry a reason.
func (f admitFixture) run(t *testing.T, rows []admitRow) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			d := Admit(f.a, r.sets, r.k, r.cand, r.class, r.maxStride, r.cached)
			got := admitWant{d.Admitted, d.CacheServed, d.K, d.Stride}
			if got != r.want {
				t.Fatalf("got %+v (%q), want %+v", got, d.Reason, r.want)
			}
			if !d.Admitted && d.Reason == "" {
				t.Fatal("rejection carries no reason")
			}
		})
	}
}

// The base controller and the cache-served short cut.
func TestAdmitDecisions(t *testing.T) {
	f := newAdmitFixture()
	f.run(t, []admitRow{
		{"first request from empty", [][]Request{nil}, 1, f.tmpl, Premium, 0, false, admitWant{admitted: true, k: 1}},
		{"beyond n_max rejected", [][]Request{f.full}, 10, f.tmpl, Premium, 0, false, admitWant{}},
		{"invalid candidate rejected", [][]Request{nil}, 1, Request{}, Premium, 0, false, admitWant{}},
		{"no set rejects", nil, 1, f.tmpl, Premium, 0, false, admitWant{}},
		// A cache-served follower charges no disk time: admitted at the
		// unchanged k even past n_max, but still validated.
		{"cache-served joins at k", [][]Request{f.full}, 7, f.tmpl, Premium, 0, true, admitWant{admitted: true, cacheServed: true, k: 7}},
		{"cache-served reads no set", nil, 7, f.tmpl, BestEffort, 8, true, admitWant{admitted: true, cacheServed: true, k: 7}},
		{"invalid cache-served candidate rejected", [][]Request{nil}, 7, Request{}, Premium, 0, true, admitWant{}},
	})
}

func TestAdmitTransitionSteps(t *testing.T) {
	f := newAdmitFixture()
	three := repeatReq(f.tmpl, 3)
	kThree, _ := f.a.KTransient(three)
	// One more stream needs a larger k: K is the expanded set's Eq. 18
	// solution, above the k the three run at.
	want := f.kWith(t, three, f.tmpl)
	if want <= kThree {
		t.Fatalf("K = %d for 3→4 streams is not above kOld %d", want, kThree)
	}
	f.run(t, []admitRow{
		{"transition raises K", [][]Request{three}, kThree, f.tmpl, Premium, 0, false, admitWant{admitted: true, k: want}},
	})
}

// On an array the candidate must fit on every set it touches, and K is
// the largest any of them needs.
func TestStripedAdmitPerSpindle(t *testing.T) {
	f := newAdmitFixture()
	fuller, emptier := repeatReq(f.tmpl, f.nmax-1), repeatReq(f.tmpl, f.nmax-2)
	f.run(t, []admitRow{
		{"saturated spindle refuses", [][]Request{f.full, nil}, 1, f.tmpl, Premium, 0, false, admitWant{}},
		{"empty spindle admits", [][]Request{nil}, 1, f.tmpl, Premium, 0, false, admitWant{admitted: true, k: 1}},
		{"K is the fuller spindle's", [][]Request{fuller, emptier}, 1, f.tmpl, Premium, 0, false, admitWant{admitted: true, k: f.kWith(t, fuller, f.tmpl)}},
		{"K is the fuller spindle's, listed last", [][]Request{emptier, fuller}, 1, f.tmpl, Premium, 0, false, admitWant{admitted: true, k: f.kWith(t, fuller, f.tmpl)}},
	})
}

// The aggregate bound is p times Eq. 17's n_max: n_max − 1 resident on
// each of p spindles admits one more everywhere; n_max on each admits
// none.
func TestStripedNMaxAggregate(t *testing.T) {
	f := newAdmitFixture()
	var rows []admitRow
	for _, p := range []int{1, 2, 4} {
		below, at := make([][]Request, p), make([][]Request, p)
		for sp := range below {
			below[sp], at[sp] = repeatReq(f.tmpl, f.nmax-1), f.full
		}
		rows = append(rows, admitRow{fmt.Sprintf("p=%d below n_max everywhere", p), below, 1, f.tmpl, Premium, 0, false, admitWant{admitted: true, k: f.kFull}},
			admitRow{fmt.Sprintf("p=%d at n_max everywhere", p), at, 1, f.tmpl, Premium, 0, false, admitWant{}})
	}
	f.run(t, rows)
}

// The class ladder: strides 2, 4, … for best-effort and standard; the
// first stride that fits is taken (stride 2 does not fit beside n_max
// full-rate streams, stride 4 does).
func TestClassAwareAdmit(t *testing.T) {
	f := newAdmitFixture()
	k4 := f.kWith(t, f.full, Degraded(f.tmpl, 4))
	rows := []admitRow{
		{"best-effort degrades", [][]Request{f.full}, f.kFull, f.tmpl, BestEffort, 8, false, admitWant{admitted: true, k: k4, stride: 4}},
		{"standard degrades", [][]Request{f.full}, f.kFull, f.tmpl, Standard, 8, false, admitWant{admitted: true, k: k4, stride: 4}},
		{"premium rejects rather than degrade", [][]Request{f.full}, f.kFull, f.tmpl, Premium, 8, false, admitWant{}},
	}
	// Light load: every class is admitted at full rate, Stride 1.
	for _, c := range []Class{BestEffort, Standard, Premium} {
		rows = append(rows, admitRow{"light load, " + c.String(), [][]Request{repeatReq(f.tmpl, 1)}, 2, f.tmpl, c, 8, false, admitWant{admitted: true, k: 2, stride: 1}})
	}
	f.run(t, rows)
}

// The ladder climbs no higher than maxStride: a population so
// oversubscribed that even 1/maxStride sub-sampling cannot fit is
// rejected.
func TestClassAwareMaxStrideBound(t *testing.T) {
	f := newAdmitFixture()
	f.run(t, []admitRow{
		{"ladder stops at maxStride", [][]Request{f.full}, f.kFull, f.tmpl, BestEffort, 2, false, admitWant{}},
		{"ladder reaches maxStride", [][]Request{f.full}, f.kFull, f.tmpl, BestEffort, 4, false, admitWant{admitted: true, k: f.kWith(t, f.full, Degraded(f.tmpl, 4)), stride: 4}},
		{"no ladder below maxStride 2", [][]Request{f.full}, f.kFull, f.tmpl, BestEffort, 1, false, admitWant{}},
		{"3× oversubscribed is beyond relief", [][]Request{repeatReq(f.tmpl, 3*f.nmax)}, 4, f.tmpl, BestEffort, 8, false, admitWant{}},
	})
}

// On an array the ladder degrades against the sets the candidate
// touches: a full spindle triggers shedding, an idle one does not.
func TestClassAwareStriped(t *testing.T) {
	f := newAdmitFixture()
	f.run(t, []admitRow{
		{"a full spindle degrades the candidate", [][]Request{f.full, nil}, f.kFull, f.tmpl, BestEffort, 8, false, admitWant{admitted: true, k: f.kWith(t, f.full, Degraded(f.tmpl, 4)), stride: 4}},
		{"an idle spindle takes it at full rate", [][]Request{nil}, f.kFull, f.tmpl, BestEffort, 8, false, admitWant{admitted: true, k: 1, stride: 1}},
	})
}

// TestFacadesAreAdmit pins the four types bench/mmload times to
// continuity.Admit, so its per-layer continuity numbers measure the
// decision the storage manager makes.
func TestFacadesAreAdmit(t *testing.T) {
	a := AdmissionFor(testDevice())
	tmpl := videoRequest()
	nmax := a.NMax(tmpl)
	for _, per := range [][][]Request{
		{nil},
		{repeatReq(tmpl, nmax)},
		{repeatReq(tmpl, nmax-1), repeatReq(tmpl, 2)},
		{repeatReq(tmpl, 1), repeatReq(tmpl, nmax), nil, repeatReq(tmpl, 3)},
	} {
		for _, k := range []int{1, 2} {
			if got, want := a.Admit(per[0], k, tmpl), Admit(a, per[:1], k, tmpl, Premium, 0, false); got != want {
				t.Errorf("Admission.Admit = %+v, Admit = %+v", got, want)
			}
			for _, cs := range []bool{false, true} {
				if got, want := (CacheAware{A: a}).Admit(per[0], k, tmpl, cs), Admit(a, per[:1], k, tmpl, Premium, 0, cs); got != want {
					t.Errorf("CacheAware.Admit(cacheServed=%v) = %+v, Admit = %+v", cs, got, want)
				}
			}
			if d := (Striped{A: a, P: len(per)}).Admit(per, len(per), k, tmpl); d.Admitted || d.Reason == "" {
				t.Error("Striped.Admit accepted an out-of-range spindle index")
			}
			for sp := -1; sp < len(per); sp++ {
				sets := per
				if sp >= 0 {
					sets = per[sp : sp+1]
				}
				if got, want := (Striped{A: a, P: len(per)}).Admit(per, sp, k, tmpl), Admit(a, sets, k, tmpl, Premium, 0, false); got != want {
					t.Errorf("Striped.Admit(spindle %d) = %+v, Admit = %+v", sp, got, want)
				}
				for _, ms := range []int{0, 2, 4} {
					for _, c := range []Class{BestEffort, Standard, Premium} {
						wantStride := ms
						if ms < 2 {
							wantStride = DefaultMaxStride
						}
						got := (ClassAware{A: a, P: len(per), MaxStride: ms}).Admit(per, sp, k, tmpl, c)
						if want := Admit(a, sets, k, tmpl, c, wantStride, false); got != want {
							t.Errorf("ClassAware{MaxStride: %d}.Admit(spindle %d, %v) = %+v, Admit = %+v", ms, sp, c, got, want)
						}
					}
				}
			}
		}
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
		if !feasibleK(a, reqs, k) {
			return false
		}
		if k > 1 && feasibleK(a, reqs, k-1) {
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

// SlackSeconds' digits must be those of Eq. 18's slack written with
// Alpha, Beta and Gamma.
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
