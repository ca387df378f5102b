package continuity

import (
	"math"
	"math/rand"
	"testing"
)

// reference is Admit written again, straight from the paper's
// equations and sharing no helper with admission.go: Eqs. 12–14 summed
// over the set with the candidate appended, Eq. 17's bound, and Eq. 18's
// k found by scanning upward from 1; then the class ladder of qos.go and
// the cache-served short cut.
type reference struct {
	maxAccess, rdt float64 // l_max_seek, r_dt
	ties           int     // k's at which Eq. 18 held with equality
}

func refValid(r Request) bool {
	return r.Granularity >= 1 && r.UnitBits > 0 && r.Rate > 0 && r.Scattering >= 0
}

// nmax is Eq. 17 for a homogeneous population of r: ⌈γ/β⌉ − 1.
func (ref *reference) nmax(r Request) int {
	beta := r.Scattering + float64(r.Granularity)*r.UnitBits/ref.rdt
	return int(math.Ceil(float64(r.Granularity)/r.Rate/beta)) - 1
}

// k is the least k ≥ 1 with n·α + n·k·β ≤ k·γ (Eq. 18), or false when
// γ ≤ n·β and no k exists (Eq. 17).
func (ref *reference) k(set []Request) (int, bool) {
	n := float64(len(set))
	var qs, lds float64
	gamma := math.Inf(1)
	for _, r := range set {
		qs += float64(r.Granularity) * r.UnitBits
		lds += r.Scattering
		gamma = math.Min(gamma, float64(r.Granularity)/r.Rate)
	}
	alpha := ref.maxAccess + qs/n/ref.rdt // Eq. 12
	beta := lds/n + qs/n/ref.rdt          // Eq. 13
	if gamma <= n*beta {
		return 0, false
	}
	for k := 1; ; k++ {
		lhs, rhs := n*alpha+n*float64(k)*beta, float64(k)*gamma
		if lhs == rhs {
			ref.ties++
		}
		if lhs <= rhs {
			return k, true
		}
	}
}

// fits admits c on every set, at the largest k any of them needs.
func (ref *reference) fits(sets [][]Request, c Request) (int, bool) {
	worst := 0
	for _, set := range sets {
		k, ok := ref.k(append(set[:len(set):len(set)], c))
		if !ok {
			return 0, false
		}
		worst = max(worst, k)
	}
	return worst, len(sets) > 0
}

func (ref *reference) admit(sets [][]Request, k int, cand Request, class Class, maxStride int, cacheServed bool) Decision {
	switch {
	case !refValid(cand):
		return Decision{}
	case cacheServed:
		return Decision{Admitted: true, K: k, CacheServed: true}
	}
	if K, ok := ref.fits(sets, cand); ok {
		if maxStride < 2 {
			return Decision{Admitted: true, K: K}
		}
		return Decision{Admitted: true, K: K, Stride: 1}
	}
	if maxStride < 2 || (class != BestEffort && class != Standard) {
		return Decision{}
	}
	for s := 2; s <= maxStride; s *= 2 {
		shed := cand
		shed.UnitBits /= float64(s)
		shed.Scattering /= float64(s)
		if K, ok := ref.fits(sets, shed); ok {
			return Decision{Admitted: true, K: K, Stride: s}
		}
	}
	return Decision{}
}

// refRequest draws a request. On the dyadic device every term is a
// small binary fraction, so α, β and γ of a homogeneous set are exact
// and Eq. 18 meets its bound with equality at some k: the case a
// strict < in place of ≤ gets wrong.
func refRequest(rng *rand.Rand, dyadic bool) Request {
	q := 1 + rng.Intn(4)
	if dyadic {
		gamma := float64(int(1) << rng.Intn(3)) // 1, 2 or 4 s
		return Request{Name: "d", Granularity: q, UnitBits: float64((1 + rng.Intn(4)) << 14),
			Rate: float64(q) / gamma, Scattering: float64(rng.Intn(5)) / 16}
	}
	gamma := 0.03 + rng.Float64()*0.47 // a block's display time, s
	return Request{Name: "r", Granularity: q, UnitBits: float64(8 * (1000 + rng.Intn(30000))),
		Rate: float64(q) / gamma, Scattering: 0.002 + rng.Float64()*0.028}
}

// TestAdmitMatchesReference asks Admit and the reference the same
// question over a few thousand seeded populations: p ∈ {1, 2, 4} sets,
// some heterogeneous, some at n_max and n_max + 1 with the candidate,
// every class, maxStride ∈ {0, 2, 4, 8}, cache-served or not.
func TestAdmitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	devices := []Admission{
		AdmissionFor(testDevice()),
		{MaxAccess: 0.035, TransferRate: 27.5e6},
		{MaxAccess: 11.0 / 16, TransferRate: 1 << 20}, // dyadic
	}
	var admitted, rejected, degraded, boundary int
	var ties int
	for trial := 0; trial < 3000; trial++ {
		dev := trial % len(devices)
		a := devices[dev]
		ref := &reference{maxAccess: a.MaxAccess, rdt: a.TransferRate}
		dyadic := dev == 2
		cand := refRequest(rng, dyadic)
		nmax := min(ref.nmax(cand), 48)
		sets := make([][]Request, []int{1, 2, 4}[rng.Intn(3)])
		for i := range sets {
			switch rng.Intn(3) {
			case 0: // homogeneous: with the candidate, n_max or n_max + 1
				n := max(nmax-1+rng.Intn(2), 0)
				sets[i] = repeatReq(cand, n)
				boundary++
			default: // a mix around the candidate's capacity
				for n := rng.Intn(nmax + 2); n > 0; n-- {
					r := cand
					if rng.Intn(2) == 0 {
						r = refRequest(rng, dyadic)
					}
					sets[i] = append(sets[i], r)
				}
			}
		}
		if rng.Intn(40) == 0 {
			cand.Rate = 0 // invalid
		}
		k := 1 + rng.Intn(50)
		for _, class := range []Class{BestEffort, Standard, Premium} {
			for _, maxStride := range []int{0, 2, 4, 8} {
				for _, cached := range []bool{false, true} {
					got := Admit(a, sets, k, cand, class, maxStride, cached)
					want := ref.admit(sets, k, cand, class, maxStride, cached)
					got.Reason = ""
					if got != want {
						t.Fatalf("trial %d (device %d, %d sets, class %v, maxStride %d, cacheServed %v): Admit = %+v, reference = %+v",
							trial, dev, len(sets), class, maxStride, cached, got, want)
					}
					switch {
					case cached:
					case !got.Admitted:
						rejected++
					case got.Stride > 1:
						degraded++
					default:
						admitted++
					}
				}
			}
		}
		ties += ref.ties
	}
	t.Logf("disk-bound decisions: %d admitted at full rate, %d degraded, %d rejected; %d boundary sets; %d ties of Eq. 18", admitted, degraded, rejected, boundary, ties)
	// Each kind of answer must be common, or the comparison is mostly
	// of one answer.
	for name, n := range map[string]int{"admitted": admitted, "degraded": degraded, "rejected": rejected, "ties": ties} {
		if n < 100 {
			t.Errorf("only %d %s: the populations do not exercise Admit", n, name)
		}
	}
}
