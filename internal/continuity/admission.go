package continuity

import (
	"fmt"
	"math"
)

// This file implements §3.4: servicing multiple requests. The file
// system proceeds in rounds, transferring k consecutive blocks for
// each of the n active requests before switching to the next. The
// admission control algorithm decides whether a new request can be
// accepted without violating the continuity of any existing request,
// and the transition protocol (Eq. 18) grows k one step at a time so
// that transient rounds also stay continuous.

// Request describes one active storage or retrieval request as the
// admission controller sees it: the granularity, unit size, recording
// rate, and scattering parameter of the strand it touches.
type Request struct {
	// Name identifies the request in diagnostics.
	Name string
	// Granularity is q_i, units (frames/samples) per block.
	Granularity int
	// UnitBits is s_i, bits per unit.
	UnitBits float64
	// Rate is R_i, units per second.
	Rate float64
	// Scattering is the strand's scattering parameter l_ds,i in
	// seconds (the bounded inter-block access time within the
	// strand).
	Scattering float64
}

// BlockBits is q_i·s_i, the request's block size in bits.
func (r Request) BlockBits() float64 { return float64(r.Granularity) * r.UnitBits }

// BlockDuration is q_i/R_i, the playback duration of one of the
// request's blocks (the per-request term on the right-hand side of
// Eq. 11).
func (r Request) BlockDuration() float64 { return float64(r.Granularity) / r.Rate }

// Validate reports an error for an unusable request description.
func (r Request) Validate() error {
	switch {
	case r.Granularity < 1:
		return fmt.Errorf("continuity: request %q granularity %d < 1", r.Name, r.Granularity)
	case r.UnitBits <= 0:
		return fmt.Errorf("continuity: request %q unit size %g ≤ 0", r.Name, r.UnitBits)
	case r.Rate <= 0:
		return fmt.Errorf("continuity: request %q rate %g ≤ 0", r.Name, r.Rate)
	case r.Scattering < 0:
		return fmt.Errorf("continuity: request %q scattering %g < 0", r.Name, r.Scattering)
	}
	return nil
}

// Admission is the admission controller for one storage device. It
// carries the two device constants the round analysis needs.
type Admission struct {
	// MaxAccess is l_max_seek: the worst-case inter-strand switch
	// cost assumed when the server moves between requests (§3.4:
	// "there is no guarantee on the relative positions of two
	// strands belonging to two requests").
	MaxAccess float64
	// TransferRate is r_dt in bits/second.
	TransferRate float64
}

// AdmissionFor builds an Admission from a device description.
func AdmissionFor(d Device) Admission {
	return Admission{MaxAccess: d.MaxAccess, TransferRate: d.TransferRate}
}

// terms is Eqs. 12–14 in one pass: n, α, β and γ over reqs followed,
// when cand is not nil, by *cand as the set's last request — the order
// append(reqs, *cand) sums them in, without building that slice. Every
// quantity of the round analysis reads its α, β and γ here, so they
// agree digit for digit.
func (a Admission) terms(reqs []Request, cand *Request) (n, alpha, beta, gamma float64) {
	var bits, lds float64
	gamma = math.Inf(1)
	add := func(r *Request) {
		bits += r.BlockBits()
		lds += r.Scattering
		if d := r.BlockDuration(); d < gamma {
			gamma = d
		}
	}
	for i := range reqs {
		add(&reqs[i])
	}
	count := len(reqs)
	if cand != nil {
		add(cand)
		count++
	}
	if count == 0 {
		return 0, a.MaxAccess, 0, gamma
	}
	n = float64(count)
	xfer := bits / n / a.TransferRate // avg(q·s)/r_dt
	return n, a.MaxAccess + xfer, lds/n + xfer, gamma
}

// Alpha is Eq. 12: α = l_max_seek + avg(q·s)/r_dt, the worst-case time
// to switch to a request and transfer its first block of the round.
func (a Admission) Alpha(reqs []Request) float64 {
	_, alpha, _, _ := a.terms(reqs, nil)
	return alpha
}

// Beta is Eq. 13: β = avg(l_ds) + avg(q·s)/r_dt, the steady per-block
// service time within a request's run of k blocks.
func (a Admission) Beta(reqs []Request) float64 {
	_, _, beta, _ := a.terms(reqs, nil)
	return beta
}

// Gamma is Eq. 14: γ = min_i(q_i/R_i), the playback duration of the
// request with the fastest display rate.
func (a Admission) Gamma(reqs []Request) float64 {
	_, _, _, gamma := a.terms(reqs, nil)
	return gamma
}

// RoundTime is the left-hand side of Eq. 15: the worst-case time to
// service one round of n requests at k blocks each,
// n·α + n·(k−1)·β.
func (a Admission) RoundTime(reqs []Request, k int) float64 {
	n, alpha, beta, _ := a.terms(reqs, nil)
	return n*alpha + n*float64(k-1)*beta
}

// KSteady is Eq. 16: the minimum k satisfying steady-state continuity,
// k ≥ n(α−β)/(γ−n·β). The second result is false when γ ≤ n·β, i.e.
// the request set is not serviceable at any k (Eq. 17's bound is
// exceeded). The paper notes the minimum k is desirable because k also
// sets the startup delay of new requests.
func (a Admission) KSteady(reqs []Request) (int, bool) {
	n, alpha, beta, gamma := a.terms(reqs, nil)
	if n == 0 {
		return 0, true
	}
	den := gamma - n*beta
	if den <= 0 {
		return 0, false
	}
	k := int(math.Ceil(n * (alpha - beta) / den))
	if k < 1 {
		k = 1
	}
	for !(n*alpha+n*float64(k-1)*beta <= float64(k)*gamma) { // Eq. 15; absorb rounding at the boundary
		k++
	}
	return k, true
}

// KTransient is Eq. 18: the minimum k satisfying
// n·α + n·k·β ≤ k·γ, which charges the round for k+1 block-times so
// that stepping from k to k+1 never exceeds the playback duration of
// the k blocks buffered by the previous round. Growing k by 1 under
// this bound yields an admission algorithm that "guarantees both
// transient and steady state continuity".
func (a Admission) KTransient(reqs []Request) (int, bool) {
	return kTransient(a.terms(reqs, nil))
}

// kTransient solves Eq. 18 over one set's terms.
func kTransient(n, alpha, beta, gamma float64) (int, bool) {
	if n == 0 {
		return 0, true
	}
	den := gamma - n*beta
	if den <= 0 {
		return 0, false
	}
	k := int(math.Ceil(n * alpha / den))
	if k < 1 {
		k = 1
	}
	for k > 1 && transientOK(n, alpha, beta, gamma, k-1) { // the quotient can round up past a tie
		k--
	}
	for !transientOK(n, alpha, beta, gamma, k) {
		k++
	}
	return k, true
}

// FeasibleTransient is Eq. 18's test n·α + n·k·β ≤ k·γ: whether the
// request set is serviceable at k with transient-safe headroom. The
// per-round QoS promotion/demotion pass uses it to probe candidate
// stride assignments against the measured slack without running the
// admission algorithm.
func (a Admission) FeasibleTransient(reqs []Request, k int) bool {
	n, alpha, beta, gamma := a.terms(reqs, nil)
	return transientOK(n, alpha, beta, gamma, k)
}

// transientOK is Eq. 18 over one set's terms.
func transientOK(n, alpha, beta, gamma float64, k int) bool {
	return k >= 1 && n*alpha+n*float64(k)*beta <= float64(k)*gamma
}

// SlackSeconds is the virtual time the transient-safe bound (Eq. 18)
// leaves unused in one round of n requests at k blocks each:
// k·γ − (n·α + n·k·β), clamped at zero. The admission test charges
// every access its worst case, so an admitted population always leaves
// this much measured slack per round; the storage manager's
// fault-tolerant service path spends it on in-round retries without
// endangering any admitted stream's continuity. The storage manager
// asks for it for every spindle every round.
func (a Admission) SlackSeconds(reqs []Request, k int) float64 {
	if len(reqs) == 0 || k < 1 {
		return 0
	}
	n, alpha, beta, gamma := a.terms(reqs, nil)
	s := float64(k)*gamma - (n*alpha + n*float64(k)*beta)
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	return s
}

// NMax is Eq. 17: the maximum number of simultaneous requests the file
// system can service, n_max = ⌈γ/β⌉ − 1, evaluated for a homogeneous
// population described by the template request.
func (a Admission) NMax(template Request) int {
	_, _, beta, gamma := a.terms(nil, &template)
	if beta <= 0 {
		return math.MaxInt32
	}
	n := int(math.Ceil(gamma/beta)) - 1
	if n < 0 {
		n = 0
	}
	return n
}

// Decision records the outcome of an admission test.
type Decision struct {
	// Admitted reports whether the request set is serviceable.
	Admitted bool
	// K is the steady-state blocks-per-round after the transition
	// (Eq. 18's k for the new set), 0 if rejected. The server's round
	// loop steps k to it one unit a round (§3.4).
	K int
	// Reason explains a rejection.
	Reason string
	// CacheServed reports that the request was admitted as an
	// interval-cache follower: it charges no disk time (no α/β terms),
	// so it is excluded from the request sets of later Eq. 15/18
	// evaluations until demoted.
	CacheServed bool
	// Stride is the sub-sampling stride a class-aware Admit (maxStride
	// ≥ 2) admitted a disk-bound request at: 1 is full rate, a larger
	// value means only every Stride-th block is fetched and the
	// stream's disk charge is the Degraded() view. Zero when the call
	// was not class-aware, for a cache-served request, or on rejection.
	Stride int
}

// Admit is the paper's admission control algorithm (§3.4), the one
// place Eq. 18 is decided. sets lists, for each device the candidate
// will be served from, the disk-bound requests already admitted there
// (cache-served followers excluded); k is the blocks-per-round the
// schedule is heading for.
//
// A cacheServed candidate — an interval-cache follower served entirely
// from the blocks its leader fetches — is validated and admitted at k:
// it adds no α or β term to any set, so Eq. 18 is evaluated over the
// disk-bound population n_d only, n_d·α + n_d·k·β ≤ k·γ, and the total
// admitted population may exceed n_max while every disk-bound stream
// keeps its guarantee. The admission is conditional: if the interval
// breaks — the leader stops, pauses, or a FF/REW repositioning changes
// the follower's rate or range — the follower is demoted back through
// Admit's disk-charging path, and paused destructively if that fails.
//
// Any other candidate must pass Eq. 18 on every set with itself as the
// set's last term, and K is the largest k any set needs. On a striped
// array of degree p each spindle runs its own sub-round over the
// requests resident on it, so the aggregate bound is p times Eq. 17's
// n_max. One k governs every spindle's sub-round, which is sound
// because transient feasibility is monotone in k: for an admitted set
// γ − n·β > 0, so n·α ≤ k·(γ − n·β) at some k holds at every larger k.
// Raising k for the spindle that needs it never breaks the others, and
// the stepwise transition's intermediate k values stay feasible
// everywhere. How k gets from its current value to K is the round
// loop's business.
//
// When no set has room at full rate, class tolerates load shedding
// (Standard or BestEffort) and maxStride ≥ 2, the candidate is retried
// at the sub-sampling strides 2, 4, … up to maxStride (Degraded). A
// call with maxStride ≥ 2 is class-aware: its admissions record their
// stride, 1 at full rate; any other leaves Stride 0. Premium candidates
// are never degraded here: making room for them by demoting lower
// classes is the storage manager's job, since it owns the live stream
// table.
func Admit(a Admission, sets [][]Request, k int, cand Request, class Class, maxStride int, cacheServed bool) Decision {
	if err := cand.Validate(); err != nil {
		return Decision{Reason: err.Error()}
	}
	if cacheServed {
		return Decision{Admitted: true, K: k, CacheServed: true}
	}
	full := a.admitAt(sets, cand)
	if maxStride < 2 {
		return full
	}
	if full.Admitted {
		full.Stride = 1
		return full
	}
	for s := 2; class <= Standard && s <= maxStride; s *= 2 {
		if d := a.admitAt(sets, Degraded(cand, s)); d.Admitted {
			d.Stride = s
			return d
		}
	}
	return full
}

// admitAt is Eq. 18 on every set with cand as its last term, one pass
// over each; K is the largest k any set needs.
func (a Admission) admitAt(sets [][]Request, cand Request) Decision {
	out := Decision{Reason: "continuity: no request set to admit against"}
	for _, set := range sets {
		k, ok := kTransient(a.terms(set, &cand))
		if !ok {
			return Decision{Reason: fmt.Sprintf("γ ≤ n·β for n=%d: device saturated (n_max exceeded)", len(set)+1)}
		}
		if !out.Admitted || k > out.K {
			out = Decision{Admitted: true, K: k}
		}
	}
	return out
}

// Admit is the package's Admit over current alone, with no stride
// ladder. It is kept only for bench/mmload until ROADMAP item 10.
func (a Admission) Admit(current []Request, kOld int, candidate Request) Decision {
	return Admit(a, [][]Request{current}, kOld, candidate, Premium, 0, false)
}

// CacheAware is Admit over one disk-bound set. It is kept only for
// bench/mmload until ROADMAP item 10.
type CacheAware struct {
	// A is the device's admission controller.
	A Admission
}

// Admit is Admit over diskBound alone.
func (c CacheAware) Admit(diskBound []Request, kOld int, candidate Request, cacheServed bool) Decision {
	return Admit(c.A, [][]Request{diskBound}, kOld, candidate, Premium, 0, cacheServed)
}

// Striped is Admit over an array's per-spindle sets. It is kept only
// for bench/mmload until ROADMAP item 10.
type Striped struct {
	// A is the per-spindle admission controller.
	A Admission
	// P is the spindle count; Admit does not read it.
	P int
}

// Admit is Admit over perSpindle[spindle], or over every set when
// spindle is negative.
func (s Striped) Admit(perSpindle [][]Request, spindle, kOld int, candidate Request) Decision {
	if spindle >= len(perSpindle) {
		return Decision{Reason: "striped admission: spindle index out of range"}
	}
	if spindle >= 0 {
		perSpindle = perSpindle[spindle : spindle+1]
	}
	return Admit(s.A, perSpindle, kOld, candidate, Premium, 0, false)
}

// ClassAware is Admit with the stride ladder. It is kept only for
// bench/mmload until ROADMAP item 10.
type ClassAware struct {
	// A is the per-spindle (or single-device) admission controller.
	A Admission
	// P is the spindle count; Admit does not read it.
	P int
	// MaxStride bounds the ladder; values < 2 mean DefaultMaxStride.
	MaxStride int
}

// Admit is Admit over perSpindle[spindle], or over every set when
// spindle is negative, with the class's stride ladder.
func (c ClassAware) Admit(perSpindle [][]Request, spindle, kOld int, candidate Request, class Class) Decision {
	if spindle >= 0 {
		perSpindle = perSpindle[spindle : spindle+1]
	}
	if c.MaxStride < 2 {
		c.MaxStride = DefaultMaxStride
	}
	return Admit(c.A, perSpindle, kOld, candidate, class, c.MaxStride, false)
}

// StartupDelay estimates the worst-case delay before a newly admitted
// request's playback can begin: the transition rounds plus one full
// round of k blocks for all n requests (the paper: "larger the value
// of k, larger is the startup time for a new request").
func (a Admission) StartupDelay(reqs []Request, steps []int, k int) float64 {
	var t float64
	for _, s := range steps {
		t += a.RoundTime(reqs, s)
	}
	return t + a.RoundTime(reqs, k)
}
