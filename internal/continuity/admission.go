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

// avgBlockXfer is the mean block transfer time avg(q_i·s_i)/r_dt over
// the requests.
func (a Admission) avgBlockXfer(reqs []Request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	var sum float64
	for _, r := range reqs {
		sum += r.BlockBits()
	}
	return sum / float64(len(reqs)) / a.TransferRate
}

// Alpha is Eq. 12: α = l_max_seek + avg(q·s)/r_dt, the worst-case time
// to switch to a request and transfer its first block of the round.
func (a Admission) Alpha(reqs []Request) float64 {
	return a.MaxAccess + a.avgBlockXfer(reqs)
}

// Beta is Eq. 13: β = avg(l_ds) + avg(q·s)/r_dt, the steady per-block
// service time within a request's run of k blocks.
func (a Admission) Beta(reqs []Request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	var lds float64
	for _, r := range reqs {
		lds += r.Scattering
	}
	return lds/float64(len(reqs)) + a.avgBlockXfer(reqs)
}

// Gamma is Eq. 14: γ = min_i(q_i/R_i), the playback duration of the
// request with the fastest display rate.
func (a Admission) Gamma(reqs []Request) float64 {
	if len(reqs) == 0 {
		return math.Inf(1)
	}
	g := math.Inf(1)
	for _, r := range reqs {
		if d := r.BlockDuration(); d < g {
			g = d
		}
	}
	return g
}

// RoundTime is the left-hand side of Eq. 15: the worst-case time to
// service one round of n requests at k blocks each,
// n·α + n·(k−1)·β.
func (a Admission) RoundTime(reqs []Request, k int) float64 {
	n := float64(len(reqs))
	return n*a.Alpha(reqs) + n*float64(k-1)*a.Beta(reqs)
}

// FeasibleK is Eq. 15: servicing the round at k blocks per request
// must not exceed the playback duration of k blocks of the fastest
// request, n·α + n·(k−1)·β ≤ k·γ.
func (a Admission) FeasibleK(reqs []Request, k int) bool {
	if k < 1 {
		return false
	}
	return a.RoundTime(reqs, k) <= float64(k)*a.Gamma(reqs)
}

// KSteady is Eq. 16: the minimum k satisfying steady-state continuity,
// k ≥ n(α−β)/(γ−n·β). The second result is false when γ ≤ n·β, i.e.
// the request set is not serviceable at any k (Eq. 17's bound is
// exceeded). The paper notes the minimum k is desirable because k also
// sets the startup delay of new requests.
func (a Admission) KSteady(reqs []Request) (int, bool) {
	n := float64(len(reqs))
	if n == 0 {
		return 0, true
	}
	alpha, beta, gamma := a.Alpha(reqs), a.Beta(reqs), a.Gamma(reqs)
	den := gamma - n*beta
	if den <= 0 {
		return 0, false
	}
	k := int(math.Ceil(n * (alpha - beta) / den))
	if k < 1 {
		k = 1
	}
	for !a.FeasibleK(reqs, k) { // absorb rounding at the boundary
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
	n := float64(len(reqs))
	if n == 0 {
		return 0, true
	}
	alpha, beta, gamma := a.Alpha(reqs), a.Beta(reqs), a.Gamma(reqs)
	den := gamma - n*beta
	if den <= 0 {
		return 0, false
	}
	k := int(math.Ceil(n * alpha / den))
	if k < 1 {
		k = 1
	}
	for !a.feasibleTransient(reqs, k) {
		k++
	}
	return k, true
}

// SlackSeconds is the virtual time the transient-safe bound (Eq. 18)
// leaves unused in one round of n requests at k blocks each:
// k·γ − (n·α + n·k·β), clamped at zero. The admission test charges
// every access its worst case, so an admitted population always leaves
// this much measured slack per round; the storage manager's
// fault-tolerant service path spends it on in-round retries without
// endangering any admitted stream's continuity.
//
// The storage manager asks for it for every spindle every round, so α,
// β and γ come out of one pass over the set: the same sums in the same
// order as Alpha, Beta and Gamma, hence the same digits.
func (a Admission) SlackSeconds(reqs []Request, k int) float64 {
	if len(reqs) == 0 || k < 1 {
		return 0
	}
	var bits, lds float64
	gamma := math.Inf(1)
	for _, r := range reqs {
		bits += r.BlockBits()
		lds += r.Scattering
		if d := r.BlockDuration(); d < gamma {
			gamma = d
		}
	}
	n := float64(len(reqs))
	xfer := bits / n / a.TransferRate
	alpha, beta := a.MaxAccess+xfer, lds/n+xfer
	s := float64(k)*gamma - (n*alpha + n*float64(k)*beta)
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return 0
	}
	return s
}

// feasibleTransient checks n·α + n·k·β ≤ k·γ.
func (a Admission) feasibleTransient(reqs []Request, k int) bool {
	if k < 1 {
		return false
	}
	n := float64(len(reqs))
	return n*a.Alpha(reqs)+n*float64(k)*a.Beta(reqs) <= float64(k)*a.Gamma(reqs)
}

// NMax is Eq. 17: the maximum number of simultaneous requests the file
// system can service, n_max = ⌈γ/β⌉ − 1, evaluated for a homogeneous
// population described by the template request.
func (a Admission) NMax(template Request) int {
	reqs := []Request{template}
	beta := a.Beta(reqs)
	gamma := a.Gamma(reqs)
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
	// Stride is the sub-sampling stride the request was admitted at
	// under QoS load shedding (ClassAware.Admit): 1 is full rate, a
	// larger value means only every Stride-th block is fetched and
	// the stream's disk charge is the Degraded() view. Zero when the
	// deciding controller was not class-aware, or on rejection.
	Stride int
}

// Admit runs the paper's admission control algorithm: given the
// currently serviced requests and a candidate, it determines whether
// the expanded set is serviceable and, if so, the k it needs. The
// current blocks-per-round kOld does not enter the decision: how k gets
// from kOld to K is the round loop's business.
func (a Admission) Admit(current []Request, kOld int, candidate Request) Decision {
	if err := candidate.Validate(); err != nil {
		return Decision{Reason: err.Error()}
	}
	next := make([]Request, 0, len(current)+1)
	next = append(next, current...)
	next = append(next, candidate)
	kNew, ok := a.KTransient(next)
	if !ok {
		return Decision{Reason: fmt.Sprintf("γ ≤ n·β for n=%d: device saturated (n_max exceeded)", len(next))}
	}
	return Decision{Admitted: true, K: kNew}
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
