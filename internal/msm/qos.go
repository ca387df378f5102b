package msm

import (
	"mmfs/internal/continuity"
)

// This file is the storage manager's side of QoS load shedding (see
// internal/continuity/qos.go for the admission math). With QoS enabled
// every PLAY admission becomes a class-ordered capacity negotiation
// instead of a binary accept/reject:
//
//  1. The candidate is tried at full rate.
//  2. If Eq. 18 has no room, streams of strictly lower class are
//     demoted — best-effort before standard, latest-admitted first —
//     until the candidate fits. Premium is never demoted.
//  3. If shedding cannot make room and the candidate itself is
//     standard or best-effort, it is admitted sub-sampled at the
//     smallest stride that fits (§3.3.2's skip machinery at 1×
//     display time: every stride-th block fetched, disk cost
//     ~1/stride, deadlines untouched).
//  4. Only when all of that fails is the request rejected, and any
//     dry-run demotions are rolled back.
//
// Each round, classPass revisits the assignments against Eq. 18's
// measured slack k·γ − n·α − n·k·β: freed capacity promotes degraded
// streams back toward full rate strictly by class then admission
// order, and a set that has become infeasible (rising load) demotes
// best-effort first. The pass is allocation-free in steady state — the
// round loop's 0 allocs/op gate stays in force with it enabled.
//
// Cache-served followers are the other degraded admission mode
// ("cache-only followers behind a leader of the same rope"): they are
// free, so AdmitPlay tries cache adoption before any of this runs, and
// the pass never demotes them — the cache demotion path owns them.

// QoSPolicy configures load-driven graceful degradation.
type QoSPolicy struct {
	// MaxStride bounds the sub-sampling stride load shedding may
	// impose; strides are powers of two up to this value. Values < 2
	// disable QoS entirely (admission stays binary accept/reject).
	MaxStride int
}

// SetQoS installs the QoS policy. The zero policy disables QoS, which
// is the manager's default: experiments and tests that probe exact
// n_max rejection boundaries stay unaffected unless they opt in.
func (m *Manager) SetQoS(p QoSPolicy) {
	if p.MaxStride < 0 {
		p.MaxStride = 0
	}
	m.qos = p
}

func (m *Manager) qosEnabled() bool { return m.qos.MaxStride >= 2 }

// effAdm is the admission-control view of the request: a load-shed
// play is charged at its Degraded() stride, everything else at full
// rate.
func (r *request) effAdm() continuity.Request {
	if r.kind == Play && r.play.stride > 1 {
		return continuity.Degraded(r.adm, r.play.stride)
	}
	return r.adm
}

// strideOf normalizes the play's stride (zero value means full rate).
func strideOf(ps *playState) int {
	if ps.stride < 1 {
		return 1
	}
	return ps.stride
}

// ClassStats summarizes one QoS class's live population.
type ClassStats struct {
	// Active is the class's live plays (disk-bound and cache-served).
	Active int
	// Degraded is the subset currently load-shed (stride > 1).
	Degraded int
	// EffectiveRate is the mean delivered unit rate across the
	// class's live plays (Rate/stride), 0 when the class is idle.
	EffectiveRate float64
}

// QoSStats reports the per-class stream populations and mean effective
// rates, indexed by continuity.Class.
func (m *Manager) QoSStats() [continuity.NumClasses]ClassStats {
	var out [continuity.NumClasses]ClassStats
	for _, r := range m.reqs {
		if r.kind != Play || r.done {
			continue
		}
		c := &out[r.class]
		c.Active++
		s := strideOf(r.play)
		if s > 1 {
			c.Degraded++
		}
		c.EffectiveRate += r.adm.Rate / float64(s)
	}
	for i := range out {
		if out[i].Active > 0 {
			out[i].EffectiveRate /= float64(out[i].Active)
		}
	}
	return out
}

// admitClassed runs the class-ordered admission negotiation for a
// disk-bound play candidate. It returns the admission decision with
// Stride set to the granted quality (1 = full rate).
func (m *Manager) admitClassed(sp uint64, cand continuity.Request, class continuity.Class) (continuity.Decision, error) {
	// Dry run: probe pure decisions (no transitions, no obs traffic)
	// while tentatively demoting victims, so a rejection can roll the
	// strides back untouched.
	type trial struct {
		r      *request
		stride int // stride before the dry run
	}
	var sheds []trial
	var dec continuity.Decision
	for {
		// While a lower class is left to shed, the candidate is probed
		// as premium: at full rate only. Once none is, Admit's stride
		// ladder degrades the candidate itself. A probe is one Eq. 18
		// pass over each touched set, and none is repeated.
		v := m.shedVictim(class)
		probe := class
		if v != nil {
			probe = continuity.Premium
		}
		dec = continuity.Admit(m.adm, m.touchedSets(sp), m.kSched(), cand, probe, m.qos.MaxStride, false)
		if dec.Admitted || v == nil {
			break
		}
		sheds = append(sheds, trial{v, strideOf(v.play)})
		m.setStride(v, m.nextStride(strideOf(v.play)))
	}
	if !dec.Admitted {
		// Roll the dry-run demotions back, newest first so repeated
		// demotions of one victim restore its original stride.
		for i := len(sheds) - 1; i >= 0; i-- {
			m.setStride(sheds[i].r, sheds[i].stride)
		}
		return m.commit(dec)
	}

	// Commit: bookkeep each distinct victim's demotion (its stride is
	// already at the negotiated value), then commit the decision the
	// negotiation ended on so the k schedule and the obs counters engage.
	// Counted while it waits, the candidate keeps the victims shed.
	for i, t := range sheds {
		first := true
		for j := 0; j < i; j++ {
			if sheds[j].r == t.r {
				first = false
				break
			}
		}
		if first {
			m.noteDemotion(t.r)
		}
	}
	return m.commit(dec)
}

// nextStride is one demotion step: the next power-of-two stride,
// capped at the policy bound.
func (m *Manager) nextStride(s int) int {
	if s < 1 {
		s = 1
	}
	s *= 2
	if s > m.qos.MaxStride {
		s = m.qos.MaxStride
	}
	return s
}

// shedVictim picks the next stream to demote to make room for a
// candidate of the given class: among live disk-bound plays of
// strictly lower class that still have stride headroom, the lowest
// class first and the latest admitted (highest id) within a class.
// Premium candidates therefore shed standard and best-effort; a
// best-effort candidate has no one to shed. Returns nil when no
// demotable stream remains.
func (m *Manager) shedVictim(class continuity.Class) *request {
	var best *request
	for _, r := range m.reqs {
		if r.kind != Play || r.done || r.pause != nil || r.cacheServed {
			continue
		}
		if r.class >= class || strideOf(r.play) >= m.qos.MaxStride {
			continue
		}
		if best == nil || r.class < best.class || (r.class == best.class && r.id > best.id) {
			best = r
		}
	}
	return best
}

// noteDemotion records a committed load-shed demotion on a stream
// whose stride was already raised: the CauseLoadShed violation marking
// the quality change, the counters, the effective-rate sample, and the
// re-anchored skip pattern. mmfs_violations_total takes the violation
// from the next publication of Stats (the admission's or the round's). A
// demoted leader stops feeding its cache followers (skipped blocks would
// starve them), so its cache stream closes; promotion back to full rate
// reopens it.
func (m *Manager) noteDemotion(r *request) {
	ps := r.play
	ps.strideBase = ps.nextFetch
	now := m.clock.Now()
	ps.violations = append(ps.violations, Violation{Block: ps.nextFetch, Deadline: now, Actual: now, Cause: CauseLoadShed})
	m.stats.Violations++
	m.stats.LoadDemotions++
	m.closeCacheStream(r)
	m.obs.classDemotions[r.class].Inc()
	m.obs.effRate.Observe(r.adm.Rate / float64(strideOf(ps)))
}

// setStride sets a play's load-shed stride, which its charge follows,
// and drops its kept wake: a load-shed turn sheds before it looks for room.
func (m *Manager) setStride(r *request, stride int) {
	r.play.stride = stride
	r.wake = 0
	m.rt.invalidate()
}

// notePromotion records a promotion to the given stride (1 = full
// rate), which the caller has already verified keeps Eq. 18 feasible.
func (m *Manager) notePromotion(r *request, stride int) {
	ps := r.play
	m.setStride(r, stride)
	ps.strideBase = ps.nextFetch
	m.stats.Promotions++
	if stride == 1 {
		m.reopenCacheStream(r)
	}
	m.obs.promotions[r.class].Inc()
	m.obs.effRate.Observe(r.adm.Rate / float64(stride))
}

// feasibleNow reports whether Eq. 18 holds for every set of the resident
// table, waiting requests included, at the k the schedule is heading for.
//
// rt:hotpath
func (m *Manager) feasibleNow() bool {
	sets, _ := m.residentSets(true)
	for _, set := range sets {
		if len(set) > 0 && !m.adm.FeasibleTransient(set, m.kSched()) {
			return false
		}
	}
	return true
}

// strideFeasible probes whether assigning the play the given stride
// keeps Eq. 18 feasible, leaving the stream's state untouched.
//
// rt:hotpath
func (m *Manager) strideFeasible(r *request, stride int) bool {
	old := r.play.stride
	m.setStride(r, stride)
	ok := m.feasibleNow()
	m.setStride(r, old)
	return ok
}

// classPass is the per-round QoS promotion/demotion pass, run at the
// top of every round (after cache demotions, before service). Steady
// state — nothing degraded, set feasible — costs one Eq. 18 evaluation
// over scratch arenas and allocates nothing.
//
// rt:hotpath
func (m *Manager) classPass() {
	if !m.qosEnabled() {
		return
	}
	// Rising load: while the effective set no longer satisfies Eq. 18
	// (a resume, a repositioned stream, a shrunk array budget), shed
	// best-effort first, then standard; premium is never touched. When
	// every demotable stream is at MaxStride the loop stops — the
	// admitted premium load was itself feasible, so this terminates
	// with at worst the pre-pass violation exposure.
	for !m.feasibleNow() {
		v := m.shedVictim(continuity.Premium)
		if v == nil {
			break
		}
		m.setStride(v, m.nextStride(strideOf(v.play)))
		m.noteDemotion(v)
	}
	m.promotePass()
}

// promotePass hands freed capacity back: degraded streams are visited
// strictly by class (premium would come first, but premium is never
// degraded) then admission order, and each is promoted to the smallest
// stride — full rate first — that keeps Eq. 18 feasible.
//
// rt:hotpath
func (m *Manager) promotePass() {
	sq := m.scratchQoS[:0]
	for _, r := range m.reqs {
		if r.kind == Play && !r.done && r.pause == nil && !r.cacheServed && r.play.stride > 1 {
			sq = append(sq, r)
		}
	}
	m.scratchQoS = sq
	if len(sq) == 0 {
		return
	}
	// Insertion sort by (class desc, id asc): rounds carry few degraded
	// streams and the scratch slice keeps this allocation-free.
	for i := 1; i < len(sq); i++ {
		r := sq[i]
		j := i - 1
		for j >= 0 && promotesBefore(r, sq[j]) {
			sq[j+1] = sq[j]
			j--
		}
		sq[j+1] = r
	}
	for _, r := range sq {
		cur := r.play.stride
		for s := 1; s < cur; s *= 2 {
			if m.strideFeasible(r, s) {
				m.notePromotion(r, s)
				break
			}
		}
	}
}

// promotesBefore orders the promotion queue: higher class first,
// earlier admission (lower id) within a class.
func promotesBefore(a, b *request) bool {
	if a.class != b.class {
		return a.class > b.class
	}
	return a.id < b.id
}

// qosRateBuckets are the effective-rate histogram's bucket uppers in
// media units per second: powers of two up to video rates, with 15/30
// for the NTSC frame-rate family and 60 for HDTV.
func qosRateBuckets() []float64 {
	return []float64{0.5, 1, 2, 4, 8, 15, 30, 60}
}
