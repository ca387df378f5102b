package disk

import (
	"fmt"
	"time"
)

// Mirrored redundancy mode for Array: spindles are paired into mirror
// groups (spindles 2g and 2g+1 form pair g), both twins hold identical
// data at identical local addresses, and the array survives the loss of
// either twin of every pair. Capacity halves — the logical geometry
// advertises p/2 spindles' worth of cylinders — but read bandwidth
// keeps all p actuators because steering deals alternate stripe-group
// slots to alternate twins.
//
// Each spindle carries a health state machine driven by the timed read
// path's error and latency signals (virtual-clock based; no wall time):
//
//	Healthy --4 consecutive errors / 16 consecutive outliers--> Suspect
//	Suspect --clean read--> Healthy
//	Suspect --8 consecutive errors--> Dead
//	Dead    --StartRebuild--> Rebuilding --copy complete--> Healthy
//
// An Array is used from one goroutine (the MSM sweeps its per-spindle
// lanes one after another), so the health fields need no lock. Steering
// reads them only between rounds — RefreshSteering — and the steering
// table is frozen during the sub-rounds, which overlap in virtual time,
// so a mid-round health transition never redirects a lane onto another
// lane's spindle. The round in which a spindle dies therefore still
// degrades up to one k-window per victim stream; the re-steer takes
// effect at the next round boundary.

// SpindleState is one spindle's position in the mirror health state
// machine.
type SpindleState uint8

const (
	// Healthy spindles serve their steering share of reads.
	Healthy SpindleState = iota
	// Suspect spindles have accumulated consecutive errors or latency
	// outliers; steering shifts most load to the twin but keeps
	// probing so a clean read can clear the state.
	Suspect
	// Dead spindles are never read; their stripe groups steer wholly
	// to the twin, and only StartRebuild (after ReplaceSpindle for a
	// physical swap) can bring them back.
	Dead
	// Rebuilding spindles are being reconstructed from their twin;
	// they absorb duplicated writes (to keep copied chunks coherent)
	// but serve no reads until the copy completes.
	Rebuilding
)

func (s SpindleState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Rebuilding:
		return "rebuilding"
	}
	return "unknown"
}

// Health state-machine thresholds. All counts are consecutive: any
// clean read resets them.
const (
	// suspectAfterErrs consecutive read errors mark a spindle Suspect.
	suspectAfterErrs = 4
	// deadAfterErrs consecutive read errors mark it Dead.
	deadAfterErrs = 8
	// suspectAfterSlow consecutive latency outliers mark it Suspect;
	// latency alone never kills a spindle.
	suspectAfterSlow = 16
	// latencyOutlierFactor: a timed read slower than this multiple of
	// its PeekServiceTime estimate counts as an outlier.
	latencyOutlierFactor = 4
)

type spindleHealth struct {
	state      SpindleState
	consecErrs int
	consecSlow int
}

// steerMode is one mirror pair's frozen read-steering decision.
type steerMode uint8

const (
	// steerBoth deals alternate slots to alternate twins (the static
	// balanced split; also the fallback when neither twin is readable,
	// so the error surfaces instead of being masked).
	steerBoth steerMode = iota
	// steerTo0 / steerTo1 send every read to that twin (the other is
	// Dead or Rebuilding).
	steerTo0
	steerTo1
	// steerFavor0 / steerFavor1 send most reads to the named healthy
	// twin but probe the Suspect twin every fourth slot, so a clean
	// probe can clear the Suspect state.
	steerFavor0
	steerFavor1
)

func readable(s SpindleState) bool { return s == Healthy || s == Suspect }

// Mirrored reports whether the array runs the mirrored redundancy
// layout.
func (a *Array) Mirrored() bool { return a.r == 2 }

// Twin reports the mirror twin of spindle i.
func (a *Array) Twin(i int) int { return i ^ 1 }

// SpindleState reports spindle i's health state. Non-mirrored arrays
// report every spindle Healthy: nothing observes their reads.
func (a *Array) SpindleState(i int) SpindleState { return a.health[i].state }

// SetSpindleState forces spindle i's health state, clearing its strike
// counters: the operator's (and tests') hook for marking a drive dead
// without waiting for the error thresholds. Call RefreshSteering (or
// let the MSM's next round do it) afterwards.
func (a *Array) SetSpindleState(i int, s SpindleState) {
	if !a.Mirrored() {
		return
	}
	a.health[i] = spindleHealth{state: s}
}

// readSpindle applies the set's frozen steering decision to one slot.
//
// rt:hotpath
func (a *Array) readSpindle(set, slot int) int {
	base := a.r * set
	switch a.steer[set] {
	case steerTo0:
		return base
	case steerTo1:
		return base + 1
	case steerFavor0:
		if slot&3 == 3 {
			return base + 1
		}
		return base
	case steerFavor1:
		if slot&3 == 3 {
			return base
		}
		return base + 1
	default:
		return base + (slot & 1)
	}
}

// RefreshSteering recomputes the per-set steering table from the
// current health states and reports whether any entry changed. The MSM
// calls it from the single-threaded partition phase at each round
// boundary; between calls the table is frozen, which is what makes the
// lanes' concurrent Locate calls race-free against health transitions.
func (a *Array) RefreshSteering() (changed bool) {
	if !a.Mirrored() {
		return false // a set of one reads its one replica (NewArray)
	}
	for set := range a.steer {
		m := a.steerFor(set)
		if m != a.steer[set] {
			a.steer[set] = m
			changed = true
		}
	}
	if changed {
		a.steerGen++
	}
	return changed
}

// SteerGeneration names the steer table's contents: it changes exactly
// when RefreshSteering changes an entry, so where Locate sends a group
// can be kept until it does. It is never zero.
func (a *Array) SteerGeneration() uint64 { return a.steerGen }

func (a *Array) steerFor(pair int) steerMode {
	s0 := a.health[2*pair].state
	s1 := a.health[2*pair+1].state
	r0, r1 := readable(s0), readable(s1)
	switch {
	case r0 && !r1:
		return steerTo0
	case r1 && !r0:
		return steerTo1
	case s0 == Healthy && s1 == Suspect:
		return steerFavor0
	case s1 == Healthy && s0 == Suspect:
		return steerFavor1
	default:
		return steerBoth
	}
}

// observeRead feeds one timed read's outcome into the owning spindle's
// health counters; steering sees the result at the next
// RefreshSteering (see the package comment above).
//
// rt:hotpath
func (a *Array) observeRead(sp int, est, t time.Duration, err error) {
	h := &a.health[sp]
	switch {
	case err != nil:
		h.consecSlow = 0
		h.consecErrs++
		if h.state == Healthy && h.consecErrs >= suspectAfterErrs {
			h.state = Suspect
		}
		if h.state == Suspect && h.consecErrs >= deadAfterErrs {
			h.state = Dead
		}
	case est > 0 && t > est*latencyOutlierFactor:
		h.consecErrs = 0
		h.consecSlow++
		if h.state == Healthy && h.consecSlow >= suspectAfterSlow {
			h.state = Suspect
		}
	default:
		h.consecErrs, h.consecSlow = 0, 0
		if h.state == Suspect {
			h.state = Healthy
		}
	}
}

// readSpan performs one group-contained timed read on spindle sp
// through the spindle's lending read, recording the outcome in the
// health state machine when the spindle has a twin to steer to. The
// returned bytes alias either scratch or the spindle's store (see
// Device.ReadView).
//
// rt:hotpath
func (a *Array) readSpan(sp, local, count int, scratch []byte) ([]byte, time.Duration, error) {
	if !a.Mirrored() {
		return a.spindles[sp].ReadView(local, count, scratch)
	}
	est := a.spindles[sp].PeekServiceTime(local, count)
	data, t, err := a.spindles[sp].ReadView(local, count, scratch)
	a.observeRead(sp, est, t, err)
	return data, t, err
}

// writeSet writes data at the set-local address on every writable
// replica of the set; a timed write charges the slowest copy (the
// replicas seek in parallel). A Dead twin is skipped — its contents are
// reconstructed wholesale by rebuild — and a Rebuilding twin is written
// through so chunks already copied stay coherent.
func (a *Array) writeSet(set, local int, data []byte, timed bool) (time.Duration, error) {
	var max time.Duration
	var firstErr error
	wrote := false
	for tw := 0; tw < a.r; tw++ {
		sp := a.r*set + tw
		if a.health[sp].state == Dead {
			continue
		}
		t, err := spindleWrite(a.spindles[sp], local, data, timed)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		wrote = true
		if t > max {
			max = t
		}
	}
	if !wrote {
		if firstErr != nil {
			return 0, firstErr
		}
		return 0, fmt.Errorf("disk: mirror pair %d has no writable spindle", set)
	}
	return max, nil
}
