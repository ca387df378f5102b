package continuity

import "fmt"

// This file adds quality-of-service classes to §3.4's admission
// control. The paper's algorithm answers accept/reject; under overload
// the interesting answer is "accept, at reduced quality". The lever is
// §3.3.2's fast-forward-with-skipping machinery run at 1× display
// time: fetching only every stride-th block of a strand and holding
// each fetched block on screen for the whole stride cuts the stream's
// disk charge by ~1/stride while its display clock — and therefore its
// deadlines — stay untouched. A class lattice orders who degrades
// first: best-effort before standard, and premium never.

// Class is a stream's quality-of-service class. Higher values take
// priority: under overload, lower classes are degraded (sub-sampled or
// served cache-only) before higher ones, and freed capacity promotes
// degraded streams back in descending class order.
type Class uint8

const (
	// BestEffort streams are the first demoted under load and the
	// last promoted back.
	BestEffort Class = iota
	// Standard streams degrade only after every best-effort stream
	// has been pushed to its maximum stride.
	Standard
	// Premium streams are never degraded by load: admission either
	// finds them full-rate capacity (shedding lower classes if
	// needed) or rejects them outright.
	Premium

	// NumClasses sizes per-class tables.
	NumClasses = 3
)

// String returns the class's canonical flag spelling.
func (c Class) String() string {
	switch c {
	case BestEffort:
		return "best-effort"
	case Standard:
		return "standard"
	case Premium:
		return "premium"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass parses a canonical class spelling.
func ParseClass(s string) (Class, error) {
	switch s {
	case "best-effort", "besteffort", "be":
		return BestEffort, nil
	case "standard", "std":
		return Standard, nil
	case "premium", "prem":
		return Premium, nil
	}
	return BestEffort, fmt.Errorf("continuity: unknown QoS class %q (want premium, standard, or best-effort)", s)
}

// Degraded returns the admission-control view of a request load-shed
// at the given sub-sampling stride: only every stride-th block is
// fetched, and each fetched block stands in for the stride's worth of
// display time. The per-block transfer and intra-strand positioning
// charges scale by 1/stride (the stream touches the disk that much
// less per round), while the worst-case switch cost in α and the
// display-rate term γ are deliberately left at full strength — a
// degraded stream still costs one inter-strand switch per round and
// still displays at its recorded rate.
func Degraded(r Request, stride int) Request {
	if stride <= 1 {
		return r
	}
	s := float64(stride)
	r.UnitBits /= s
	r.Scattering /= s
	return r
}

// DefaultMaxStride bounds load shedding: a stream sub-sampled past
// 1/8th of its blocks is closer to a slideshow than a video, so beyond
// this the controller rejects rather than degrades further.
const DefaultMaxStride = 8
