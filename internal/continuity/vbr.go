package continuity

// This file models §6.2's variable-rate compression extension: "We are
// extending the continuity equations to incorporate such effects of
// compression algorithms." With variable frame sizes the continuity
// equations can be evaluated against two profiles:
//
//   - peak provisioning: every block is assumed to hold peak-size
//     units. The resulting scattering bound guarantees strict per-block
//     continuity, exactly like the fixed-size analysis — but wastes the
//     bound's headroom on the (common) small blocks.
//
//   - average provisioning: blocks are assumed to hold mean-size
//     units. The resulting bound is looser (blocks may be placed
//     farther apart; more streams admit), and continuity holds over
//     averages: a burst of peak-size blocks can transiently exceed the
//     per-block budget, so the §3.3.2 anti-jitter read-ahead (k blocks
//     of buffering) is required to absorb it.

// VBRProfile summarizes a variable-rate medium.
type VBRProfile struct {
	// Rate is the unit (frame) rate in units/second.
	Rate float64
	// PeakUnitBits is the largest unit size in bits.
	PeakUnitBits float64
	// AvgUnitBits is the long-run mean unit size in bits.
	AvgUnitBits float64
}

// PeakMedia is the medium as peak provisioning sees it.
func (p VBRProfile) PeakMedia(name string) Media {
	return Media{Name: name + "-peak", UnitBits: p.PeakUnitBits, Rate: p.Rate}
}

// AvgMedia is the medium as average provisioning sees it.
func (p VBRProfile) AvgMedia(name string) Media {
	return Media{Name: name + "-avg", UnitBits: p.AvgUnitBits, Rate: p.Rate}
}

// VBRMaxScattering evaluates the continuity equation under both
// provisioning profiles, returning the peak-based (strict) and
// average-based (anti-jitter-buffered) scattering bounds. ok is false
// when even average provisioning is infeasible.
func VBRMaxScattering(cfg Config, q int, p VBRProfile, d Device) (peak, avg float64, ok bool) {
	avg, okAvg := MaxScattering(cfg, q, p.AvgMedia("vbr"), d)
	if !okAvg {
		return 0, avg, false
	}
	peak, okPeak := MaxScattering(cfg, q, p.PeakMedia("vbr"), d)
	if !okPeak {
		// Peak-infeasible but average-feasible: strict per-block
		// provisioning impossible, buffered average provisioning
		// still works.
		peak = -1
	}
	return peak, avg, true
}

// VBRBurstReadAhead is the read-ahead (in blocks) that lets
// average-provisioned playback ride out the worst burst of consecutive
// peak-size blocks: each peak block overshoots the average-block read
// time by (peak−avg)·q/r_dt seconds, and a burst of `burst` of them
// must be absorbed by pre-buffered playback time.
func VBRBurstReadAhead(q int, p VBRProfile, d Device, burst int) int {
	overshoot := d.TransferTime(float64(q) * (p.PeakUnitBits - p.AvgUnitBits))
	if overshoot <= 0 || burst <= 0 {
		return 1
	}
	blockDur := float64(q) / p.Rate
	need := float64(burst) * overshoot / blockDur
	h := int(need) + 1
	if h < 1 {
		h = 1
	}
	return h
}
