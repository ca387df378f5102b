package continuity

import "math"

// This file implements the rest of §3.3.2: the read-ahead needed before
// the disk switches away during slow-motion playback, and the continuity
// and buffering effects of fast-forward. (Average-case continuity's
// read-ahead and buffers are Config.ReadAhead and Config.AvgBuffers.)

// SwitchReadAhead is §3.3.2's h: when buffers fill during slow-motion
// (or pause) the disk switches to another task, after which its head
// may sit anywhere, so resuming pays up to l_max_seek. To keep the
// display from starving across the switch, the disk must have read
// ahead an additional
//
//	h = ⌈ l_max_seek · (R/q) ⌉
//
// blocks, where R/q is the rate at which blocks are played back.
func SwitchReadAhead(maxSeek float64, q int, m Media) int {
	blocksPerSecond := m.Rate / float64(q)
	h := int(math.Ceil(maxSeek * blocksPerSecond))
	if h < 0 {
		h = 0
	}
	return h
}

// FastForward describes accelerated playback at Speed× the recording
// rate (§3.3.2). Without skipping, every block is still displayed, so
// both the continuity requirement (blocks must arrive Speed× faster)
// and the buffering requirement grow. With skipping, only one of every
// ⌈Speed⌉ blocks is retrieved and displayed, so the block arrival rate
// is unchanged but the disk must hop over skipped blocks, stretching
// the inter-retrieved-block separation to ⌈Speed⌉·l_ds: only the
// continuity requirement grows.
type FastForward struct {
	Speed float64
	Skip  bool
}

// EffectiveMedia is the medium as the continuity equations see it
// during fast-forward: without skipping, the playback rate is
// Speed·R; with skipping, the rate is unchanged.
func (ff FastForward) EffectiveMedia(m Media) Media {
	if !ff.Skip {
		m.Rate *= ff.Speed
	}
	return m
}

// EffectiveScattering is the scattering parameter as seen during
// fast-forward: skipping hops over ⌈Speed⌉−1 blocks, so successive
// retrieved blocks are up to ⌈Speed⌉ scattering gaps apart.
func (ff FastForward) EffectiveScattering(lds float64) float64 {
	if !ff.Skip {
		return lds
	}
	return math.Ceil(ff.Speed) * lds
}

// Feasible reports whether continuous fast-forward at this speed is
// possible for a strand stored at (q, lds) under cfg.
func (ff FastForward) Feasible(cfg Config, q int, lds float64, m Media, d Device) bool {
	return Feasible(cfg, q, ff.EffectiveScattering(lds), ff.EffectiveMedia(m), d)
}

// BufferMultiplier is the growth in buffering relative to normal-rate
// playback: Speed× without skipping (blocks arrive faster than the
// original-rate display device frees buffers at the fastest required
// display rate), 1× with skipping (§3.3.2).
func (ff FastForward) BufferMultiplier() float64 {
	if ff.Skip {
		return 1
	}
	return ff.Speed
}
