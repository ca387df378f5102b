package continuity

import (
	"fmt"
	"math"
)

// This file implements §3.3.3: storing multiple media strands — the
// continuity equations for one audio plus one video component under
// homogeneous blocks (Eqs. 4 and 5), and the heterogeneous-block /
// adjacent-placement case they reduce to (Eq. 6). The paper derives
// these for the pipelined architecture; that is what is modeled here.

// AVLayout selects how one audio and one video component share disk
// blocks (§1.1, §3.3.3).
type AVLayout int

const (
	// HomogeneousBlocks stores each medium in its own blocks; the
	// file system maintains explicit temporal relationships.
	HomogeneousBlocks AVLayout = iota
	// HeterogeneousBlocks stores both media within the same block,
	// giving implicit inter-media synchronization at the cost of
	// combining on storage and separating on retrieval.
	HeterogeneousBlocks
)

// String names the layout.
func (l AVLayout) String() string {
	if l == HomogeneousBlocks {
		return "homogeneous"
	}
	return "heterogeneous"
}

// AVDurationRatio is the paper's n: the playback duration of an audio
// block divided by that of a video block. An audio block is retrieved
// once every n video blocks.
func AVDurationRatio(qv int, video Media, qa int, audio Media) float64 {
	return audio.PlaybackDuration(qa) / video.PlaybackDuration(qv)
}

// AVSlack evaluates the mixed audio+video continuity requirement for
// pipelined retrieval, returning the slack in seconds (negative means
// infeasible).
//
// Homogeneous blocks with audio/video duration ratio n (Eq. 4): over
// the playback of n video blocks the disk must deliver n video blocks
// and one audio block, each access paying the scattering parameter:
//
//	(n+1)·l_ds + n·q_v·s_v/r_dt + q_a·s_a/r_dt ≤ n·q_v/R_v
//
// With n = 1 this is Eq. 5. Heterogeneous blocks — or homogeneous
// blocks scattered so the audio block is adjacent to its video block
// (l_ds = 0 between them) — reduce to Eq. 6:
//
//	l_ds + (q_v·s_v + q_a·s_a)/r_dt ≤ q_v/R_v
func AVSlack(layout AVLayout, qv int, video Media, qa int, audio Media, lds float64, d Device) float64 {
	switch layout {
	case HomogeneousBlocks:
		n := AVDurationRatio(qv, video, qa, audio)
		read := (n+1)*lds +
			d.TransferTime(n*video.BlockBits(qv)) +
			d.TransferTime(audio.BlockBits(qa))
		return n*video.PlaybackDuration(qv) - read
	default:
		read := lds + d.TransferTime(video.BlockBits(qv)+audio.BlockBits(qa))
		return video.PlaybackDuration(qv) - read
	}
}

// AVMaxScattering solves the mixed-media continuity equation for the
// largest admissible scattering parameter: the slack at l_ds = 0 spread
// over the accesses a period pays it on, n+1 for homogeneous blocks and
// one for heterogeneous. The second result is false when even contiguous
// blocks cannot sustain the pair.
func AVMaxScattering(layout AVLayout, qv int, video Media, qa int, audio Media, d Device) (float64, bool) {
	gaps := 1.0
	if layout == HomogeneousBlocks {
		gaps += AVDurationRatio(qv, video, qa, audio)
	}
	lds := AVSlack(layout, qv, video, qa, audio, 0, d) / gaps
	return lds, lds >= 0
}

// AVDerivation is the outcome of deriving a mixed audio+video layout.
type AVDerivation struct {
	Layout         AVLayout
	VideoGran      int
	AudioGran      int
	DurationRatio  float64
	MaxScattering  float64
	VideoBlockBits float64
	AudioBlockBits float64
}

// DeriveAV derives the scattering bound for storing one audio and one
// video strand under the given layout, with the audio granularity
// matched to dRatio video-block durations (dRatio ≥ 1).
func DeriveAV(layout AVLayout, qv int, video, audio Media, dRatio float64, d Device) (AVDerivation, error) {
	if qv < 1 {
		return AVDerivation{}, fmt.Errorf("continuity: video granularity %d < 1", qv)
	}
	if dRatio < 1 {
		return AVDerivation{}, fmt.Errorf("continuity: audio/video duration ratio %g < 1", dRatio)
	}
	qa := int(math.Round(dRatio * video.PlaybackDuration(qv) * audio.Rate))
	if qa < 1 {
		qa = 1
	}
	lds, ok := AVMaxScattering(layout, qv, video, qa, audio, d)
	if !ok {
		return AVDerivation{}, fmt.Errorf("continuity: audio+video pair infeasible under %v layout (deficit %.3g s)", layout, lds)
	}
	return AVDerivation{
		Layout:         layout,
		VideoGran:      qv,
		AudioGran:      qa,
		DurationRatio:  AVDurationRatio(qv, video, qa, audio),
		MaxScattering:  lds,
		VideoBlockBits: video.BlockBits(qv),
		AudioBlockBits: audio.BlockBits(qa),
	}, nil
}
