// Package media provides the synthetic media devices of the testbed:
// deterministic video frame and audio sample sources standing in for
// the paper's UVC digitization/compression hardware, silence detection
// and elimination for audio (§4), and display-side sink devices with
// internal buffers consuming blocks at their real-time rates.
package media

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Unit is one media unit: a video frame or a run of audio samples
// produced together. Payload length is the unit size in bytes.
type Unit struct {
	// Seq is the unit's sequence number within its stream.
	Seq uint64
	// Payload is the digitized (and, for video, compressed) data.
	Payload []byte
}

// Source produces a stream of media units at a fixed rate; it is the
// file-system-facing face of a capture device.
type Source interface {
	// Next returns the next unit, or false when the stream ends.
	Next() (Unit, bool)
	// Rate is the recording rate in units/second.
	Rate() float64
	// UnitBytes is the nominal size of one unit in bytes; for
	// variable-rate sources it is the peak size.
	UnitBytes() int
}

// VariableSource marks a source whose units vary in size
// (variable-rate compression); the file system stores such strands in
// self-describing variable blocks.
type VariableSource interface {
	Source
	// Variable reports whether unit sizes vary.
	Variable() bool
}

// IsVariable reports whether the source declares variable unit sizes.
func IsVariable(s Source) bool {
	v, ok := s.(VariableSource)
	return ok && v.Variable()
}

// VideoSource generates deterministic pseudo-compressed NTSC-class
// frames. Every byte is PRNG output under a fixed seed, so recorded
// data can be re-derived and verified after playback.
type VideoSource struct {
	rate      float64
	frameSize int
	frames    int
	next      uint64
	seed      int64
}

// NewVideoSource creates a source of `frames` frames of frameSize
// bytes at the given rate. Seed fixes the payload contents.
func NewVideoSource(frames, frameSize int, rate float64, seed int64) *VideoSource {
	return &VideoSource{rate: rate, frameSize: frameSize, frames: frames, seed: seed}
}

// Next implements Source.
func (v *VideoSource) Next() (Unit, bool) {
	if v.next >= uint64(v.frames) {
		return Unit{}, false
	}
	u := Unit{Seq: v.next, Payload: FramePayload(v.seed, v.next, v.frameSize)}
	v.next++
	return u, true
}

// Rate implements Source.
func (v *VideoSource) Rate() float64 { return v.rate }

// UnitBytes implements Source.
func (v *VideoSource) UnitBytes() int { return v.frameSize }

// FramePayload deterministically regenerates frame seq's payload so
// tests can verify retrieved data without retaining the original.
func FramePayload(seed int64, seq uint64, size int) []byte {
	buf := make([]byte, size)
	rng := rand.New(rand.NewSource(seed ^ int64(seq*0x9e3779b97f4a7c15)))
	// Stamp the sequence number, then fill with PRNG bytes.
	if size >= 8 {
		binary.LittleEndian.PutUint64(buf, seq)
	}
	for i := 8; i < size; i++ {
		buf[i] = byte(rng.Intn(256))
	}
	return buf
}

// AudioSource generates 8-bit audio samples grouped into units of
// unitSamples samples, alternating talk spurts and silences so that
// silence elimination has something to eliminate. Amplitude during
// speech is a deterministic sinusoid plus PRNG noise; during silence
// it is low-level noise under the detection threshold.
//
// Rate is in units/second (a unit being one group of unitSamples
// samples): a telephone-quality stream of 8000 samples/s packaged in
// 800-sample units has rate 10.
type AudioSource struct {
	rate        float64 // units per second
	unitSamples int
	totalUnits  int
	next        uint64
	seed        int64
	// silenceFraction is the fraction of units that are silent.
	silenceFraction float64
	// burstUnits is the length of each silence burst in units.
	burstUnits int
}

// NewAudioSource creates a source of totalUnits units, each holding
// unitSamples samples, produced at rate units/second, with roughly
// silenceFraction of the stream silent in bursts of burstUnits units.
func NewAudioSource(totalUnits, unitSamples int, rate float64, silenceFraction float64, burstUnits int, seed int64) *AudioSource {
	if burstUnits < 1 {
		burstUnits = 1
	}
	if silenceFraction < 0 {
		silenceFraction = 0
	}
	if silenceFraction > 1 {
		silenceFraction = 1
	}
	return &AudioSource{
		rate:            rate,
		unitSamples:     unitSamples,
		totalUnits:      totalUnits,
		seed:            seed,
		silenceFraction: silenceFraction,
		burstUnits:      burstUnits,
	}
}

// Next implements Source.
func (a *AudioSource) Next() (Unit, bool) {
	if a.next >= uint64(a.totalUnits) {
		return Unit{}, false
	}
	u := Unit{Seq: a.next, Payload: a.payload(a.next)}
	a.next++
	return u, true
}

// Rate implements Source (units/second).
func (a *AudioSource) Rate() float64 { return a.rate }

// UnitBytes implements Source.
func (a *AudioSource) UnitBytes() int { return a.unitSamples }

// UnitSilent reports whether unit seq falls in a silence burst, by
// construction: bursts of burstUnits silent units recur with a period
// chosen so the long-run silent fraction matches silenceFraction.
func (a *AudioSource) UnitSilent(seq uint64) bool {
	if a.silenceFraction <= 0 {
		return false
	}
	if a.silenceFraction >= 1 {
		return true
	}
	cycle := uint64(math.Round(float64(a.burstUnits) / a.silenceFraction))
	if cycle <= uint64(a.burstUnits) {
		return true
	}
	return seq%cycle < uint64(a.burstUnits)
}

func (a *AudioSource) payload(seq uint64) []byte {
	buf := make([]byte, a.unitSamples)
	rng := rand.New(rand.NewSource(a.seed ^ int64(seq*0x9e3779b97f4a7c15)))
	silent := a.UnitSilent(seq)
	sampleRate := a.rate * float64(a.unitSamples)
	for i := range buf {
		if silent {
			// Low-level noise centered at the 8-bit midpoint 128.
			buf[i] = byte(128 + rng.Intn(5) - 2)
		} else {
			t := float64(seq)*float64(a.unitSamples) + float64(i)
			s := 100 * math.Sin(2*math.Pi*440*t/sampleRate)
			n := float64(rng.Intn(21) - 10)
			buf[i] = byte(128 + int(s+n))
		}
	}
	return buf
}

// SilenceDetector implements §4's silence detection: "if the average
// energy level over a block falls below a threshold, no audio data is
// stored for that duration".
type SilenceDetector struct {
	// Threshold is the average-energy threshold; 8-bit samples are
	// centered at 128 and energy is the mean squared deviation.
	Threshold float64
}

// DefaultSilenceDetector uses a threshold separating the source's
// low-level noise (|dev| ≤ 2, energy ≤ ~4) from speech (energy ≫ 100).
func DefaultSilenceDetector() SilenceDetector { return SilenceDetector{Threshold: 25} }

// Silent reports whether the average energy of the samples falls below
// the threshold.
func (sd SilenceDetector) Silent(samples []byte) bool {
	if len(samples) == 0 {
		return true
	}
	var e float64
	for _, s := range samples {
		d := float64(s) - 128
		e += d * d
	}
	return e/float64(len(samples)) < sd.Threshold
}

// SliceSource replays a pre-built unit sequence; editing tests and the
// network server use it to feed received data into RECORD.
type SliceSource struct {
	units []Unit
	rate  float64
	size  int
	next  int
}

// NewSliceSource wraps the units as a Source.
func NewSliceSource(units []Unit, rate float64, unitBytes int) *SliceSource {
	return &SliceSource{units: units, rate: rate, size: unitBytes}
}

// Next implements Source.
func (s *SliceSource) Next() (Unit, bool) {
	if s.next >= len(s.units) {
		return Unit{}, false
	}
	u := s.units[s.next]
	s.next++
	return u, true
}

// Rate implements Source.
func (s *SliceSource) Rate() float64 { return s.rate }

// UnitBytes implements Source.
func (s *SliceSource) UnitBytes() int { return s.size }

// ValidateFrameSeq checks that a retrieved video payload carries the
// expected stamped sequence number.
func ValidateFrameSeq(payload []byte, want uint64) error {
	if len(payload) < 8 {
		return fmt.Errorf("media: payload %d bytes too short for a frame stamp", len(payload))
	}
	got := binary.LittleEndian.Uint64(payload)
	if got != want {
		return fmt.Errorf("media: frame stamp %d, want %d", got, want)
	}
	return nil
}
