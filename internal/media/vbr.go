package media

import (
	"encoding/binary"
	"math/rand"
)

// VBRVideoSource generates variable-rate compressed video (§6.2 of the
// paper: "variable rate compression of video (analogous to silence
// elimination in audio), such as differencing between frames, can
// result in varying but smaller sizes of video frames"). Frames follow
// a GOP pattern: every GOP-th frame is an intra frame of peak size,
// the rest are difference frames around a smaller mean, with
// deterministic PRNG jitter.
type VBRVideoSource struct {
	frames    int
	peakBytes int
	diffBytes int
	gop       int
	rate      float64
	seed      int64
	next      uint64
}

// NewVBRVideoSource creates a VBR source: `frames` frames at `rate`
// frames/second, intra frames of peakBytes every gop frames,
// difference frames averaging diffBytes in between.
func NewVBRVideoSource(frames, peakBytes, diffBytes, gop int, rate float64, seed int64) *VBRVideoSource {
	if gop < 1 {
		gop = 1
	}
	return &VBRVideoSource{
		frames:    frames,
		peakBytes: peakBytes,
		diffBytes: diffBytes,
		gop:       gop,
		rate:      rate,
		seed:      seed,
	}
}

// Next implements Source.
func (v *VBRVideoSource) Next() (Unit, bool) {
	if v.next >= uint64(v.frames) {
		return Unit{}, false
	}
	u := Unit{Seq: v.next, Payload: VBRFramePayload(v.seed, v.next, v.peakBytes, v.diffBytes, v.gop)}
	v.next++
	return u, true
}

// Rate implements Source.
func (v *VBRVideoSource) Rate() float64 { return v.rate }

// UnitBytes implements Source: the peak frame size (what fixed-rate
// provisioning would have to assume for every frame).
func (v *VBRVideoSource) UnitBytes() int { return v.peakBytes }

// Variable implements VariableSource.
func (v *VBRVideoSource) Variable() bool { return true }

// VBRFrameSize is the size of frame seq under the GOP pattern, without
// generating the payload. Deterministic jitter of ±12.5% applies to
// difference frames.
func VBRFrameSize(seed int64, seq uint64, peakBytes, diffBytes, gop int) int {
	if gop < 1 {
		gop = 1
	}
	if seq%uint64(gop) == 0 {
		return peakBytes
	}
	rng := rand.New(rand.NewSource(seed ^ int64(seq*0x9e3779b97f4a7c15)))
	jitter := diffBytes / 8
	size := diffBytes
	if jitter > 0 {
		size += rng.Intn(2*jitter+1) - jitter
	}
	if size < 9 {
		size = 9 // room for the sequence stamp
	}
	if size > peakBytes {
		size = peakBytes
	}
	return size
}

// VBRFramePayload deterministically regenerates frame seq's payload.
func VBRFramePayload(seed int64, seq uint64, peakBytes, diffBytes, gop int) []byte {
	size := VBRFrameSize(seed, seq, peakBytes, diffBytes, gop)
	buf := make([]byte, size)
	binary.LittleEndian.PutUint64(buf, seq)
	rng := rand.New(rand.NewSource(^seed ^ int64(seq*0x9e3779b97f4a7c15)))
	for i := 8; i < size; i++ {
		buf[i] = byte(rng.Intn(256))
	}
	return buf
}
