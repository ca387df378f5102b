package media

import (
	"encoding/binary"
	"fmt"
)

// MuxAVSource interleaves a video source and an audio source into
// composite units for heterogeneous-block storage (§3.3.3: "multiple
// media being recorded are stored within the same block, which may
// entail additional processing for combining these media during
// storage, and for separating them during retrieval. The advantage of
// this scheme is that it provides implicit inter-media
// synchronization.").
//
// Each composite unit carries one video frame followed by that frame's
// share of audio samples — [u32 little-endian video length][frame][audio],
// so whoever fetches the units separates the media without out-of-band
// metadata; both media ride one strand, one index, and one disk access
// per block.
type MuxAVSource struct {
	video Source
	audio Source
	// audioPerFrame is the number of audio payload bytes packed with
	// each frame.
	audioPerFrame int
	pending       []byte // buffered audio bytes not yet emitted
	next          uint64
}

// NewMuxAVSource combines the sources. The audio source's byte rate is
// divided evenly across video frames; rates must divide cleanly so
// every composite unit has the same size (fixed-size units keep
// heterogeneous blocks simple, as in the paper's n = 1 analysis).
func NewMuxAVSource(video, audio Source) (*MuxAVSource, error) {
	if video == nil || audio == nil {
		return nil, fmt.Errorf("media: mux needs both media")
	}
	audioBytesPerSec := audio.Rate() * float64(audio.UnitBytes())
	perFrame := audioBytesPerSec / video.Rate()
	if perFrame != float64(int(perFrame)) || perFrame <= 0 {
		return nil, fmt.Errorf("media: audio %g B/s does not divide evenly across %g frames/s", audioBytesPerSec, video.Rate())
	}
	return &MuxAVSource{video: video, audio: audio, audioPerFrame: int(perFrame)}, nil
}

// Next implements Source: the next composite unit, combining the media
// at the input as the paper's heterogeneous scheme requires.
func (m *MuxAVSource) Next() (Unit, bool) {
	vu, ok := m.video.Next()
	if !ok {
		return Unit{}, false
	}
	for len(m.pending) < m.audioPerFrame {
		au, ok := m.audio.Next()
		if !ok {
			// Audio ran dry: pad with silence so the composite
			// stream stays fixed-size.
			pad := make([]byte, m.audioPerFrame-len(m.pending))
			for i := range pad {
				pad[i] = 128
			}
			m.pending = append(m.pending, pad...)
			break
		}
		m.pending = append(m.pending, au.Payload...)
	}
	payload := make([]byte, 0, 4+m.video.UnitBytes()+m.audioPerFrame)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(vu.Payload)))
	payload = append(payload, hdr[:]...)
	payload = append(payload, vu.Payload...)
	payload = append(payload, m.pending[:m.audioPerFrame]...)
	m.pending = m.pending[m.audioPerFrame:]
	u := Unit{Seq: m.next, Payload: payload}
	m.next++
	return u, true
}

// Rate implements Source: composite units flow at the video frame
// rate.
func (m *MuxAVSource) Rate() float64 { return m.video.Rate() }

// UnitBytes implements Source (4-byte split header + frame + audio
// share).
func (m *MuxAVSource) UnitBytes() int { return 4 + m.video.UnitBytes() + m.audioPerFrame }
