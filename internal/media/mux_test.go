package media

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// splitAV separates a composite unit as its reader would:
// [u32 video length][frame][audio].
func splitAV(u []byte) (frame, audio []byte) {
	n := binary.LittleEndian.Uint32(u)
	return u[4 : 4+n], u[4+n:]
}

func TestMuxSplitRoundTrip(t *testing.T) {
	// 30 fps video, 15 audio units/s of 800 B → 400 B audio/frame.
	v := NewVideoSource(30, 1000, 30, 5)
	a := NewAudioSource(15, 800, 15, 0, 1, 6)
	mux, err := NewMuxAVSource(v, a)
	if err != nil {
		t.Fatal(err)
	}
	if mux.UnitBytes() != 4+1000+400 {
		t.Fatalf("unit bytes %d", mux.UnitBytes())
	}
	if mux.Rate() != 30 {
		t.Fatalf("rate %g", mux.Rate())
	}

	// Reconstruct the audio stream and verify both media.
	refAudio := NewAudioSource(15, 800, 15, 0, 1, 6)
	var wantAudio []byte
	for {
		u, ok := refAudio.Next()
		if !ok {
			break
		}
		wantAudio = append(wantAudio, u.Payload...)
	}
	var gotAudio []byte
	n := 0
	for {
		u, ok := mux.Next()
		if !ok {
			break
		}
		frame, audio := splitAV(u.Payload)
		if !bytes.Equal(frame, FramePayload(5, uint64(n), 1000)) {
			t.Fatalf("frame %d corrupted through mux", n)
		}
		gotAudio = append(gotAudio, audio...)
		n++
	}
	if n != 30 {
		t.Fatalf("%d composite units", n)
	}
	if !bytes.Equal(gotAudio, wantAudio) {
		t.Fatal("audio stream corrupted through mux")
	}
}

func TestMuxPadsWhenAudioRunsDry(t *testing.T) {
	v := NewVideoSource(30, 100, 30, 7)
	a := NewAudioSource(5, 800, 15, 0, 1, 8) // only 1/3 of the audio needed
	mux, err := NewMuxAVSource(v, a)
	if err != nil {
		t.Fatal(err)
	}
	units := 0
	for {
		u, ok := mux.Next()
		if !ok {
			break
		}
		_, audio := splitAV(u.Payload)
		if len(audio) != 400 {
			t.Fatalf("unit %d audio share %d", units, len(audio))
		}
		units++
	}
	if units != 30 {
		t.Fatalf("%d units; video length governs the stream", units)
	}
}

func TestMuxRejectsNonIntegralSplit(t *testing.T) {
	v := NewVideoSource(30, 100, 30, 1)
	a := NewAudioSource(10, 800, 10, 0, 1, 2) // 8000 B/s over 30 fps
	if _, err := NewMuxAVSource(v, a); err == nil {
		t.Fatal("non-integral audio share accepted")
	}
	if _, err := NewMuxAVSource(nil, a); err == nil {
		t.Fatal("nil video accepted")
	}
}
