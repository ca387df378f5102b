package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// Frames built in place — what every request and reply now is — are
// the same bytes as the golden frames, and framing leaves the body
// where it was, so a frame can be cut twice.
func TestGoldenFramesInPlace(t *testing.T) {
	diffGolden(t, goldenLines(t,
		func(e *Encoder, code uint16, _ bool) []byte {
			body := append([]byte(nil), e.Bytes()...)
			frame, err := e.Frame(code)
			if err != nil {
				t.Fatal(err)
			}
			again, err := e.Frame(code)
			if err != nil || !bytes.Equal(frame, again) || !bytes.Equal(e.Bytes(), body) {
				t.Fatalf("framing twice changed the frame or the body (%v)", err)
			}
			return frame
		},
		func(err error) []byte {
			e := NewEncoder().Str("a half-built reply the error replaces")
			return e.FrameError(err)
		}))
}

// A reused encoder frames each body independently of the last.
func TestEncoderReuse(t *testing.T) {
	e := NewEncoder()
	var want [][]byte
	for _, g := range goldenOps {
		fresh := NewEncoder()
		g.resp(fresh)
		f, err := fresh.Frame(StatusOK)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, f)
	}
	for round := 0; round < 2; round++ {
		for i, g := range goldenOps {
			e.Reset()
			g.resp(e)
			got, err := e.Frame(StatusOK)
			if err != nil || !bytes.Equal(got, want[i]) {
				t.Fatalf("%v on a reused encoder: frame differs (%v)", g.op, err)
			}
			if e.Len() != len(got)-6 {
				t.Fatalf("%v: Len %d for a %d-byte frame", g.op, e.Len(), len(got))
			}
		}
	}
	if e.Cap() < len(want[0]) {
		t.Fatalf("Cap %d below a frame it just held", e.Cap())
	}
}

func TestSetU32PatchesACount(t *testing.T) {
	e := NewEncoder().Str("head")
	at := e.Len()
	e.U32(0).Blob([]byte("a")).Blob([]byte("b"))
	e.SetU32(at, 2)
	d := NewDecoder(e.Bytes())
	if d.Str() != "head" || d.Count(4) != 2 || string(d.Blob()) != "a" || string(d.Blob()) != "b" || d.Err() != nil {
		t.Fatalf("patched count did not decode: %v", d.Err())
	}
}

func TestGrowSizesOnce(t *testing.T) {
	e := NewEncoder()
	e.Grow(1 << 16)
	c := e.Cap()
	e.U64(1).Blob(make([]byte, 1<<16-12))
	if e.Cap() != c {
		t.Fatalf("buffer regrew from %d to %d inside the room Grow made", c, e.Cap())
	}
}

// A body past the frame limit is an error from Frame; an oversized
// error message is cut to fit.
func TestFrameLimits(t *testing.T) {
	// A body one byte too long. The buffer is never written, so the
	// 256 MiB stay untouched pages.
	e := &Encoder{buf: make([]byte, headroom+MaxBody+1)}
	if _, err := e.Frame(StatusOK); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized body framed: %v", err)
	}
	frame := NewEncoder().FrameError(errors.New(strings.Repeat("x", 1<<20)))
	if len(frame) != 4+2+4+maxErrorMessage {
		t.Fatalf("error frame of %d bytes", len(frame))
	}
	if _, err := ParseResponse(frame[4:]); err == nil || len(err.Error()) < maxErrorMessage {
		t.Fatalf("truncated error did not parse as an error: %.40v", err)
	}
}

// Blob is a view: it aliases the body, cannot be appended into the
// next field, and Str still copies.
func TestBlobIsAClippedView(t *testing.T) {
	body := NewEncoder().Blob([]byte("unit-0")).Blob([]byte("unit-1")).Bytes()
	d := NewDecoder(body)
	u0 := d.Blob()
	if cap(u0) != len(u0) {
		t.Fatalf("cap %d > len %d", cap(u0), len(u0))
	}
	if &u0[0] != &body[4] {
		t.Fatal("Blob copied")
	}
	_ = append(u0, "XXXX"...)
	if u1 := d.Blob(); string(u1) != "unit-1" || d.Err() != nil {
		t.Fatalf("append to a blob reached the next field: %q %v", u1, d.Err())
	}
}

func TestCountBoundsAllocations(t *testing.T) {
	body := NewEncoder().U32(3).U64(1).U64(2).U64(3).Bytes()
	if d := NewDecoder(body); d.Count(8) != 3 || d.Err() != nil {
		t.Fatalf("honest count refused: %v", d.Err())
	}
	if d := NewDecoder(body); d.Count(9) != 0 || d.Err() == nil {
		t.Fatal("count of 3 nine-byte items accepted over 24 bytes")
	}
	d := NewDecoder(binary.LittleEndian.AppendUint32(nil, 1<<32-1))
	if d.Count(4) != 0 || d.Err() == nil || !strings.Contains(d.Err().Error(), "beyond body") {
		t.Fatalf("count 2^32-1 over an empty body: %v", d.Err())
	}
	if d.Count(1) != 0 || d.U32() != 0 {
		t.Fatal("the count error did not stick")
	}
	if d := NewDecoder([]byte{1, 0}); d.Count(1) != 0 || d.Err() != io.ErrUnexpectedEOF {
		t.Fatalf("truncated count: %v", d.Err())
	}
	if d := NewDecoder(NewEncoder().U32(0).Bytes()); d.Count(1<<30) != 0 || d.Err() != nil {
		t.Fatalf("empty list: %v", d.Err())
	}
}
