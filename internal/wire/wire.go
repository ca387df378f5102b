// Package wire defines the RPC protocol between the Multimedia Rope
// Server (the device-independent layer clients link against via the
// rope stub library) and the file system, mirroring the paper's
// prototype in which "applications are compiled with a rope stub
// library which uses remote procedure calls to contact the MRS"
// (§5.2). The original ran over TCP/IP sockets between SPARCstations
// and PC-ATs; this implementation speaks a length-prefixed binary
// framing over any net.Conn.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Op identifies a request type.
type Op uint16

// Protocol operations (§4.1's interface plus housekeeping).
const (
	OpRecordStart Op = iota + 1
	OpRecordAppend
	OpRecordFinish
	OpPlay
	OpFetch
	OpInsert
	OpReplace
	OpSubstring
	OpConcate
	OpDeleteRange
	OpDeleteRope
	OpRopeInfo
	OpListRopes
	OpStats
	OpTextWrite
	OpTextRead
	OpTextList
	OpSetAccess
	OpCheck
	OpAddTrigger
	OpTriggers
	OpFlatten
	OpMetrics
	OpRebuild
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpRecordStart:
		return "RecordStart"
	case OpRecordAppend:
		return "RecordAppend"
	case OpRecordFinish:
		return "RecordFinish"
	case OpPlay:
		return "Play"
	case OpFetch:
		return "Fetch"
	case OpInsert:
		return "Insert"
	case OpReplace:
		return "Replace"
	case OpSubstring:
		return "Substring"
	case OpConcate:
		return "Concate"
	case OpDeleteRange:
		return "DeleteRange"
	case OpDeleteRope:
		return "DeleteRope"
	case OpRopeInfo:
		return "RopeInfo"
	case OpListRopes:
		return "ListRopes"
	case OpStats:
		return "Stats"
	case OpTextWrite:
		return "TextWrite"
	case OpTextRead:
		return "TextRead"
	case OpTextList:
		return "TextList"
	case OpSetAccess:
		return "SetAccess"
	case OpCheck:
		return "Check"
	case OpAddTrigger:
		return "AddTrigger"
	case OpTriggers:
		return "Triggers"
	case OpFlatten:
		return "Flatten"
	case OpMetrics:
		return "Metrics"
	case OpRebuild:
		return "Rebuild"
	}
	return fmt.Sprintf("Op(%d)", uint16(o))
}

// maxFrame bounds a frame so a corrupt length prefix cannot force a
// huge allocation.
const maxFrame = 256 << 20

// MaxBody is the largest request or response body a frame can carry:
// the frame limit less the op/status code.
const MaxBody = maxFrame - 2

// WriteFrame sends one length-prefixed frame. Requests and replies
// leave through Encoder.Frame instead, which needs one Write and no
// copy; this remains for payloads assembled elsewhere.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame receives one length-prefixed frame. The frame is a fresh
// buffer the caller owns; a Decoder over it hands out views (see
// Decoder.Blob), so it is never recycled.
func ReadFrame(r io.Reader) ([]byte, error) { return ReadFrameInto(r, nil) }

// ReadFrameInto is ReadFrame into buf's capacity when the frame fits it
// (and into a fresh buffer when it does not), for the one caller that
// may recycle a frame: one that copies what it keeps out of the frame
// before it reads the next into the same buffer.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if uint64(cap(buf)) < uint64(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// headroom is the room an Encoder keeps in front of the body for the
// frame header: the 4-byte length prefix and the 2-byte op or status.
const headroom = 6

// Encoder builds a request or response body by appending to one byte
// slice, and frames it in place: the body sits behind headroom spare
// bytes, so Frame writes the header there and the whole frame leaves
// in a single Write, never copied. Make one with NewEncoder.
type Encoder struct {
	buf []byte // headroom, then the body
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder { return &Encoder{buf: make([]byte, headroom, 64)} }

// Reset empties the encoder for reuse, keeping its buffer capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:headroom] }

// encPool recycles encoders; a channel free list keeps this
// dependency-free and safe for concurrent use. The bound caps idle
// memory, not concurrency: when the pool is empty, GetEncoder simply
// allocates. No request or reply path draws on it (a connection owns
// its reply encoder, a call its request encoder).
var encPool = make(chan *Encoder, 16)

// GetEncoder returns an empty encoder from the pool, or a new one.
func GetEncoder() *Encoder {
	select {
	case e := <-encPool:
		e.Reset()
		return e
	default:
		return NewEncoder()
	}
}

// PutEncoder returns an encoder to the pool for reuse. The caller must
// not retain the encoder or any slice returned by Bytes or Frame
// afterwards.
func PutEncoder(e *Encoder) {
	if e == nil {
		return
	}
	select {
	case encPool <- e:
	default:
	}
}

// Bytes returns the encoded body. It aliases the encoder's buffer:
// valid until the next append or Reset.
func (e *Encoder) Bytes() []byte { return e.buf[headroom:] }

// Len reports the body's length so far.
func (e *Encoder) Len() int { return len(e.buf) - headroom }

// Cap reports the capacity of the encoder's buffer, the memory a
// reused encoder retains.
func (e *Encoder) Cap() int { return cap(e.buf) }

// Grow makes room for n more body bytes, so a body of known size is
// built with one allocation.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Frame finishes the body as one wire frame, in place: the length
// prefix and code (a request's op, a response's status) go into the
// headroom and the returned slice — header and body, aliasing the
// encoder's buffer until its next append or Reset — is what a single
// Write puts on the wire. The body is unchanged, so a frame can be cut
// again (a retry, an error replacing a reply).
func (e *Encoder) Frame(code uint16) ([]byte, error) {
	if e.Len() > MaxBody {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", 2+e.Len())
	}
	return e.frame(code), nil
}

// frame writes the header in front of a body known to fit.
func (e *Encoder) frame(code uint16) []byte {
	binary.LittleEndian.PutUint32(e.buf, uint32(2+e.Len()))
	binary.LittleEndian.PutUint16(e.buf[4:], code)
	return e.buf
}

// maxErrorMessage truncates an error response's message: errors quote
// request fields, and a reply must fit a frame whatever the request
// said.
const maxErrorMessage = 64 << 10

// FrameError replaces whatever the encoder holds with an error
// response frame for err (ErrResponse, framed in place like Frame).
func (e *Encoder) FrameError(err error) []byte {
	msg := err.Error()
	if len(msg) > maxErrorMessage {
		msg = msg[:maxErrorMessage]
	}
	e.Reset()
	return e.Str(msg).frame(StatusErr)
}

// U16 appends a uint16.
func (e *Encoder) U16(v uint16) *Encoder {
	e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	return e
}

// U32 appends a uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	return e
}

// SetU32 overwrites the uint32 appended at body offset at: a count
// written before its items were, patched once they are known.
func (e *Encoder) SetU32(at int, v uint32) {
	binary.LittleEndian.PutUint32(e.buf[headroom+at:], v)
}

// U64 appends a uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	return e
}

// I64 appends an int64 (durations in nanoseconds).
func (e *Encoder) I64(v int64) *Encoder { return e.U64(uint64(v)) }

// F64 appends a float64.
func (e *Encoder) F64(v float64) *Encoder { return e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) *Encoder {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
	return e
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) *Encoder {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	return e
}

// Blob appends a length-prefixed byte slice.
func (e *Encoder) Blob(b []byte) *Encoder {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// Decoder parses a request or response body in place; the first decode
// error sticks and subsequent calls return zero values.
type Decoder struct {
	b   []byte // the undecoded rest of the body
	err error
}

// NewDecoder wraps a body.
func NewDecoder(body []byte) *Decoder { return &Decoder{b: body} }

// Err reports the first decode error.
func (d *Decoder) Err() error { return d.err }

// take consumes the next n bytes. Running out is io.EOF at the end of
// the body and io.ErrUnexpectedEOF inside a field.
func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.err = io.ErrUnexpectedEOF
		if len(d.b) == 0 {
			d.err = io.EOF
		}
		d.b = nil
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// U16 reads a uint16.
func (d *Decoder) U16() uint16 {
	if v := d.take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	if v := d.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	if v := d.take(8); v != nil {
		return binary.LittleEndian.Uint64(v)
	}
	return 0
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// F64 reads a float64.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a bool.
func (d *Decoder) Bool() bool {
	v := d.take(1)
	return v != nil && v[0] != 0
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Blob()) }

// Blob reads a length-prefixed byte slice. The result is a view of the
// body, not a copy: read-only for anyone who shares the body, with
// cap == len so an append cannot reach the next field, and valid as
// long as the frame the body came from — which is why frames are never
// recycled (see ReadFrame).
func (d *Decoder) Blob() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(d.b)) {
		d.err = fmt.Errorf("wire: blob length %d beyond body", n)
		return nil
	}
	return d.take(int(n))
}

// Count reads the uint32 length of a list whose items each occupy at
// least minItemBytes of body, for a caller about to size an allocation
// by it: a count the rest of the body could not hold is a decode error
// (and reads as 0) instead of an allocation of the sender's choosing.
func (d *Decoder) Count(minItemBytes int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(minItemBytes) > uint64(len(d.b)) {
		d.err = fmt.Errorf("wire: count %d beyond body", n)
		return 0
	}
	return int(n)
}

// Request assembles an op + body into a frame payload.
func Request(op Op, body []byte) []byte {
	out := make([]byte, 2+len(body))
	binary.LittleEndian.PutUint16(out, uint16(op))
	copy(out[2:], body)
	return out
}

// ParseRequest splits a frame payload into op + body.
func ParseRequest(frame []byte) (Op, []byte, error) {
	if len(frame) < 2 {
		return 0, nil, fmt.Errorf("wire: request frame of %d bytes", len(frame))
	}
	return Op(binary.LittleEndian.Uint16(frame)), frame[2:], nil
}

// Response status codes.
const (
	StatusOK  uint16 = 0
	StatusErr uint16 = 1
)

// OKResponse frames a successful response body.
func OKResponse(body []byte) []byte {
	out := make([]byte, 2+len(body))
	binary.LittleEndian.PutUint16(out, StatusOK)
	copy(out[2:], body)
	return out
}

// ErrResponse frames an error response.
func ErrResponse(err error) []byte {
	msg := err.Error()
	out := make([]byte, 2+4+len(msg))
	binary.LittleEndian.PutUint16(out, StatusErr)
	binary.LittleEndian.PutUint32(out[2:], uint32(len(msg)))
	copy(out[6:], msg)
	return out
}

// ParseResponse splits a response frame into body or error.
func ParseResponse(frame []byte) ([]byte, error) {
	if len(frame) < 2 {
		return nil, fmt.Errorf("wire: response frame of %d bytes", len(frame))
	}
	status := binary.LittleEndian.Uint16(frame)
	if status == StatusOK {
		return frame[2:], nil
	}
	d := NewDecoder(frame[2:])
	msg := d.Str()
	if d.Err() != nil {
		return nil, fmt.Errorf("wire: malformed error response")
	}
	return nil, fmt.Errorf("mmfs server: %s", msg)
}
