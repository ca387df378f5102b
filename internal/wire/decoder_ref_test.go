package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"
)

// refDecoder is the decoder as it was before it decoded in place
// (bytes.Reader + binary.Read, Blob copying): the reference the new one
// is compared against, value for value and error for error.
type refDecoder struct {
	r   *bytes.Reader
	err error
}

func (d *refDecoder) read(v any) {
	if d.err == nil {
		d.err = binary.Read(d.r, binary.LittleEndian, v)
	}
}
func (d *refDecoder) U16() uint16  { var v uint16; d.read(&v); return v }
func (d *refDecoder) U32() uint32  { var v uint32; d.read(&v); return v }
func (d *refDecoder) U64() uint64  { var v uint64; d.read(&v); return v }
func (d *refDecoder) I64() int64   { var v int64; d.read(&v); return v }
func (d *refDecoder) F64() float64 { var v float64; d.read(&v); return v }
func (d *refDecoder) Bool() bool {
	if d.err != nil {
		return false
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.err = err
		return false
	}
	return b != 0
}
func (d *refDecoder) Str() string { return string(d.Blob()) }
func (d *refDecoder) Blob() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if int(n) > d.r.Len() {
		d.err = fmt.Errorf("wire: blob length %d beyond body", n)
		return nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.r, buf); err != nil {
		d.err = err
		return nil
	}
	return buf
}

// sameErr: the io sentinels by identity, anything else by message.
func sameErr(a, b error) bool {
	if a == nil || b == nil || a == io.EOF || b == io.EOF || a == io.ErrUnexpectedEOF || b == io.ErrUnexpectedEOF {
		return a == b
	}
	return a.Error() == b.Error()
}

// decodeBoth drives the accessors script picks (one per byte) over
// body on both decoders and fails at the first difference in a value
// or in the sticky error.
func decodeBoth(t *testing.T, body, script []byte) {
	t.Helper()
	d, ref := NewDecoder(body), &refDecoder{r: bytes.NewReader(body)}
	for step, s := range script {
		var got, want any
		switch s % 8 {
		case 0:
			got, want = d.U16(), ref.U16()
		case 1:
			got, want = d.U32(), ref.U32()
		case 2:
			got, want = d.U64(), ref.U64()
		case 3:
			got, want = d.I64(), ref.I64()
		case 4:
			got, want = math.Float64bits(d.F64()), math.Float64bits(ref.F64())
		case 5:
			got, want = d.Bool(), ref.Bool()
		case 6:
			got, want = d.Str(), ref.Str()
		case 7:
			got, want = hex.EncodeToString(d.Blob()), hex.EncodeToString(ref.Blob())
		}
		if got != want || !sameErr(d.Err(), ref.err) {
			t.Fatalf("step %d (accessor %d) over %d bytes: got %v (%v), reference %v (%v)",
				step, s%8, len(body), got, d.Err(), want, ref.err)
		}
	}
}

// robustnessScript is the accessor order FuzzDecoderRobustness drives:
// Str, U16, Blob, F64, Bool, I64, U32, U64.
var robustnessScript = []byte{6, 0, 7, 4, 5, 3, 1, 2}

// FuzzDecoderMatchesReference checks the in-place decoder against the
// reference over arbitrary bodies and accessor orders: same values,
// same error identities (io.EOF at the end of the body,
// io.ErrUnexpectedEOF inside a field, "blob length … beyond body").
func FuzzDecoderMatchesReference(f *testing.F) {
	// FuzzDecoderRobustness's corpus, under its accessor order.
	f.Add([]byte{}, robustnessScript)
	f.Add([]byte{1, 2, 3}, robustnessScript)
	f.Add(NewEncoder().Str("x").U64(9).Bytes(), robustnessScript)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0}, robustnessScript)
	f.Add(NewEncoder().Blob(nil).Str("").Bool(true).Bytes(), []byte{7, 6, 5, 5})
	f.Fuzz(decodeBoth)
}

// Every prefix of every golden body decodes — or fails — exactly as it
// did: the request and response bodies of all ops, cut at every length,
// under the robustness order and under each accessor repeated.
func TestDecoderErrorIdentitiesUnchanged(t *testing.T) {
	scripts := [][]byte{robustnessScript}
	for a := byte(0); a < 8; a++ {
		scripts = append(scripts, bytes.Repeat([]byte{a}, 6))
	}
	for _, g := range goldenOps {
		for _, enc := range []func(*Encoder){g.req, g.resp} {
			e := NewEncoder()
			enc(e)
			body := e.Bytes()
			for cut := 0; cut <= len(body); cut++ {
				for _, script := range scripts {
					decodeBoth(t, body[:cut], script)
				}
			}
		}
	}
}
