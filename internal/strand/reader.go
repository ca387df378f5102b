package strand

import (
	"encoding/binary"
	"fmt"
	"time"

	"mmfs/internal/disk"
	"mmfs/internal/layout"
)

// SilenceFill is the payload byte used to reconstruct eliminated
// silent blocks at playback: the 8-bit audio midpoint for audio, zero
// for video (video strands never contain silence holders in practice).
func SilenceFill(m layout.Medium) byte {
	if m == layout.Audio {
		return 128
	}
	return 0
}

// Reader retrieves a strand's media blocks from disk. Timed reads are
// the continuity-bearing path used by the storage manager's service
// rounds; the untimed views (VisitUnits, BlockView) serve FETCH and
// editing.
type Reader struct {
	s *Strand
	d disk.Device
}

// NewReader creates a reader over the strand.
func NewReader(d disk.Device, s *Strand) *Reader { return &Reader{s: s, d: d} }

// Strand returns the strand being read.
func (r *Reader) Strand() *Strand { return r.s }

// ReadBlockInto performs the timed read of media block i by head h,
// returning the block payload (trimmed to the real unit count for the
// final partial block), the disk service time, and whether the block
// was a silence holder (service time zero — a delay holder consumes
// playback time but no disk time). On a disk error the returned t is
// the service time the failed access still cost; the storage manager
// charges it against the round before retrying.
//
// It allocates nothing and, almost always, copies nothing: it is a run
// of one (ReadRun), so the returned slice aliases either the device's
// own store or, when the block cannot be lent (it crosses a cylinder or
// stripe group, or is a regenerated silence holder), *buf — grown to
// the block's full sector span.
// The slice is trimmed to the payload, is read-only, has cap == len,
// and is valid until the next write to the device or the next call
// with the same buf; a caller that must keep bytes that arrived in *buf
// copies them (cache.Put does). Strands are immutable, so a lent block
// (disk.Lent tells) cannot change while its strand's sectors are neither freed
// (Store.Remove) nor relocated by the device, and may be retained that
// long (cache.PutView does).
//
// rt:hotpath
func (r *Reader) ReadBlockInto(h, i int, buf *[]byte) (data []byte, t time.Duration, silent bool, err error) {
	e, err := r.s.Block(i)
	if err != nil {
		return nil, 0, false, err
	}
	if e.Silent() {
		n := r.blockPayloadBytes(i)
		r.fillSilence(sized(buf, n))
		return (*buf)[:n:n], 0, true, nil
	}
	run, t, err := r.ReadRun(h, i, 1, buf)
	if err != nil {
		return nil, t, false, err
	}
	return r.Payload(run, i), t, false, nil
}

// ReadRun performs the timed read of the n media blocks from block i
// on, which the caller has found stored back to back (each block's first
// sector follows its predecessor's last), as ONE access by head h: one
// positioning, then the transfer of every sector of the run — the
// amortisation FFS's chunking buys (seeks traded for throughput). A run
// of more than one block must lie inside one cylinder: the device lends
// it whole, and *buf is neither grown for it nor touched (scratch sized
// to a run would be a run's worth of zeroed memory for every new
// buffer). A run of one is ReadBlockInto's read: lent when it can be,
// else filled into *buf, grown to the block's sector span. The lending
// rules are ReadBlockInto's, and Payload trims each block's sectors in
// the result to its payload. On a disk error run is nil and t is what
// the failed access cost.
//
// rt:hotpath
func (r *Reader) ReadRun(h, i, n int, buf *[]byte) (run []byte, t time.Duration, err error) {
	first, err := r.s.Block(i)
	if err != nil {
		return nil, 0, err
	}
	last, err := r.s.Block(i + n - 1)
	if err != nil {
		return nil, 0, err
	}
	sectors := int(last.Sector) + int(last.SectorCount) - int(first.Sector)
	scratch := *buf
	if n == 1 {
		scratch = sized(buf, sectors*r.d.Geometry().SectorSize)
	}
	return r.d.ReadView(h, int(first.Sector), sectors, scratch)
}

// Payload trims block j's sector span, as a timed read returned it (a
// run's bytes sliced at the block's sectors), to the block's payload:
// the real unit count, or — for a variable-rate block, which is
// self-describing — the whole span. Read-only, cap == len.
//
// rt:hotpath
func (r *Reader) Payload(raw []byte, j int) []byte {
	n := len(raw)
	if !r.s.Variable() {
		n = r.blockPayloadBytes(j)
	}
	return raw[:n:n]
}

// PeekBlockTime reports the service time head h would pay to read
// block i from its current position, without moving the head. Silence
// holders cost zero.
func (r *Reader) PeekBlockTime(h, i int) (time.Duration, error) {
	e, err := r.s.Block(i)
	if err != nil {
		return 0, err
	}
	if e.Silent() {
		return 0, nil
	}
	return r.d.PeekServiceTime(h, int(e.Sector), int(e.SectorCount)), nil
}

// blockPayloadBytes is the number of meaningful bytes in block i: a
// full block for all but a trailing partial block.
func (r *Reader) blockPayloadBytes(i int) int {
	q := uint64(r.s.Granularity())
	full := q * uint64(i)
	remaining := r.s.UnitCount() - full
	if remaining > q {
		remaining = q
	}
	return int(remaining) * r.s.UnitBytes()
}

// VisitUnits calls fn with the payload of each of units [start,
// start+n) in order, untimed: the one traversal behind every range
// read, fetching each media block once however many of its units are
// wanted. Units are lent, under ReadBlockInto's rules: each aliases the
// device's own store or, when the block cannot be lent (it crosses a
// cylinder or stripe group, or is an eliminated silence holder), *buf,
// grown to fit — is read-only, has cap == len,
// and is valid only until fn returns. A caller that must keep a unit
// copies it (core.FS.FetchUnits does); fn's error stops the walk and is
// returned as is.
func (r *Reader) VisitUnits(start, n uint64, buf *[]byte, fn func(unit []byte) error) error {
	if n == 0 {
		return nil
	}
	if _, _, err := r.s.UnitRange(start + n - 1); err != nil {
		return err
	}
	q, ub := uint64(r.s.Granularity()), r.s.UnitBytes()
	ss := r.d.Geometry().SectorSize
	for u, end := start, start+n; u < end; {
		off, cnt := int(u%q), int(min(q-u%q, end-u)) // the block's units [off, off+cnt)
		e, err := r.s.Block(int(u / q))
		if err != nil {
			return err
		}
		if e.Silent() {
			r.fillSilence(sized(buf, ub))
			for i := 0; i < cnt; i++ {
				if err := fn((*buf)[:ub:ub]); err != nil {
					return err
				}
			}
			u += uint64(cnt)
			continue
		}
		raw, err := r.d.ViewAt(int(e.Sector), int(e.SectorCount), sized(buf, int(e.SectorCount)*ss))
		if err != nil {
			return err
		}
		if r.s.Variable() {
			for i, o := 0, 0; i < off+cnt; i++ {
				var unit []byte
				if unit, o, err = variableUnitAt(raw, o, r.s.ID(), u-uint64(off)+uint64(i)); err != nil {
					return err
				}
				if i >= off {
					if err := fn(unit); err != nil {
						return err
					}
				}
			}
		} else {
			if (off+cnt)*ub > len(raw) {
				return fmt.Errorf("strand %d: unit %d beyond block payload", r.s.ID(), u+uint64(cnt)-1)
			}
			for lo := off * ub; lo < (off+cnt)*ub; lo += ub {
				if err := fn(raw[lo : lo+ub : lo+ub]); err != nil {
					return err
				}
			}
		}
		u += uint64(cnt)
	}
	return nil
}

// fillSilence fills b with the strand medium's silence byte.
func (r *Reader) fillSilence(b []byte) {
	fill := SilenceFill(r.s.Medium())
	for j := range b {
		b[j] = fill
	}
}

// sized makes *buf n bytes long, contents unspecified, with a new
// backing array only when the one it has is too small.
func sized(buf *[]byte, n int) []byte {
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// variableUnitAt decodes the length-prefixed unit at byte offset o of
// a variable-rate block, returning it (capacity clipped) and the
// offset of the next one; u names the unit in errors.
func variableUnitAt(raw []byte, o int, id ID, u uint64) (unit []byte, next int, err error) {
	if o+4 > len(raw) {
		return nil, 0, fmt.Errorf("strand %d: unit %d beyond variable block payload", id, u)
	}
	n := int(binary.LittleEndian.Uint32(raw[o:]))
	o += 4
	if o+n > len(raw) {
		return nil, 0, fmt.Errorf("strand %d: corrupt variable block (unit %d claims %d bytes)", id, u, n)
	}
	return raw[o : o+n : o+n], o + n, nil
}

// BlockView lends the full payload of block i untimed (silent reports an
// eliminated silence holder, which has none): the payload aliases the
// device's own store or, when the block cannot be lent, *buf, grown to
// fit. A caller that must keep it past that copies it
// (reorganization does: it frees the source before re-placing). It is read-only, has cap == len, and is
// valid until the next call with the same buf or the next write to the
// device that overlaps the block's run; it may therefore be handed to
// WriteAt only for a run allocated after the view was taken, which
// cannot overlap a block that is still allocated.
func (r *Reader) BlockView(i int, buf *[]byte) ([]byte, bool, error) {
	e, err := r.s.Block(i)
	if err != nil {
		return nil, false, err
	}
	if e.Silent() {
		return nil, true, nil
	}
	n := int(e.SectorCount)
	raw, err := r.d.ViewAt(int(e.Sector), n, sized(buf, n*r.d.Geometry().SectorSize))
	if err != nil {
		return nil, false, err
	}
	return raw, false, nil
}
