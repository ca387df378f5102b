package rope

import (
	"encoding/binary"
	"fmt"
	"time"

	"mmfs/internal/strand"
	"mmfs/internal/wire"
)

// This file persists the rope registry: a compact little-endian binary
// encoding of every rope's Figure 8 structure, written into the file
// system's metadata region at sync time. Fields are appended with
// binary.LittleEndian.Append* and read back in place through the wire
// codec's cursor (the same fixed-width fields and length-prefixed
// strings); nothing on either side reflects.

const ropeTableMagic = 0x4d4d5254 // "MMRT"

// Smallest encodings of a rope, an interval, a correspondence entry and
// a trigger: what a count read from the table is checked against before
// it sizes an allocation.
const (
	minRopeBytes     = 8 + 4 + 4 + 4 + 4
	minIntervalBytes = 16 + 16 + 8 + 4 + 4
	corrBytes        = 4 + 4
	minTriggerBytes  = 4 + 4 + 4
)

var le = binary.LittleEndian

func appendString(b []byte, s string) []byte {
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

func appendStrings(b []byte, list []string) []byte {
	b = le.AppendUint32(b, uint32(len(list)))
	for _, s := range list {
		b = appendString(b, s)
	}
	return b
}

func getStrings(d *wire.Decoder) []string {
	out := make([]string, d.Count(4))
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

func appendRef(b []byte, ref *ComponentRef) []byte {
	if ref == nil {
		return le.AppendUint64(le.AppendUint64(b, uint64(strand.Nil)), 0)
	}
	return le.AppendUint64(le.AppendUint64(b, uint64(ref.Strand)), ref.StartUnit)
}

func getRef(d *wire.Decoder) *ComponentRef {
	sid, start := strand.ID(d.U64()), d.U64()
	if sid == strand.Nil {
		return nil
	}
	return &ComponentRef{Strand: sid, StartUnit: start}
}

// Marshal appends the serialized rope registry to dst and returns the
// extended slice; Sync passes its metadata scratch buffer.
func (s *Store) Marshal(dst []byte) []byte {
	b := le.AppendUint32(dst, ropeTableMagic)
	b = le.AppendUint64(b, uint64(s.nextID))
	b = le.AppendUint32(b, uint32(len(s.ropes)))
	for _, id := range s.IDs() {
		r := s.ropes[id]
		b = le.AppendUint64(b, uint64(r.ID))
		b = appendString(b, r.Creator)
		b = appendStrings(b, r.PlayAccess)
		b = appendStrings(b, r.EditAccess)
		b = le.AppendUint32(b, uint32(len(r.Intervals)))
		for i := range r.Intervals {
			iv := &r.Intervals[i]
			b = appendRef(b, iv.Video)
			b = appendRef(b, iv.Audio)
			b = le.AppendUint64(b, uint64(iv.Duration))
			b = le.AppendUint32(b, uint32(len(iv.Corr)))
			for _, c := range iv.Corr {
				b = le.AppendUint32(b, c.AudioBlock)
				b = le.AppendUint32(b, c.VideoBlock)
			}
			b = le.AppendUint32(b, uint32(len(iv.Triggers)))
			for _, t := range iv.Triggers {
				b = le.AppendUint32(b, t.VideoBlock)
				b = le.AppendUint32(b, t.AudioBlock)
				b = appendString(b, t.Text)
			}
		}
	}
	return b
}

// Unmarshal restores the rope registry and rebuilds the interests
// table.
func (s *Store) Unmarshal(data []byte) error {
	d := wire.NewDecoder(data)
	if magic := d.U32(); d.Err() == nil && magic != ropeTableMagic {
		return fmt.Errorf("rope: bad table magic %#x", magic)
	}
	next := d.U64()
	count := d.Count(minRopeBytes)
	if d.Err() == nil {
		s.ropes = make(map[ID]*Rope, count)
		s.lastStrands = make(map[ID][]strand.ID, count)
		s.nextID = ID(next)
	}
	for i := 0; i < count; i++ {
		rp := &Rope{ID: ID(d.U64()), Creator: d.Str()}
		rp.PlayAccess = getStrings(d)
		rp.EditAccess = getStrings(d)
		rp.Intervals = make([]Interval, d.Count(minIntervalBytes))
		for j := range rp.Intervals {
			iv := &rp.Intervals[j]
			iv.Video = getRef(d)
			iv.Audio = getRef(d)
			iv.Duration = time.Duration(d.I64())
			iv.Corr = make([]Correspondence, d.Count(corrBytes))
			for k := range iv.Corr {
				iv.Corr[k].AudioBlock = d.U32()
				iv.Corr[k].VideoBlock = d.U32()
			}
			iv.Triggers = make([]Trigger, d.Count(minTriggerBytes))
			for k := range iv.Triggers {
				iv.Triggers[k].VideoBlock = d.U32()
				iv.Triggers[k].AudioBlock = d.U32()
				iv.Triggers[k].Text = d.Str()
			}
		}
		if d.Err() != nil {
			break
		}
		s.ropes[rp.ID] = rp
		s.SyncInterests(rp)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("rope: table: %w", err)
	}
	return nil
}
