package rope

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"mmfs/internal/gc"
	"mmfs/internal/strand"
)

// refMarshal is the rope table encoder as it was while it reflected
// (bytes.Buffer + binary.Write per field): the reference the appending
// encoder is compared against, byte for byte.
func refMarshal(s *Store) []byte {
	var w bytes.Buffer
	putString := func(s string) {
		binary.Write(&w, binary.LittleEndian, uint32(len(s)))
		w.WriteString(s)
	}
	putStrings := func(list []string) {
		binary.Write(&w, binary.LittleEndian, uint32(len(list)))
		for _, s := range list {
			putString(s)
		}
	}
	putRef := func(ref *ComponentRef) {
		if ref == nil {
			binary.Write(&w, binary.LittleEndian, uint64(strand.Nil))
			binary.Write(&w, binary.LittleEndian, uint64(0))
			return
		}
		binary.Write(&w, binary.LittleEndian, uint64(ref.Strand))
		binary.Write(&w, binary.LittleEndian, ref.StartUnit)
	}
	binary.Write(&w, binary.LittleEndian, uint32(ropeTableMagic))
	binary.Write(&w, binary.LittleEndian, uint64(s.nextID))
	binary.Write(&w, binary.LittleEndian, uint32(len(s.ropes)))
	for _, id := range s.IDs() {
		r := s.ropes[id]
		binary.Write(&w, binary.LittleEndian, uint64(r.ID))
		putString(r.Creator)
		putStrings(r.PlayAccess)
		putStrings(r.EditAccess)
		binary.Write(&w, binary.LittleEndian, uint32(len(r.Intervals)))
		for _, iv := range r.Intervals {
			putRef(iv.Video)
			putRef(iv.Audio)
			binary.Write(&w, binary.LittleEndian, int64(iv.Duration))
			binary.Write(&w, binary.LittleEndian, uint32(len(iv.Corr)))
			for _, c := range iv.Corr {
				binary.Write(&w, binary.LittleEndian, c.AudioBlock)
				binary.Write(&w, binary.LittleEndian, c.VideoBlock)
			}
			binary.Write(&w, binary.LittleEndian, uint32(len(iv.Triggers)))
			for _, t := range iv.Triggers {
				binary.Write(&w, binary.LittleEndian, t.VideoBlock)
				binary.Write(&w, binary.LittleEndian, t.AudioBlock)
				putString(t.Text)
			}
		}
	}
	return w.Bytes()
}

// storeFromBytes draws a rope registry — up to three ropes of up to five
// intervals, every optional field present or absent — from the fuzzer's
// bytes. Exhausted input reads as zeros.
func storeFromBytes(in []byte) *Store {
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		b := in[0]
		in = in[1:]
		return b
	}
	str := func() string {
		b := make([]byte, next()%6)
		for i := range b {
			b[i] = next()
		}
		return string(b)
	}
	strs := func() []string {
		var out []string
		for n := next() % 3; n > 0; n-- {
			out = append(out, str())
		}
		return out
	}
	ref := func() *ComponentRef {
		if next()%4 == 0 {
			return nil
		}
		return &ComponentRef{Strand: strand.ID(next()) + 1, StartUnit: uint64(next())<<8 | uint64(next())}
	}
	s := NewStore(nil, gc.New())
	for n := next() % 4; n > 0; n-- {
		r := s.Create(str())
		r.PlayAccess, r.EditAccess = strs(), strs()
		for m := next() % 6; m > 0; m-- {
			iv := Interval{Video: ref(), Audio: ref(), Duration: time.Duration(next()) * 33 * time.Millisecond}
			for c := next() % 3; c > 0; c-- {
				iv.Corr = append(iv.Corr, Correspondence{AudioBlock: uint32(next()), VideoBlock: uint32(next())})
			}
			for c := next() % 3; c > 0; c-- {
				iv.Triggers = append(iv.Triggers, Trigger{VideoBlock: uint32(next()), AudioBlock: uint32(next()), Text: str()})
			}
			r.Intervals = append(r.Intervals, iv)
		}
		s.SyncInterests(r)
	}
	s.nextID += ID(next())
	return s
}

// FuzzRopeTableMatchesReference checks the appending encoder against the
// reflecting one over arbitrary registries — so a table the parent wrote
// and a table this tree writes are the same bytes, and each opens under
// the other — and the in-place decoder against both: the table decodes
// back to a registry that encodes identically, every strict prefix of it
// is rejected, and a corrupted one never panics.
func FuzzRopeTableMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add([]byte{1, 3, 'a', 'b', 'c', 1, 2, 'x', 'y', 0, 2, 1, 7, 0, 9, 0, 30, 1, 4, 5, 1, 6, 7, 0}, uint16(20), byte(0xff))
	f.Add(bytes.Repeat([]byte{3, 5, 1, 2}, 40), uint16(77), byte(1))
	f.Fuzz(func(t *testing.T, in []byte, cut uint16, flip byte) {
		s := storeFromBytes(in)
		want := refMarshal(s)
		if got := s.Marshal(nil); !bytes.Equal(got, want) {
			t.Fatalf("encoders differ:\n got %x\nwant %x", got, want)
		}
		if got := s.Marshal([]byte("head")); !bytes.Equal(got, append([]byte("head"), want...)) {
			t.Fatalf("Marshal does not append to its destination")
		}
		back := NewStore(nil, gc.New())
		if err := back.Unmarshal(want); err != nil {
			t.Fatalf("own table rejected: %v", err)
		}
		if got := back.Marshal(nil); !bytes.Equal(got, want) {
			t.Fatalf("decode + encode changed the table:\n got %x\nwant %x", got, want)
		}
		if err := back.interests.Audit(truthOf(back)); err != nil {
			t.Fatalf("interests after Unmarshal: %v", err)
		}
		if n := int(cut) % len(want); NewStore(nil, gc.New()).Unmarshal(want[:n]) == nil {
			t.Fatalf("table cut at %d of %d bytes accepted", n, len(want))
		}
		bad := bytes.Clone(want)
		bad[int(cut)%len(bad)] ^= flip | 1
		_ = NewStore(nil, gc.New()).Unmarshal(bad) // either outcome; must not panic or over-allocate
	})
}

func truthOf(s *Store) map[uint64][]strand.ID {
	truth := make(map[uint64][]strand.ID)
	for id, r := range s.ropes {
		truth[uint64(id)] = r.Strands()
	}
	return truth
}
