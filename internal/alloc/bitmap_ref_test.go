package alloc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// refBitmap is the bitmap as it was while it worked a bit at a time: the
// reference the word-wise one is compared against — same runs found, same
// panics, same marshalled bytes.
type refBitmap struct {
	words []uint64
	n     int
	used  int
}

func newRefBitmap(n int) *refBitmap {
	return &refBitmap{words: make([]uint64, (n+63)/64), n: n}
}

func (b *refBitmap) get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b *refBitmap) setRange(lo, n int) {
	for i := lo; i < lo+n; i++ {
		if b.get(i) {
			panic(fmt.Sprintf("alloc: double allocation of sector %d", i))
		}
		b.words[i>>6] |= 1 << (uint(i) & 63)
		b.used++
	}
}

func (b *refBitmap) clearRange(lo, n int) {
	for i := lo; i < lo+n; i++ {
		if !b.get(i) {
			panic(fmt.Sprintf("alloc: double free of sector %d", i))
		}
		b.words[i>>6] &^= 1 << (uint(i) & 63)
		b.used--
	}
}

func (b *refBitmap) findRun(lo, hi, n int) int {
	if hi > b.n {
		hi = b.n
	}
	run := 0
	for i := lo; i < hi; i++ {
		if b.get(i) {
			run = 0
			continue
		}
		run++
		if run == n {
			return i - n + 1
		}
	}
	return -1
}

func (b *refBitmap) marshal() []byte {
	out := make([]byte, len(b.words)*8)
	for i, w := range b.words {
		for j := 0; j < 8; j++ {
			out[i*8+j] = byte(w >> (8 * j))
		}
	}
	return out
}

// panicOf runs fn and returns what it panicked with ("" when it did not).
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestBitmapMatchesReference drives both bitmaps through the same random
// set / clear / find / probe sequences — on sizes that end inside a word,
// on a word boundary and inside the first word, with ranges that start,
// end and lie inside words — and requires the same answer at every step.
// A range that panics (a double allocation or a double free, one
// operation in eight asks for it) must panic with the same sector; it
// leaves the two half-applied at different points, so both are rebuilt
// from the reference's last good state.
func TestBitmapMatchesReference(t *testing.T) {
	for _, size := range []int{1, 63, 64, 130, 1000, 4096} {
		rng := rand.New(rand.NewSource(int64(size)))
		ref, bm := newRefBitmap(size), newBitmap(size)
		var held [][2]int // ranges set and not yet cleared
		for step := 0; step < 4000; step++ {
			lo := rng.Intn(size)
			n := 1 + rng.Intn(min(size-lo, 1+rng.Intn(200)))
			switch op := rng.Intn(8); {
			case op < 3: // allocate where the reference finds room, as the allocator does
				hi := lo + rng.Intn(size-lo+1) + n
				want, got := ref.findRun(lo, hi, n), bm.findRun(lo, hi, n)
				if got != want {
					t.Fatalf("size %d step %d: findRun(%d,%d,%d) = %d, reference %d", size, step, lo, hi, n, got, want)
				}
				if want >= 0 {
					ref.setRange(want, n)
					bm.setRange(want, n)
					held = append(held, [2]int{want, n})
				}
			case op < 5 && len(held) > 0: // free a held range
				i := rng.Intn(len(held))
				r := held[i]
				held = append(held[:i], held[i+1:]...)
				ref.clearRange(r[0], r[1])
				bm.clearRange(r[0], r[1])
			case op == 5: // probe: is exactly [lo, lo+n) free?
				if got, want := bm.findRun(lo, lo+n, n), ref.findRun(lo, lo+n, n); got != want {
					t.Fatalf("size %d step %d: findRun(%d,%d,%d) = %d, reference %d", size, step, lo, lo+n, n, got, want)
				}
			default: // an arbitrary range: usually a double allocation or a double free
				snap := append([]uint64(nil), ref.words...)
				used := ref.used
				set := op == 6
				var want, got string
				if set {
					want, got = panicOf(func() { ref.setRange(lo, n) }), panicOf(func() { bm.setRange(lo, n) })
				} else {
					want, got = panicOf(func() { ref.clearRange(lo, n) }), panicOf(func() { bm.clearRange(lo, n) })
				}
				if got != want {
					t.Fatalf("size %d step %d: range [%d,%d) set=%v panicked %q, reference %q", size, step, lo, lo+n, set, got, want)
				}
				if want != "" || !set {
					// Undo: a panic leaves the two half-applied, and a
					// successful arbitrary clear would orphan held ranges.
					copy(ref.words, snap)
					ref.used = used
					copy(bm.words, snap)
					bm.used = used
				} else {
					held = append(held, [2]int{lo, n})
				}
			}
			if bm.used != ref.used {
				t.Fatalf("size %d step %d: %d bits used, reference %d", size, step, bm.used, ref.used)
			}
		}
		img := bm.marshal([]byte("head"))
		if !bytes.Equal(img[4:], ref.marshal()) || string(img[:4]) != "head" {
			t.Fatalf("size %d: marshalled bitmaps differ", size)
		}
		back := newBitmap(size)
		if err := back.unmarshal(img[4:]); err != nil {
			t.Fatal(err)
		}
		if back.used != ref.used || !bytes.Equal(back.marshal(nil), img[4:]) {
			t.Fatalf("size %d: unmarshal restored %d used bits, want %d", size, back.used, ref.used)
		}
		// Bits past n in the last word (a corrupt image) are not counted.
		if size%64 != 0 {
			img[len(img)-1] |= 0x80
			if err := back.unmarshal(img[4:]); err != nil || back.used != ref.used {
				t.Fatalf("size %d: stray high bit counted: used %d, want %d (%v)", size, back.used, ref.used, err)
			}
		}
	}
}
