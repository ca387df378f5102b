// Package alloc implements constrained block allocation (§3 of Rangan
// & Vin): media blocks of a strand are placed so that the access time
// between successive blocks stays within the strand's scattering
// bounds, while the gaps between them remain available for other
// strands and for conventional text files ("a common file server can …
// integrate the functions of both a conventional text file server and
// a multimedia file server by … using the gaps between successive
// blocks of a media strand to store text files").
package alloc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// bitmap tracks sector occupancy; a set bit means allocated. Ranges are
// handled a 64-bit word at a time: a media block is a few dozen sectors,
// a table run or a search window hundreds.
type bitmap struct {
	words []uint64
	n     int // number of valid bits
	used  int // number of set bits
}

func newBitmap(n int) *bitmap {
	return &bitmap{words: make([]uint64, (n+63)/64), n: n}
}

func (b *bitmap) get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// span returns the word holding bit lo, the mask of the bits of [lo, hi)
// inside that word, and where the range continues (hi when it ends
// there).
func span(lo, hi int) (w int, mask uint64, next int) {
	w = lo >> 6
	mask = ^uint64(0) << (uint(lo) & 63)
	if next = (w + 1) << 6; next > hi {
		mask &= ^uint64(0) >> (64 - uint(hi)&63)
		next = hi
	}
	return w, mask, next
}

// setRange marks [lo, lo+n) allocated; it panics if any bit is already
// set, catching double allocation early.
func (b *bitmap) setRange(lo, n int) {
	for i, hi := lo, lo+n; i < hi; {
		w, mask, next := span(i, hi)
		if taken := b.words[w] & mask; taken != 0 {
			panic(fmt.Sprintf("alloc: double allocation of sector %d", w<<6+bits.TrailingZeros64(taken)))
		}
		b.words[w] |= mask
		b.used += bits.OnesCount64(mask)
		i = next
	}
}

// clearRange marks [lo, lo+n) free; freeing a free sector panics,
// catching double frees.
func (b *bitmap) clearRange(lo, n int) {
	for i, hi := lo, lo+n; i < hi; {
		w, mask, next := span(i, hi)
		if free := ^b.words[w] & mask; free != 0 {
			panic(fmt.Sprintf("alloc: double free of sector %d", w<<6+bits.TrailingZeros64(free)))
		}
		b.words[w] &^= mask
		b.used -= bits.OnesCount64(mask)
		i = next
	}
}

// next returns the first index in [i, hi) whose bit is set — or, with
// flip all ones, clear — and hi when there is none.
func (b *bitmap) next(i, hi int, flip uint64) int {
	for i < hi {
		if w := (b.words[i>>6] ^ flip) >> (uint(i) & 63); w != 0 {
			return min(i+bits.TrailingZeros64(w), hi)
		}
		i = (i | 63) + 1
	}
	return hi
}

// findRun returns the first index of a free run of length n within
// [lo, hi), or -1.
func (b *bitmap) findRun(lo, hi, n int) int {
	if hi > b.n {
		hi = b.n
	}
	if n < 1 {
		return -1
	}
	for start := b.next(lo, hi, ^uint64(0)); start+n <= hi; {
		taken := b.next(start, start+n, 0)
		if taken == start+n {
			return start
		}
		start = b.next(taken, hi, ^uint64(0))
	}
	return -1
}

// marshal appends the bitmap's words to dst as little-endian bytes.
func (b *bitmap) marshal(dst []byte) []byte {
	off := len(dst)
	dst = slices.Grow(dst, len(b.words)*8)[:off+len(b.words)*8]
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(dst[off+i*8:], w)
	}
	return dst
}

// unmarshal restores the bitmap from marshal's output, recounting the
// used bits (those below n).
func (b *bitmap) unmarshal(data []byte) error {
	if len(data) < len(b.words)*8 {
		return fmt.Errorf("alloc: bitmap data %d bytes, need %d", len(data), len(b.words)*8)
	}
	b.used = 0
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(data[i*8:])
		b.used += bits.OnesCount64(b.words[i])
	}
	if tail := uint(b.n) & 63; tail != 0 {
		b.used -= bits.OnesCount64(b.words[len(b.words)-1] >> tail)
	}
	return nil
}
