package bitvec

// Word-packed views of bit vectors. A Vector stores one byte per element
// for ergonomic slicing (the paper's notation is all about contiguous
// sub-blocks), but counting and bulk transport are word operations:
// PackWords packs vectors into words, and PopCountWords counts ones 64
// elements per machine instruction via math/bits.OnesCount64 instead of
// summing bits one at a time.

import (
	"fmt"
	"math/bits"
)

// WordsPer returns the number of uint64 words that hold one n-bit vector
// in packed form: ceil(n/64).
func WordsPer(n int) int { return (n + 63) / 64 }

// appendWords packs v into dst (little-endian within each word: element i
// lands in bit i%64 of word i/64) and returns the extended slice.
func appendWords(dst []uint64, v Vector) []uint64 {
	var w uint64
	for i, b := range v {
		w |= uint64(b&1) << uint(i%64)
		if i%64 == 63 {
			dst = append(dst, w)
			w = 0
		}
	}
	if len(v)%64 != 0 {
		dst = append(dst, w)
	}
	return dst
}

// PackWords packs equal-length vectors into a flat []uint64, WordsPer(n)
// words per vector in order. Panics if lengths differ.
func PackWords(vs []Vector) []uint64 {
	if len(vs) == 0 {
		return nil
	}
	n := len(vs[0])
	out := make([]uint64, 0, len(vs)*WordsPer(n))
	for i, v := range vs {
		if len(v) != n {
			panic(fmt.Sprintf("bitvec: PackWords vector %d has length %d, want %d", i, len(v), n))
		}
		out = appendWords(out, v)
	}
	return out
}

// PopCountWords sums the ones of an already-packed word slice.
func PopCountWords(words []uint64) int {
	total := 0
	for _, w := range words {
		total += bits.OnesCount64(w)
	}
	return total
}
