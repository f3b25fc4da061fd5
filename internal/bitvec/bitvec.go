// Package bitvec implements the compact bit vector used by every
// unary-encoding LDP mechanism in this repository (SUE, OUE, validity
// perturbation, correlated perturbation and the bucketed top-k reports).
//
// A Vector is a fixed-length sequence of bits backed by []uint64 words.
// The zero value of Vector is an empty vector; use New to allocate one of a
// given length.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a fixed-length bit vector.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Set sets bit i to 1.
func (v *Vector) Set(i int) {
	v.check(i)
	v.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear sets bit i to 0.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Flip toggles bit i.
func (v *Vector) Flip(i int) {
	v.check(i)
	v.words[i>>6] ^= 1 << (uint(i) & 63)
}

// Get reports whether bit i is 1.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// SetBool sets bit i to b.
func (v *Vector) SetBool(i int, b bool) {
	if b {
		v.Set(i)
	} else {
		v.Clear(i)
	}
}

// OnesCount returns the number of 1 bits.
func (v *Vector) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset zeroes all bits in place.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	c := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// Equal reports whether v and o have identical length and bits.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// ForEachSet calls fn for every set bit index, in increasing order.
func (v *Vector) ForEachSet(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi<<6 + b)
			w &= w - 1
		}
	}
}

// Ones returns the indices of all set bits in increasing order.
func (v *Vector) Ones() []int {
	out := make([]int, 0, v.OnesCount())
	v.ForEachSet(func(i int) { out = append(out, i) })
	return out
}

// String renders the vector as a 0/1 string, bit 0 first, for debugging.
func (v *Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// AddInto adds each bit of v (as 0/1) into counts. counts must have length
// v.Len(); it panics otherwise. This is the hot path of unary-encoding
// aggregation: the word loop touches only set bits.
func (v *Vector) AddInto(counts []int64) {
	if len(counts) != v.n {
		panic(fmt.Sprintf("bitvec: AddInto length mismatch %d != %d", len(counts), v.n))
	}
	v.ForEachSet(func(i int) { counts[i]++ })
}

// Words returns the vector's backing words, bit i of the vector being bit
// i&63 of word i>>6. The slice is the live backing store, not a copy;
// callers must not grow it.
func (v *Vector) Words() []uint64 { return v.words }
