// Package xrand provides the deterministic, splittable pseudo-random
// number generation used by every randomized component in this repository.
//
// All perturbation mechanisms, dataset simulators and experiment drivers
// draw exclusively from *xrand.Rand so that a single root seed reproduces
// every table and figure bit-for-bit. The generator is xoshiro256**
// (Blackman & Vigna), seeded through SplitMix64; Split derives statistically
// independent child streams, which lets the experiment harness hand each
// simulated user its own generator without coordination.
//
// A seed reproduces results within one version of this repository, not
// across versions: a change to how a mechanism consumes its stream changes
// every seeded report downstream while leaving the report distribution
// unchanged.
package xrand

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random generator. It is NOT safe for
// concurrent use; derive one per goroutine with Split.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// randStateBytes is the serialized size of a Rand: four little-endian
// uint64 state words.
const randStateBytes = 32

// MarshalBinary serializes the generator state so long-running protocols
// (interactive top-k mining sessions) can checkpoint mid-stream and resume
// bit-identically after a restart.
func (r *Rand) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, randStateBytes)
	for _, s := range [4]uint64{r.s0, r.s1, r.s2, r.s3} {
		out = binary.LittleEndian.AppendUint64(out, s)
	}
	return out, nil
}

// UnmarshalBinary restores state serialized by MarshalBinary. An all-zero
// state is rejected: xoshiro256** is stuck at zero forever from it, and no
// MarshalBinary output ever contains one.
func (r *Rand) UnmarshalBinary(data []byte) error {
	if len(data) != randStateBytes {
		return fmt.Errorf("xrand: state is %d bytes, want %d", len(data), randStateBytes)
	}
	s0 := binary.LittleEndian.Uint64(data[0:])
	s1 := binary.LittleEndian.Uint64(data[8:])
	s2 := binary.LittleEndian.Uint64(data[16:])
	s3 := binary.LittleEndian.Uint64(data[24:])
	if s0|s1|s2|s3 == 0 {
		return fmt.Errorf("xrand: all-zero generator state")
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return nil
}

// splitmix64 advances x and returns the next SplitMix64 output. It is the
// recommended seeding procedure for xoshiro generators: it guarantees the
// state is never all-zero and decorrelates nearby seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
}

// Split derives a child generator whose stream is statistically independent
// of the parent's subsequent output. The parent advances by two draws.
func (r *Rand) Split() *Rand {
	// Mix two parent outputs through SplitMix64 so that children of
	// successive Split calls do not share lattice structure.
	x := r.Uint64() ^ 0xd1b54a32d192ed03
	c := &Rand{}
	c.s0 = splitmix64(&x)
	c.s1 = splitmix64(&x)
	x ^= r.Uint64()
	c.s2 = splitmix64(&x)
	c.s3 = splitmix64(&x)
	if c.s0|c.s1|c.s2|c.s3 == 0 { // cannot happen via splitmix64, but be safe
		c.s3 = 1
	}
	return c
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's nearly
// division-free bounded rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	// 128-bit multiply-shift with rejection of the biased low region.
	hi, lo := mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = mul64(r.Uint64(), n)
		}
	}
	return hi
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Values of p outside [0,1] are
// clamped, so Bernoulli(1.1) is always true and Bernoulli(-0.1) never.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes the first n elements via swap using Fisher–Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// BernoulliWords samples packed vectors of independent Bernoulli(q) bits a
// word at a time; unary-encoding mechanisms flip their bits with it. It
// holds q's exact binary expansion — lead zero bits, then the width bits of
// mant — and is immutable, so goroutines may share one.
type BernoulliWords struct {
	mant        uint64
	lead, width int
}

// NewBernoulliWords stores the binary expansion of q < 1; q ≤ 0 yields only
// 0 bits. It panics for q ≥ 1, which no unary encoding uses.
func NewBernoulliWords(q float64) BernoulliWords {
	if q >= 1 {
		panic(fmt.Sprintf("xrand: BernoulliWords with q=%v ≥ 1", q))
	}
	if !(q > 0) {
		return BernoulliWords{}
	}
	frac, exp := math.Frexp(q) // q = frac·2^exp, frac in [1/2, 1)
	mant := uint64(frac * (1 << 53))
	tz := bits.TrailingZeros64(mant)
	return BernoulliWords{mant: mant >> tz, lead: -exp, width: 53 - tz}
}

// Fill overwrites words with n bits, bit i in bit i&63 of word i>>6, each 1
// with probability exactly q; bits at n and beyond are 0. Each draw reveals
// the next bit of a uniform U per lane and settles the lanes whose bit
// differs from q's next expansion bit (U < q where q's bit is the 1); lanes
// still tied when the expansion ends have U ≥ q and stay 0. Half the tied
// lanes settle per draw: ≈7.3 draws a word whatever q is, O(⌈d/64⌉) words.
func (b BernoulliWords) Fill(words []uint64, n int, r *Rand) {
	for i := range words {
		tied := uint64(0) // the word's lanes below n
		if rem := n - i*64; rem >= 64 {
			tied = ^uint64(0)
		} else if rem > 0 {
			tied = 1<<uint(rem) - 1
		}
		var w uint64
		for k := 0; k < b.lead && tied != 0; k++ {
			tied &^= r.Uint64()
		}
		for k := b.width - 1; k >= 0 && tied != 0; k-- {
			u := r.Uint64()
			if b.mant>>uint(k)&1 != 0 {
				w |= tied &^ u
				tied &= u
			} else {
				tied &^= u
			}
		}
		words[i] = w
	}
}
