package fo

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/xrand"
)

// naivePerturbBits is the textbook O(d) per-bit implementation, kept as the
// reference for the word-at-a-time path: the ablation benchmarks below
// quantify the design choice and the equivalence test pins the
// distribution.
func naivePerturbBits(u *UE, v int, r *xrand.Rand) *bitvec.Vector {
	b := bitvec.New(u.DomainSize())
	for i := 0; i < u.DomainSize(); i++ {
		if i == v {
			b.SetBool(i, r.Bernoulli(u.P()))
		} else {
			b.SetBool(i, r.Bernoulli(u.Q()))
		}
	}
	return b
}

// TestSkippingMatchesNaiveDistribution holds the word path and the naive
// reference to the same per-bit 1-frequencies on the shapes a word kernel
// can get wrong: a partial word (d=40), exactly one word (64), one bit past
// it (65) and a partial third word (130), with the 1 bit at lane 63 or 64,
// either side of the word boundary. Independence is checked on pairs too:
// adjacent lanes inside a word and lanes 63/64 across the boundary are both
// 1 at the product of their marginals (q², or p·q beside the 1 bit).
func TestSkippingMatchesNaiveDistribution(t *testing.T) {
	const trials = 60000
	r := xrand.New(500)
	for _, c := range []struct{ d, v int }{{40, 7}, {64, 63}, {65, 64}, {130, 63}, {130, 64}} {
		u, err := NewOUE(c.d, 1)
		if err != nil {
			t.Fatal(err)
		}
		rate := func(b int) float64 {
			if b == c.v {
				return u.P()
			}
			return u.Q()
		}
		var pairs [][2]int
		for _, lo := range []int{0, 62, 63, 64, 127} {
			if lo+1 < c.d {
				pairs = append(pairs, [2]int{lo, lo + 1})
			}
		}
		for _, path := range []struct {
			name    string
			perturb func(*UE, int, *xrand.Rand) *bitvec.Vector
		}{{"word", (*UE).PerturbBits}, {"naive", naivePerturbBits}} {
			ones := make([]float64, c.d)
			both := make([]float64, len(pairs))
			for i := 0; i < trials; i++ {
				bits := path.perturb(u, c.v, r)
				bits.ForEachSet(func(b int) { ones[b]++ })
				for j, pr := range pairs {
					if bits.Get(pr[0]) && bits.Get(pr[1]) {
						both[j]++
					}
				}
			}
			for b := 0; b < c.d; b++ {
				if want := rate(b) * trials; math.Abs(ones[b]-want) > 5*math.Sqrt(want) {
					t.Errorf("d=%d %s bit %d: %v want %v", c.d, path.name, b, ones[b], want)
				}
			}
			for j, pr := range pairs {
				if want := rate(pr[0]) * rate(pr[1]) * trials; math.Abs(both[j]-want) > 5*math.Sqrt(want) {
					t.Errorf("d=%d %s bits %v both set %v times, want %v", c.d, path.name, pr, both[j], want)
				}
			}
		}
	}
}

// The design-choice ablation: the word path vs per-bit Bernoulli over a
// large domain. The word path costs ⌈d/64⌉ words of ≈7 draws whatever q is,
// the naive path one draw per bit.
func BenchmarkUEPerturbSkipping16k(b *testing.B) {
	u, err := NewOUE(16384, 4)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.PerturbBits(i%16384, r)
	}
}

func BenchmarkUEPerturbNaive16k(b *testing.B) {
	u, err := NewOUE(16384, 4)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		naivePerturbBits(u, i%16384, r)
	}
}

func BenchmarkUEAggregate16k(b *testing.B) {
	u, err := NewOUE(16384, 4)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	reports := make([]Report, 64)
	for i := range reports {
		reports[i] = u.Perturb(i, r)
	}
	acc := u.NewAccumulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(reports[i%len(reports)])
	}
}
