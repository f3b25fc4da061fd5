package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 draws", same)
	}
}

func TestSeedZeroUsable(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	a1, a2 := c1.Uint64(), c2.Uint64()
	if a1 == a2 {
		t.Fatal("sibling splits produced identical first draw")
	}
	// Splitting must be reproducible from the same parent state.
	p2 := New(7)
	d1 := p2.Split()
	if d1.Uint64() != a1 {
		t.Fatal("split streams not reproducible")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const k = 10
	const n = 100000
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		counts[r.Intn(k)]++
	}
	want := float64(n) / k
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn(%d) value %d count %d too far from %v", k, v, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nBounds(t *testing.T) {
	r := New(6)
	err := quick.Check(func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(8)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		const n = 100000
		for i := 0; i < n; i++ {
			if r.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 4*math.Sqrt(p*(1-p)/n) {
			t.Fatalf("Bernoulli(%v) frequency %v", p, got)
		}
	}
}

func TestBernoulliClamps(t *testing.T) {
	r := New(9)
	if r.Bernoulli(-0.5) {
		t.Fatal("Bernoulli(-0.5) returned true")
	}
	if !r.Bernoulli(1.5) {
		t.Fatal("Bernoulli(1.5) returned false")
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(10)
	err := quick.Check(func(n8 uint8) bool {
		n := int(n8%50) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(11)
	xs := []int{1, 2, 3, 4, 5, 5, 5}
	ys := append([]int(nil), xs...)
	r.Shuffle(len(ys), func(i, j int) { ys[i], ys[j] = ys[j], ys[i] })
	counts := map[int]int{}
	for _, x := range xs {
		counts[x]++
	}
	for _, y := range ys {
		counts[y]--
	}
	for _, c := range counts {
		if c != 0 {
			t.Fatal("shuffle changed multiset")
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(12)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestExpFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.ExpFloat64()
		if x < 0 {
			t.Fatalf("negative exponential %v", x)
		}
		sum += x
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v", mean)
	}
}

// TestBernoulliWordsEdges pins the edges and the tail: q ≤ 0 clears every
// word without a draw, q ≥ 1 is refused, and no bit at or past n is ever
// set, including in whole words past it. The distribution itself is pinned
// in internal/fo, through the mechanisms that use it.
func TestBernoulliWordsEdges(t *testing.T) {
	r := New(15)
	before := *r
	words := []uint64{7, 7, 7}
	for _, q := range []float64{0, -1, math.NaN()} {
		NewBernoulliWords(q).Fill(words, 70, r)
		if words[0]|words[1]|words[2] != 0 || *r != before {
			t.Fatalf("q=%v: words %x, generator moved %v", q, words, *r != before)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("q=1 accepted")
			}
		}()
		NewBernoulliWords(1)
	}()
	for i := 0; i < 1000; i++ {
		NewBernoulliWords(0.5).Fill(words, 70, r)
		if words[1]>>6 != 0 || words[2] != 0 {
			t.Fatalf("bits set past n=70: %x", words)
		}
	}
}

func TestMarshalBinaryRoundTrip(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		r.Uint64() // advance to an arbitrary mid-stream state
	}
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Rand
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if restored.Uint64() != r.Uint64() {
			t.Fatalf("restored stream diverged at draw %d", i)
		}
	}
}

func TestUnmarshalBinaryRejectsBadState(t *testing.T) {
	var r Rand
	if err := r.UnmarshalBinary(make([]byte, 31)); err == nil {
		t.Fatal("short state accepted")
	}
	if err := r.UnmarshalBinary(make([]byte, 32)); err == nil {
		t.Fatal("all-zero state accepted")
	}
}
