package xrand

import (
	"math"
	"sort"
	"testing"
)

func TestCategoricalMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	cat, err := NewCategorical(weights)
	if err != nil {
		t.Fatal(err)
	}
	r := New(20)
	const n = 200000
	counts := make([]float64, len(weights))
	for i := 0; i < n; i++ {
		counts[cat.Sample(r)]++
	}
	for i, w := range weights {
		want := w / 10 * n
		if math.Abs(counts[i]-want) > 5*math.Sqrt(want) {
			t.Fatalf("outcome %d count %v want %v", i, counts[i], want)
		}
	}
}

func TestCategoricalZeroWeightNeverSampled(t *testing.T) {
	cat, err := NewCategorical([]float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	r := New(21)
	for i := 0; i < 10000; i++ {
		if cat.Sample(r) == 1 {
			t.Fatal("sampled zero-weight outcome")
		}
	}
}

func TestCategoricalErrors(t *testing.T) {
	cases := [][]float64{
		nil,
		{},
		{0, 0},
		{-1, 2},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, w := range cases {
		if _, err := NewCategorical(w); err == nil {
			t.Fatalf("weights %v: expected error", w)
		}
	}
}

func TestCategoricalSingleOutcome(t *testing.T) {
	cat, err := NewCategorical([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	r := New(22)
	for i := 0; i < 100; i++ {
		if cat.Sample(r) != 0 {
			t.Fatal("single outcome sampler returned non-zero")
		}
	}
}

// TestCategoricalAgreesWithCumulative cross-checks the alias method against
// an independently implemented sampler on random weight vectors: a binary
// search over the cumulative distribution.
func TestCategoricalAgreesWithCumulative(t *testing.T) {
	r := New(23)
	for trial := 0; trial < 5; trial++ {
		k := 2 + r.Intn(20)
		w := make([]float64, k)
		for i := range w {
			w[i] = r.Float64() + 0.01
		}
		cat, err := NewCategorical(w)
		if err != nil {
			t.Fatal(err)
		}
		cum := make([]float64, k)
		total := 0.0
		for i, x := range w {
			total += x
			cum[i] = total
		}
		const n = 100000
		ca := make([]float64, k)
		cb := make([]float64, k)
		for i := 0; i < n; i++ {
			ca[cat.Sample(r)]++
			cb[min(sort.SearchFloat64s(cum, total*r.Float64()), k-1)]++
		}
		for i := 0; i < k; i++ {
			if math.Abs(ca[i]-cb[i]) > 6*math.Sqrt(n/float64(k)) {
				t.Fatalf("trial %d outcome %d: alias %v vs cdf %v", trial, i, ca[i], cb[i])
			}
		}
	}
}
