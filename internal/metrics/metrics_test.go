package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRMSE(t *testing.T) {
	est := [][]float64{{1, 2}, {3, 4}}
	truth := [][]float64{{1, 2}, {3, 4}}
	if RMSE(est, truth) != 0 {
		t.Fatal("identical matrices have nonzero RMSE")
	}
	est2 := [][]float64{{2, 2}, {3, 4}} // one cell off by 1
	want := math.Sqrt(1.0 / 4)
	if math.Abs(RMSE(est2, truth)-want) > 1e-12 {
		t.Fatalf("RMSE %v want %v", RMSE(est2, truth), want)
	}
}

func TestRMSEShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on shape mismatch")
		}
	}()
	RMSE([][]float64{{1}}, [][]float64{{1}, {2}})
}

func TestTopK(t *testing.T) {
	counts := []float64{5, 9, 1, 9, 7}
	got := TopK(counts, 3)
	// Ties broken by lower index: 1 (9), 3 (9), 4 (7).
	want := []int{1, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v want %v", got, want)
		}
	}
	if len(TopK(counts, 10)) != 5 {
		t.Fatal("k beyond domain not clamped")
	}
}

// TestTopKDeterministicTies pins the index tie-break contract: equal
// scores order by lower index, identically on every run and platform,
// because served rankings are reproduced bit-for-bit by equivalence tests.
func TestTopKDeterministicTies(t *testing.T) {
	counts := []float64{4, 4, 4, 4, 4}
	for rep := 0; rep < 10; rep++ {
		got := TopK(counts, 5)
		for i, v := range got {
			if v != i {
				t.Fatalf("all-tied TopK = %v, want identity order", got)
			}
		}
	}
}

func TestF1(t *testing.T) {
	truth := []int{1, 2, 3, 4}
	if F1([]int{1, 2, 3, 4}, truth) != 1 {
		t.Fatal("perfect F1 != 1")
	}
	if F1([]int{5, 6, 7, 8}, truth) != 0 {
		t.Fatal("disjoint F1 != 0")
	}
	if F1([]int{1, 2, 9, 9}, truth) != 0.5 {
		t.Fatal("half F1 != 0.5")
	}
	if F1(nil, truth) != 0 {
		t.Fatal("empty mined F1 != 0")
	}
	if F1([]int{1}, nil) != 0 {
		t.Fatal("empty truth F1 != 0")
	}
}

func TestNCR(t *testing.T) {
	truth := []int{10, 20, 30} // qualities 3, 2, 1; denominator 6
	if NCR(truth, truth) != 1 {
		t.Fatal("perfect NCR != 1")
	}
	if NCR(nil, truth) != 0 {
		t.Fatal("empty NCR != 0")
	}
	// Mining only the rank-1 item scores 2·3/6 = 1/2... NCR = 2·3/(3·4) = 0.5.
	if got := NCR([]int{10}, truth); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("NCR([top1]) = %v", got)
	}
	// A false positive contributes nothing.
	if got := NCR([]int{10, 99, 98}, truth); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("NCR with false positives = %v", got)
	}
	// Order of mined items is irrelevant (set semantics).
	if NCR([]int{30, 20, 10}, truth) != 1 {
		t.Fatal("NCR depends on mined order")
	}
}

// TestF1NCRBounds property-checks both metrics stay in [0,1] and F1 ≤ 1
// regardless of input.
func TestF1NCRBounds(t *testing.T) {
	f := func(mined []uint8, truthLen uint8) bool {
		k := int(truthLen)%10 + 1
		truth := make([]int, k)
		for i := range truth {
			truth[i] = i * 3
		}
		m := make([]int, 0, len(mined))
		seen := map[int]bool{}
		for _, v := range mined {
			iv := int(v) % 40
			if !seen[iv] {
				seen[iv] = true
				m = append(m, iv)
			}
		}
		if len(m) > k {
			m = m[:k]
		}
		f1 := F1(m, truth)
		ncr := NCR(m, truth)
		return f1 >= 0 && f1 <= 1 && ncr >= 0 && ncr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean %v", Mean(xs))
	}
	if v := MSEAround(xs, Mean(xs)); v != 4 {
		t.Fatalf("variance %v", v)
	}
	if Mean(nil) != 0 || MSEAround(nil, 0) != 0 {
		t.Fatal("empty input not zero")
	}
}

func TestMSEAround(t *testing.T) {
	xs := []float64{9, 11}
	if MSEAround(xs, 10) != 1 {
		t.Fatalf("MSEAround %v", MSEAround(xs, 10))
	}
	if MSEAround(nil, 3) != 0 {
		t.Fatal("empty MSEAround not zero")
	}
}
