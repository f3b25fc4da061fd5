// Package metrics implements the evaluation metrics of Section VII-B:
// root mean square error over the label-item frequency matrix, F1 score of
// mined top-k sets (precision = recall in this setting), and the Normalized
// Cumulative Rank (NCR), plus small ranking utilities shared by the top-k
// pipeline and the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// RMSE returns the root mean square error between an estimated and a true
// c×d frequency matrix:
//
//	RMSE = sqrt( 1/(|C||I|) Σ_C Σ_I (f̂(C,I) − f(C,I))² )
//
// It panics if the shapes differ.
func RMSE(estimated, truth [][]float64) float64 {
	if len(estimated) != len(truth) {
		panic(fmt.Sprintf("metrics: RMSE row mismatch %d != %d", len(estimated), len(truth)))
	}
	sum := 0.0
	cells := 0
	for c := range truth {
		if len(estimated[c]) != len(truth[c]) {
			panic(fmt.Sprintf("metrics: RMSE column mismatch in row %d", c))
		}
		for i := range truth[c] {
			dd := estimated[c][i] - truth[c][i]
			sum += dd * dd
			cells++
		}
	}
	if cells == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(cells))
}

// TopK returns the indices of the k largest values in counts, ties broken
// by lower index. The tie-break is part of the contract, not an
// implementation accident: mined rankings are served to clients and pinned
// by equivalence tests, so equal scores must order identically across runs
// and platforms. If k exceeds the domain, all indices are returned ordered
// by count.
func TopK(counts []float64, k int) []int {
	idx := make([]int, len(counts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if counts[idx[a]] != counts[idx[b]] {
			return counts[idx[a]] > counts[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// F1 returns the F1 score of a mined top-k set against the ground-truth
// top-k set. Since |mined| = |truth| = k here, precision equals recall and
// F1 = |mined ∩ truth| / k (Section VII-B).
func F1(mined, truth []int) float64 {
	if len(truth) == 0 {
		return 0
	}
	truthSet := make(map[int]struct{}, len(truth))
	for _, t := range truth {
		truthSet[t] = struct{}{}
	}
	hit := 0
	for _, m := range mined {
		if _, ok := truthSet[m]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// NCR returns the Normalized Cumulative Rank of a mined top-k set: the
// ground-truth item of rank r (1-based) has quality q = k−r+1, and
//
//	NCR = Σ_{mined ∩ truth} q(item) / (k(k+1)/2)
//
// so recovering the full true top-k in any order scores 1.
func NCR(mined, truth []int) float64 {
	k := len(truth)
	if k == 0 {
		return 0
	}
	quality := make(map[int]int, k)
	for r, t := range truth {
		quality[t] = k - r
	}
	sum := 0
	for _, m := range mined {
		sum += quality[m] // 0 when m is a false positive
	}
	return 2 * float64(sum) / float64(k*(k+1))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MSEAround returns the mean squared deviation of xs from a reference value
// — the paper's empirical variance estimator Var = (1/t)Σ(f̂ − f)² for
// Fig. 5 uses the truth as the reference.
func MSEAround(xs []float64, ref float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		d := x - ref
		s += d * d
	}
	return s / float64(len(xs))
}
