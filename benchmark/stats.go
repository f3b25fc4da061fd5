package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p ≤ 1) of sorted by the
// nearest-rank rule: the smallest value with at least p·n values at or
// below it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// tailLadder is the percentiles a latency sample may be summarised by,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.75}

// pickTail returns the highest percentile of tailLadder that still has at
// least ten samples beyond it in a sample of n, or 0.5 when none does. A
// percentile with fewer samples beyond it is set by a handful of outliers
// and does not repeat between runs.
func pickTail(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.5
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the middle two for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of xs by the exclusive
// method — the one Python's statistics.quantiles(xs, n=4) uses, which is
// what the acceptance rule for this benchmark is written against. xs needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	at := func(k int) float64 {
		// position k·(n+1)/4, 1-based, clamped to 1..n-1, then linearly
		// interpolated (extrapolated where the clamp moved it).
		m := len(s) + 1
		j := min(max(k*m/4, 1), len(s)-1)
		delta := k*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// tailWindows is how many equal time slices a window is cut into for
// tail.op_tail_ms.
const tailWindows = 10

// windowedTail cuts the window into equal time slices, takes the p-quantile
// of the operations that completed in each and returns the median of
// those. A single p99 over the whole run is decided by the one worst stall
// in it; the median over slices asks what the tail looks like in a typical
// second, and repeats between runs. The slice count is lowered until the
// slices average enough samples to leave ten beyond p (down to one slice,
// which is the plain quantile).
func windowedTail(ops []sample, p float64, windows int) float64 {
	if len(ops) == 0 {
		return 0
	}
	need := int(math.Ceil(10/(1-p) - 1e-9))
	windows = max(1, min(windows, len(ops)/need))
	end := 0.0
	for _, s := range ops {
		end = max(end, s.at)
	}
	slices := make([][]float64, windows)
	for _, s := range ops {
		w := min(int(s.at/end*float64(windows)), windows-1)
		slices[w] = append(slices[w], s.ms)
	}
	tails := make([]float64, 0, windows)
	for _, sl := range slices {
		if len(sl) > 0 {
			sort.Float64s(sl)
			tails = append(tails, percentile(sl, p))
		}
	}
	return median(tails)
}

// sliceRate cuts the window into equal time slices, counts the operations
// that completed in each and returns the median slice's rate in operations
// per second. Where the whole-window rate is pulled down by one stall, the
// median slice says what the system sustains in a typical second.
func sliceRate(ops []sample, wall float64, slices int) float64 {
	counts := make([]float64, slices)
	for _, s := range ops {
		counts[min(int(s.at/wall*float64(slices)), slices-1)]++
	}
	return median(counts) / (wall / float64(slices))
}
