package xrand

import (
	"fmt"
	"math"
	"sort"
)

// Categorical samples from a fixed discrete distribution in O(1) per draw
// using Walker's alias method. Construction is O(n).
type Categorical struct {
	prob  []float64 // acceptance probability of the primary outcome
	alias []int     // fallback outcome when the primary is rejected
}

// NewCategorical builds an alias table for the given non-negative weights.
// Weights need not be normalized. It returns an error if no weight is
// positive, or if any weight is negative, NaN or infinite.
func NewCategorical(weights []float64) (*Categorical, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("xrand: categorical with no outcomes")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("xrand: invalid weight %v at index %d", w, i)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("xrand: categorical weights sum to zero")
	}
	c := &Categorical{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scaled probabilities; small/large worklists per Vose's stable variant.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		c.prob[s] = scaled[s]
		c.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		c.prob[i] = 1
		c.alias[i] = i
	}
	for _, i := range small { // numerical leftovers
		c.prob[i] = 1
		c.alias[i] = i
	}
	return c, nil
}

// Len returns the number of outcomes.
func (c *Categorical) Len() int { return len(c.prob) }

// Sample draws one outcome index.
func (c *Categorical) Sample(r *Rand) int {
	i := r.Intn(len(c.prob))
	if r.Float64() < c.prob[i] {
		return i
	}
	return c.alias[i]
}

// CumulativeSampler samples from arbitrary weights by binary search over the
// cumulative distribution. Construction O(n), sampling O(log n); it exists as
// an independently-implemented cross-check for Categorical in tests and for
// callers that need stable rank-ordered iteration of the weights.
type CumulativeSampler struct {
	cum []float64
}

// NewCumulativeSampler builds a CDF sampler over non-negative weights.
func NewCumulativeSampler(weights []float64) (*CumulativeSampler, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("xrand: cumulative sampler with no outcomes")
	}
	cum := make([]float64, len(weights))
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("xrand: invalid weight %v at index %d", w, i)
		}
		total += w
		cum[i] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("xrand: cumulative sampler weights sum to zero")
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1 // guard against rounding drift
	return &CumulativeSampler{cum: cum}, nil
}

// Sample draws one outcome index.
func (s *CumulativeSampler) Sample(r *Rand) int {
	u := r.Float64()
	return sort.SearchFloat64s(s.cum, u)
}

// Len returns the number of outcomes.
func (s *CumulativeSampler) Len() int { return len(s.cum) }
