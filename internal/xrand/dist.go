package xrand

import (
	"fmt"
	"math"
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
