package core

import (
	"fmt"
	"math"
)

// Interval is a symmetric confidence interval around a calibrated estimate.
type Interval struct {
	Estimate float64
	Lo, Hi   float64
	// StdDev is the Eq. (5) standard deviation the interval is built from.
	StdDev float64
}

// EstimateWithCI returns the Eq. (4) estimate of f(C, I) together with a
// z-sigma confidence interval, with sigma from the Theorem 8 variance
// evaluated at the *estimated* population quantities (f̂ floored at 0 and n̂
// floored at f̂, so the plug-in variance is always well defined). z = 1.96
// gives the usual 95% normal interval.
func (a *CPAccumulator) EstimateWithCI(c, i int, z float64) (Interval, error) {
	if z <= 0 {
		return Interval{}, fmt.Errorf("core: non-positive z %v", z)
	}
	est := a.Estimate(c, i)
	f := math.Max(est, 0)
	n := math.Max(a.EstimateClassSize(c), f)
	total := float64(a.t.N)
	if n > total {
		n = total
	}
	p1, q1, p2, q2 := a.cp.Probabilities()
	variance := cpVarianceEq5(p1, q1, p2, q2, f, n, total)
	sd := math.Sqrt(math.Max(variance, 0))
	return Interval{
		Estimate: est,
		Lo:       est - z*sd,
		Hi:       est + z*sd,
		StdDev:   sd,
	}, nil
}

// cpVarianceEq5 is Eq. (5) inlined (duplicated from the analysis package to
// keep core free of upward dependencies; the analysis tests pin both to the
// same closed form).
func cpVarianceEq5(p1, q1, p2, q2, f, n, total float64) float64 {
	den := p1 * (1 - q2) * (p2 - q2)
	den2 := den * den
	alpha := p1 * (1 - q2) * p2
	beta := p1 * (1 - q2) * q2
	gamma := q1 * (1 - p2) * q2
	k := q2 * (p1*(1-q2) - q1*(1-p2)) / den
	labelDen := (p1 - q1) * (p1 - q1)
	return f*alpha*(1-alpha)/den2 +
		(n-f)*beta*(1-beta)/den2 +
		(total-n)*gamma*(1-gamma)/den2 +
		k*k*(n*(p1*(1-p1)-q1*(1-q1))+total*q1*(1-q1))/labelDen
}
