package fo

import (
	"math"

	"repro/internal/xrand"
)

// GRR is Generalized Randomized Response over a categorical domain of size
// d: the true value is reported with probability p = e^ε/(e^ε+d-1) and every
// other value with probability q = 1/(e^ε+d-1).
type GRR struct {
	d   int
	eps float64
	p   float64
	q   float64
}

// NewGRR builds a GRR mechanism for domain size d and budget eps.
func NewGRR(d int, eps float64) (*GRR, error) {
	if err := validate(d, eps); err != nil {
		return nil, err
	}
	e := math.Exp(eps)
	return &GRR{
		d:   d,
		eps: eps,
		p:   e / (e + float64(d) - 1),
		q:   1 / (e + float64(d) - 1),
	}, nil
}

// Name implements Mechanism.
func (g *GRR) Name() string { return "GRR" }

// Epsilon implements Mechanism.
func (g *GRR) Epsilon() float64 { return g.eps }

// DomainSize implements Mechanism.
func (g *GRR) DomainSize() int { return g.d }

// P returns the retention probability p.
func (g *GRR) P() float64 { return g.p }

// Q returns the flip probability q.
func (g *GRR) Q() float64 { return g.q }

// Perturb implements Mechanism.
func (g *GRR) Perturb(v int, r *xrand.Rand) Report {
	checkDomain(v, g.d)
	return Report{Value: g.PerturbValue(v, r)}
}

// PerturbValue perturbs v and returns the reported value directly. It is the
// allocation-free form used by the correlated-perturbation label phase and
// by HEC, where the report is consumed immediately.
func (g *GRR) PerturbValue(v int, r *xrand.Rand) int {
	checkDomain(v, g.d)
	if g.d == 1 {
		return v
	}
	if r.Bernoulli(g.p) {
		return v
	}
	// Uniform over the other d-1 values.
	o := r.Intn(g.d - 1)
	if o >= v {
		o++
	}
	return o
}

// NewAccumulator implements Mechanism.
func (g *GRR) NewAccumulator() Accumulator { return newAccumulator(g, true) }

// fold implements Mechanism: a GRR report supports the one value it names.
func (g *GRR) fold(row []int64, rep Report) {
	checkDomain(rep.Value, g.d)
	row[rep.Value]++
}

// EstimatorVariance implements Mechanism: the exact variance of the
// calibrated count (count − N·q)/(p−q) when trueCount of n users hold the
// item.
func (g *GRR) EstimatorVariance(n int, trueCount float64) float64 {
	f := trueCount
	nf := float64(n) - f
	return (f*g.p*(1-g.p) + nf*g.q*(1-g.q)) / ((g.p - g.q) * (g.p - g.q))
}
