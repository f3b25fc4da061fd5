package fo

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/xrand"
)

// UE is the unary-encoding family: the value is one-hot encoded into d bits
// and each bit is flipped independently, 1-bits reported as 1 with
// probability p and 0-bits as 1 with probability q. The privacy budget is
// ε = ln(p(1−q)/((1−p)q)) (Theorem 1 of the paper, from Wang et al.).
//
// Two standard members:
//
//   - SUE (symmetric, basic RAPPOR): p = e^{ε/2}/(e^{ε/2}+1), q = 1−p.
//   - OUE (optimized): p = 1/2, q = 1/(e^ε+1), which minimizes estimator
//     variance for small counts and is the paper's default item perturber.
type UE struct {
	name string
	d    int
	eps  float64
	p    float64
	q    float64
	flip xrand.BernoulliWords // q's expansion, built once: Encoders share a UE
}

func newUE(name string, d int, eps, p, q float64) *UE {
	return &UE{name: name, d: d, eps: eps, p: p, q: q, flip: xrand.NewBernoulliWords(q)}
}

// NewOUE builds the Optimized Unary Encoding mechanism.
func NewOUE(d int, eps float64) (*UE, error) {
	if err := validate(d, eps); err != nil {
		return nil, err
	}
	return newUE("OUE", d, eps, 0.5, 1/(math.Exp(eps)+1)), nil
}

// NewSUE builds the Symmetric Unary Encoding (basic one-time RAPPOR)
// mechanism.
func NewSUE(d int, eps float64) (*UE, error) {
	if err := validate(d, eps); err != nil {
		return nil, err
	}
	e2 := math.Exp(eps / 2)
	return newUE("SUE", d, eps, e2/(e2+1), 1/(e2+1)), nil
}

// NewUE builds a unary-encoding mechanism with explicit bit probabilities.
// The effective budget ln(p(1−q)/((1−p)q)) is computed from them. It returns
// an error unless 0 < q < p < 1.
func NewUE(d int, p, q float64) (*UE, error) {
	if d <= 0 {
		return nil, fmt.Errorf("fo: domain size %d must be positive", d)
	}
	if !(0 < q && q < p && p < 1) {
		return nil, fmt.Errorf("fo: UE requires 0 < q < p < 1, got p=%v q=%v", p, q)
	}
	eps := math.Log(p * (1 - q) / ((1 - p) * q))
	return newUE("UE", d, eps, p, q), nil
}

// Name implements Mechanism.
func (u *UE) Name() string { return u.name }

// Epsilon implements Mechanism.
func (u *UE) Epsilon() float64 { return u.eps }

// DomainSize implements Mechanism.
func (u *UE) DomainSize() int { return u.d }

// P returns the probability a 1-bit is reported as 1.
func (u *UE) P() float64 { return u.p }

// Q returns the probability a 0-bit is reported as 1.
func (u *UE) Q() float64 { return u.q }

// Perturb implements Mechanism.
func (u *UE) Perturb(v int, r *xrand.Rand) Report {
	checkDomain(v, u.d)
	return Report{Bits: u.PerturbBits(v, r)}
}

// PerturbBits one-hot encodes v and flips every bit, returning the perturbed
// vector. Exposed for the validity-perturbation mechanism, which reuses the
// same bit-flip kernel over an extended vector.
//
// The 0-bit flips are sampled a word at a time (xrand.BernoulliWords), so
// the cost is O(⌈d/64⌉) words — PTJ's joint c·d domains included — and each
// bit is 1 with probability exactly the float64 q; bit v is then redrawn
// with probability p.
func (u *UE) PerturbBits(v int, r *xrand.Rand) *bitvec.Vector {
	checkDomain(v, u.d)
	b := bitvec.New(u.d)
	u.flip.Fill(b.Words(), u.d, r)
	b.SetBool(v, r.Bernoulli(u.p))
	return b
}

// NewAccumulator implements Mechanism.
func (u *UE) NewAccumulator() Accumulator { return newAccumulator(u, false) }

// fold implements Mechanism: a UE report supports every set bit.
func (u *UE) fold(row []int64, rep Report) {
	if rep.Bits == nil {
		panic("fo: UE report without bits")
	}
	if rep.Bits.Len() != u.d {
		panic(fmt.Sprintf("fo: UE report length %d != domain %d", rep.Bits.Len(), u.d))
	}
	rep.Bits.AddInto(row)
}

// EstimatorVariance implements Mechanism.
func (u *UE) EstimatorVariance(n int, trueCount float64) float64 {
	f := trueCount
	nf := float64(n) - f
	return (f*u.p*(1-u.p) + nf*u.q*(1-u.q)) / ((u.p - u.q) * (u.p - u.q))
}
