package mean

import (
	"fmt"
	"math"

	"repro/internal/fo"
	"repro/internal/state"
	"repro/internal/xrand"
)

// Sign inputs/outputs of the correlated value mechanism: the stochastically
// rounded value sign, or Bottom when label perturbation voided the value.
const (
	Minus  = 0
	Plus   = 1
	Bottom = 2
)

// CPMean is the correlated perturbation mechanism for numerical items.
// The label is perturbed first with GRR(ε₁); if it moved, the value input
// becomes ⊥ (the validity symbol), otherwise the value is stochastically
// rounded to a sign. The sign-or-⊥ symbol is then perturbed with a 3-ary
// GRR(ε₂) over {−, +, ⊥}, so invalidity is itself deniable — the numerical
// analogue of folding the validity flag into the unary encoding
// (Section IV-A), and the whole report is (ε₁+ε₂)-LDP by the Theorem 2
// argument.
//
// Server side, for each class C with routed sign counts n⁺ and n⁻:
//
//	E[n⁺ − n⁻] = p₁·(p₂ − q₂)·T_C      (mis-routed users cancel)
//	T̂_C = (n⁺ − n⁻)/(p₁(p₂ − q₂))      — exactly unbiased
//	μ̂_C = T̂_C / n̂_C with n̂_C from the label counts.
type CPMean struct {
	classes int
	eps     float64
	split   float64
	label   *fo.GRR
	p2, q2  float64
	// id fingerprints the four probabilities, computed once: the
	// calibration identity aggregates must share to merge.
	id string
}

// NewCPMean builds the correlated mean mechanism; split = ε₁/ε.
func NewCPMean(classes int, eps, split float64) (*CPMean, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("mean: CPMean with %d classes", classes)
	}
	if !(split > 0 && split < 1) {
		return nil, fmt.Errorf("mean: CPMean split %v must be in (0,1)", split)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("mean: CPMean budget %v must be positive and finite", eps)
	}
	label, err := fo.NewGRR(classes, eps*split)
	if err != nil {
		return nil, err
	}
	e2 := math.Exp(eps * (1 - split))
	m := &CPMean{
		classes: classes,
		eps:     eps,
		split:   split,
		label:   label,
		p2:      e2 / (e2 + 2),
		q2:      1 / (e2 + 2),
	}
	p1, q1, p2, q2 := m.Probabilities()
	m.id = fmt.Sprintf("CPMean[p1=%v,q1=%v,p2=%v,q2=%v]", p1, q1, p2, q2)
	return m, nil
}

// Classes returns the label domain size.
func (m *CPMean) Classes() int { return m.classes }

// Epsilon returns the total budget.
func (m *CPMean) Epsilon() float64 { return m.eps }

// Probabilities returns (p₁, q₁, p₂, q₂).
func (m *CPMean) Probabilities() (p1, q1, p2, q2 float64) {
	return m.label.P(), m.label.Q(), m.p2, m.q2
}

// Report is one perturbed (label, symbol) pair.
type Report struct {
	Label  int
	Symbol int // Minus, Plus or Bottom
}

// Perturb applies the correlated mechanism to one (class, value) pair.
func (m *CPMean) Perturb(v Value, r *xrand.Rand) Report {
	if v.Class < 0 || v.Class >= m.classes {
		panic(fmt.Sprintf("mean: class %d outside [0,%d)", v.Class, m.classes))
	}
	lab := m.label.PerturbValue(v.Class, r)
	symbol := Bottom
	if lab == v.Class {
		if roundSign(v.X, r) > 0 {
			symbol = Plus
		} else {
			symbol = Minus
		}
	}
	// 3-ary GRR over {−, +, ⊥}.
	if !r.Bernoulli(m.p2) {
		o := r.Intn(2)
		if o >= symbol {
			o++
		}
		symbol = o
	}
	return Report{Label: lab, Symbol: symbol}
}

// Accumulator aggregates CPMean reports in one count table of (label,
// symbol) cells; a label's report count is its −, + and ⊥ cells summed. The
// cpmean halves' aggregator keeps the same table and shares its calibration.
type Accumulator struct {
	m *CPMean
	t state.Table
}

// NewAccumulator returns an empty aggregator.
func (m *CPMean) NewAccumulator() *Accumulator {
	return &Accumulator{m, state.NewTable(tableShape(m.classes, 3))}
}

// Add folds one report into the aggregate.
func (a *Accumulator) Add(rep Report) { a.AddCounts(rep.Label, rep.Symbol, 1) }

// AddCounts folds n reports of one (label, symbol) cell. The cell and the
// count are checked before anything is counted, so a recovered panic leaves
// the aggregate as it was.
func (a *Accumulator) AddCounts(label, symbol int, n int64) {
	addCounts(&a.t, a.m.classes, 3, label, symbol, n)
}

// Merge folds another accumulator of the same mechanism into this one; an
// accumulator of a mechanism with other probabilities is refused.
func (a *Accumulator) Merge(o *Accumulator) error {
	if o.m != a.m && o.m.id != a.m.id {
		return fmt.Errorf("mean: cannot merge a %s accumulator into a %s one", o.m.id, a.m.id)
	}
	return a.t.Merge(&o.t)
}

// Total returns the number of reports received.
func (a *Accumulator) Total() int { return int(a.t.N) }

// EstimateSum returns the unbiased class-sum estimate T̂_C.
func (a *Accumulator) EstimateSum(c int) float64 { return a.m.sum(&a.t, c) }

// EstimateClassSize returns n̂_C from the perturbed label counts.
func (a *Accumulator) EstimateClassSize(c int) float64 { return labelSize(a.m.label, &a.t, 3, c) }

// sum is EstimateSum over t.
func (m *CPMean) sum(t *state.Table, c int) float64 {
	p1, _, p2, q2 := m.Probabilities()
	return float64(cell(t, 3, c, Plus)-cell(t, 3, c, Minus)) / (p1 * (p2 - q2))
}

// mean returns μ̂_C = T̂_C/n̂_C over t clamped to [−1, 1], or 0 when the
// class-size estimate is too small to divide by.
func (m *CPMean) mean(t *state.Table, c int) float64 {
	n := labelSize(m.label, t, 3, c)
	if n <= 1 {
		return 0
	}
	return clamp(m.sum(t, c) / n)
}

// SumVariance returns the closed-form variance of T̂_C:
//
//	Var = [n_C·p₁(p₂+q₂) + 2(N−n_C)·q₁q₂ − (p₁(p₂−q₂))²·Σ_{i∈C}x_i²] / (p₁(p₂−q₂))²
//
// upper-bounded here with Σx² ≥ 0 dropped (worst case), which the tests
// compare against Monte-Carlo runs.
func (m *CPMean) SumVariance(nC, total int) float64 {
	p1, q1, p2, q2 := m.Probabilities()
	den := p1 * (p2 - q2)
	return (float64(nC)*p1*(p2+q2) + 2*float64(total-nC)*q1*q2) / (den * den)
}

// CPMeanEstimator adapts CPMean to the Estimator interface.
type CPMeanEstimator struct {
	eps   float64
	split float64
}

// NewCPMeanEstimator builds the framework wrapper; split = ε₁/ε.
func NewCPMeanEstimator(eps, split float64) (*CPMeanEstimator, error) {
	if !(split > 0 && split < 1) {
		return nil, fmt.Errorf("mean: CPMean split %v must be in (0,1)", split)
	}
	return &CPMeanEstimator{eps: eps, split: split}, nil
}

// Name implements Estimator.
func (f *CPMeanEstimator) Name() string { return "CP-Mean" }

// Epsilon implements Estimator.
func (f *CPMeanEstimator) Epsilon() float64 { return f.eps }

// Estimate implements Estimator as a thin loop over the CP halves.
func (f *CPMeanEstimator) Estimate(d *Dataset, r *xrand.Rand) (Estimates, error) {
	halves, err := NewCPMeanHalves(d.Classes, f.eps, f.split)
	if err != nil {
		return Estimates{}, err
	}
	return estimateVia(halves, d, r)
}

// EstimateMeans implements Estimator.
func (f *CPMeanEstimator) EstimateMeans(d *Dataset, r *xrand.Rand) ([]float64, error) {
	est, err := f.Estimate(d, r)
	return est.Means, err
}

// EstimateClassSizes implements Estimator.
func (f *CPMeanEstimator) EstimateClassSizes(d *Dataset, r *xrand.Rand) ([]float64, error) {
	est, err := f.Estimate(d, r)
	return est.ClassSizes, err
}
