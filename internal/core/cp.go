package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/fo"
	"repro/internal/state"
	"repro/internal/xrand"
)

// CP is the correlated perturbation mechanism (Section IV-B). The total
// budget ε is split into ε₁ for the label and ε₂ for the item (the paper
// uses ε₁ = ε₂ = ε/2 by default). The label is perturbed first with
// GRR(ε₁); the item is then perturbed *conditioned on the label outcome*:
// if the perturbed label differs from the true label the item has become
// meaningless for that class, so it is marked Invalid and the validity
// perturbation VP(ε₂) encodes only the flag; otherwise VP(ε₂) encodes the
// item. Sequential composition gives ε₁+ε₂ = ε LDP for the pair
// (Theorem 2).
type CP struct {
	c, d  int
	eps   float64
	eps1  float64
	eps2  float64
	label *fo.GRR
	item  *VP
	// id fingerprints the four probabilities, computed once: the
	// calibration identity accumulators must share to merge.
	id string
}

// CPReport is one perturbed label-item report.
type CPReport struct {
	Label int
	Bits  *bitvec.Vector // d+1 bits: items plus validity flag
}

// NewCP builds a correlated perturbation mechanism over c classes and d
// items with total budget eps split as ε₁ = split·ε for the label and
// ε₂ = (1−split)·ε for the item. The paper's default is split = 0.5.
func NewCP(c, d int, eps, split float64) (*CP, error) {
	if c <= 0 {
		return nil, fmt.Errorf("core: CP with %d classes", c)
	}
	if !(split > 0 && split < 1) {
		return nil, fmt.Errorf("core: CP budget split %v must be in (0,1)", split)
	}
	eps1 := eps * split
	eps2 := eps - eps1
	label, err := fo.NewGRR(c, eps1)
	if err != nil {
		return nil, fmt.Errorf("core: CP label mechanism: %w", err)
	}
	item, err := NewVP(d, eps2)
	if err != nil {
		return nil, fmt.Errorf("core: CP item mechanism: %w", err)
	}
	cp := &CP{c: c, d: d, eps: eps, eps1: eps1, eps2: eps2, label: label, item: item}
	p1, q1, p2, q2 := cp.Probabilities()
	cp.id = fmt.Sprintf("CP[p1=%v,q1=%v,p2=%v,q2=%v]", p1, q1, p2, q2)
	return cp, nil
}

// Classes returns c.
func (cp *CP) Classes() int { return cp.c }

// Items returns d.
func (cp *CP) Items() int { return cp.d }

// Epsilon returns the total budget ε = ε₁ + ε₂.
func (cp *CP) Epsilon() float64 { return cp.eps }

// Epsilon1 returns the label budget ε₁.
func (cp *CP) Epsilon1() float64 { return cp.eps1 }

// Epsilon2 returns the item budget ε₂.
func (cp *CP) Epsilon2() float64 { return cp.eps2 }

// Probabilities returns (p₁, q₁, p₂, q₂) from Eqs. (2) and (3).
func (cp *CP) Probabilities() (p1, q1, p2, q2 float64) {
	return cp.label.P(), cp.label.Q(), cp.item.P(), cp.item.Q()
}

// Perturb applies the correlated perturbation to one pair.
func (cp *CP) Perturb(pair Pair, r *xrand.Rand) CPReport {
	if pair.Class < 0 || pair.Class >= cp.c {
		panic(fmt.Sprintf("core: CP class %d outside [0,%d)", pair.Class, cp.c))
	}
	perturbed := cp.label.PerturbValue(pair.Class, r)
	item := pair.Item
	if perturbed != pair.Class {
		// The label moved: the item no longer belongs to the reported
		// class, so it is submitted as invalid (Section IV-B).
		item = Invalid
	}
	return CPReport{Label: perturbed, Bits: cp.item.Perturb(item, r)}
}

// CPAccumulator aggregates correlated-perturbation reports in one count
// table (state.Table): per class, ñ(C), the reports whose perturbed label is
// C, and the row of 1-bit item counts of those whose perturbed flag bit is
// 0 (the VP drop rule) — no cell exceeds its class's ñ(C). The ptscp
// protocol's aggregator keeps the same table and shares its fold and
// calibration.
type CPAccumulator struct {
	cp *CP
	t  state.Table
}

// NewAccumulator returns an empty aggregator for cp's reports.
func (cp *CP) NewAccumulator() *CPAccumulator {
	return &CPAccumulator{cp: cp, t: state.NewTable(cp.shape())}
}

// shape is the shape of cp's count table.
func (cp *CP) shape() state.Shape { return state.Shape{Routes: cp.c, Rows: cp.c, Cols: cp.d} }

// Add folds one report into the aggregate.
func (a *CPAccumulator) Add(rep CPReport) { a.cp.add(&a.t, rep) }

// add folds one report into t, a table of cp's shape.
func (cp *CP) add(t *state.Table, rep CPReport) {
	if rep.Label < 0 || rep.Label >= cp.c {
		panic(fmt.Sprintf("core: CP report label %d outside [0,%d)", rep.Label, cp.c))
	}
	if rep.Bits.Len() != cp.d+1 {
		panic(fmt.Sprintf("core: CP report bits %d != %d", rep.Bits.Len(), cp.d+1))
	}
	t.N++
	t.Cells[rep.Label]++
	if rep.Bits.Get(cp.d) {
		return // flag set: dropped by the VP rule
	}
	counts := t.Row(rep.Label)
	rep.Bits.ForEachSet(func(i int) {
		if i < cp.d {
			counts[i]++
		}
	})
}

// Merge folds another accumulator of the same mechanism into this one; an
// accumulator of a mechanism with other probabilities is refused.
func (a *CPAccumulator) Merge(o *CPAccumulator) error {
	if o.cp != a.cp && o.cp.id != a.cp.id {
		return fmt.Errorf("core: cannot merge a %s accumulator into a %s one", o.cp.id, a.cp.id)
	}
	return a.t.Merge(&o.t)
}

// Total returns N, the number of reports received.
func (a *CPAccumulator) Total() int { return int(a.t.N) }

// Clone returns an independent copy of the aggregate, sharing only the
// immutable mechanism.
func (a *CPAccumulator) Clone() *CPAccumulator { return &CPAccumulator{cp: a.cp, t: a.t.Clone()} }

// MarshalBinary encodes the count table, so a collection server can
// checkpoint its aggregation state across restarts.
func (a *CPAccumulator) MarshalBinary() ([]byte, error) { return a.t.MarshalBinary() }

// UnmarshalBinary restores a count table of this accumulator's shape; on
// error the accumulator is unchanged.
func (a *CPAccumulator) UnmarshalBinary(data []byte) error { return a.t.UnmarshalBinary(data) }

// RawPairCount returns f̃(C, I), the kept-report bit count.
func (a *CPAccumulator) RawPairCount(c, i int) int64 { return a.t.Row(c)[i] }

// RawLabelCount returns ñ(C), the perturbed-label count.
func (a *CPAccumulator) RawLabelCount(c int) int64 { return a.t.Cells[c] }

// EstimateClassSize returns n̂ = (ñ − N·q₁)/(p₁−q₁), the unbiased estimate
// of the number of users with label C.
func (a *CPAccumulator) EstimateClassSize(c int) float64 { return labelSize(a.cp.label, &a.t, c) }

// Estimate returns the calibrated frequency f̂(C, I) of Eq. (4):
//
//	f̂ = (f̃ − N·q₁·q₂·(1−p₂)) / (p₁(1−q₂)(p₂−q₂))
//	    − n̂·q₂·(p₁(1−q₂) − q₁(1−p₂)) / (p₁(1−q₂)(p₂−q₂))
//
// which Theorem 3 proves unbiased.
func (a *CPAccumulator) Estimate(c, i int) float64 {
	p1, q1, p2, q2 := a.cp.Probabilities()
	den := p1 * (1 - q2) * (p2 - q2)
	nHat := a.EstimateClassSize(c)
	fTilde := float64(a.t.Row(c)[i])
	return (fTilde-float64(a.t.N)*q1*q2*(1-p2))/den -
		nHat*q2*(p1*(1-q2)-q1*(1-p2))/den
}

// EstimateAll returns the full calibrated c×d frequency matrix.
func (a *CPAccumulator) EstimateAll() [][]float64 { return a.cp.estimateAll(&a.t) }

// estimateAll is EstimateAll over t. The bias term N·q₁·q₂·(1−p₂) is
// hoisted out of the cell loop with its original association preserved, so
// the matrix is bit-identical to calling Estimate per cell; the loop itself
// runs over the flat int64 count rows.
func (cp *CP) estimateAll(t *state.Table) [][]float64 {
	out := NewMatrix(cp.c, cp.d)
	p1, q1, p2, q2 := cp.Probabilities()
	den := p1 * (1 - q2) * (p2 - q2)
	bias := float64(t.N) * q1 * q2 * (1 - p2)
	for c := 0; c < cp.c; c++ {
		nHat := labelSize(cp.label, t, c)
		corr := nHat * q2 * (p1*(1-q2) - q1*(1-p2)) / den
		cnts, row := t.Row(c), out[c]
		for i := 0; i < cp.d; i++ {
			row[i] = (float64(cnts[i])-bias)/den - corr
		}
	}
	return out
}
