package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/fo"
	"repro/internal/state"
	"repro/internal/xrand"
)

// VP is the validity perturbation mechanism (Section IV-A): unary encoding
// over d+1 bits where bit d is a validity flag. A valid item v encodes as
// one-hot at position v with flag 0; an invalid item encodes as all-zero
// item bits with flag 1. Every bit is then flipped with the OUE
// probabilities p = 1/2, q = 1/(e^ε+1), so the whole report — flag included —
// satisfies ε-LDP (Theorem 1) without spending extra budget on validity.
//
// The server-side rule that realizes Theorem 5's noise reduction is: drop
// every report whose perturbed flag bit is 1. An invalid user's report then
// only survives with probability 1−p, and contributes q to each item only in
// that case, for expected injected noise m·q·(1−p) versus m·(q + (p−q)/d)
// under plain OUE with random substitution (Theorem 4).
type VP struct {
	d   int
	eps float64
	ue  *fo.UE // bit-flip kernel over d+1 positions
}

// NewVP builds a validity perturbation mechanism for item domain size d and
// budget eps, using the OUE probabilities as in the paper.
func NewVP(d int, eps float64) (*VP, error) {
	if d <= 0 {
		return nil, fmt.Errorf("core: VP item domain %d must be positive", d)
	}
	ue, err := fo.NewOUE(d+1, eps)
	if err != nil {
		return nil, err
	}
	return &VP{d: d, eps: eps, ue: ue}, nil
}

// DomainSize returns d, the valid item domain size (excluding the flag).
func (vp *VP) DomainSize() int { return vp.d }

// Epsilon returns the privacy budget.
func (vp *VP) Epsilon() float64 { return vp.eps }

// P returns the 1-bit retention probability.
func (vp *VP) P() float64 { return vp.ue.P() }

// Q returns the 0-bit flip probability.
func (vp *VP) Q() float64 { return vp.ue.Q() }

// FlagBit returns the index of the validity flag bit.
func (vp *VP) FlagBit() int { return vp.d }

// Encode produces the d+1-bit encoding of v (Fig. 2): one-hot at v with
// flag 0 when v is valid, all-zero with flag 1 when v == Invalid.
func (vp *VP) Encode(v int) *bitvec.Vector {
	b := bitvec.New(vp.d + 1)
	b.Set(vp.onePos(v))
	return b
}

// onePos returns the one bit of Encode(v): v, or the flag bit for Invalid.
func (vp *VP) onePos(v int) int {
	if v == Invalid {
		return vp.d
	}
	if v < 0 || v >= vp.d {
		panic(fmt.Sprintf("core: VP item %d outside [0,%d)", v, vp.d))
	}
	return v
}

// Perturb encodes and perturbs v (which may be Invalid): OUE over d+1 bits.
func (vp *VP) Perturb(v int, r *xrand.Rand) *bitvec.Vector {
	return vp.ue.PerturbBits(vp.onePos(v), r)
}

// VPAccumulator aggregates validity-perturbation reports, dropping any
// report whose perturbed flag bit is set.
type VPAccumulator struct {
	vp *VP
	// t is one row of d+1 cells laid out like a report: the items' 1-bit
	// counts over kept reports, then the flag cell, to which a dropped report
	// adds its only count. t.N counts every report.
	t state.Table
}

// NewAccumulator returns an empty aggregator for vp's reports.
func (vp *VP) NewAccumulator() *VPAccumulator {
	return &VPAccumulator{vp: vp, t: state.NewTable(state.Shape{Rows: 1, Cols: vp.d + 1})}
}

// Add folds one perturbed report into the aggregate.
func (a *VPAccumulator) Add(bits *bitvec.Vector) {
	if bits.Len() != a.vp.d+1 {
		panic(fmt.Sprintf("core: VP report length %d != %d", bits.Len(), a.vp.d+1))
	}
	a.t.N++
	if bits.Get(a.vp.d) {
		a.t.Cells[a.vp.d]++
		return
	}
	bits.ForEachSet(func(i int) { a.t.Cells[i]++ })
}

// Merge folds another accumulator of the same mechanism into this one.
func (a *VPAccumulator) Merge(o *VPAccumulator) error {
	if o.vp.d != a.vp.d {
		return fmt.Errorf("core: VP merge domain mismatch %d != %d", o.vp.d, a.vp.d)
	}
	return a.t.Merge(&o.t)
}

// Total returns the number of reports received (kept + dropped).
func (a *VPAccumulator) Total() int { return int(a.t.N) }

// Kept returns the number of reports whose perturbed flag was 0.
func (a *VPAccumulator) Kept() int { return a.Total() - a.Dropped() }

// Dropped returns the number of reports discarded by the flag rule.
func (a *VPAccumulator) Dropped() int { return int(a.t.Cells[a.vp.d]) }

// RawCount returns the kept-report 1-bit count of item v. Top-k mining ranks
// by raw counts: Theorem 7 shows the expectation is a consistent (1−q)
// scaling of the true counts plus reduced invalid noise, so rank order is
// preserved.
func (a *VPAccumulator) RawCount(v int) int64 {
	if v < 0 || v >= a.vp.d {
		panic(fmt.Sprintf("core: VP item %d outside [0,%d)", v, a.vp.d))
	}
	return a.t.Cells[v]
}

// Estimate returns the calibrated count of item v:
//
//	f̂(v) = (count/(1−q) − N·q) / (p − q)
//
// which is unbiased when all reporting users are valid (m = 0): from
// Theorem 7, E[count] = (1−q)(N1·p + N2·q). With invalid users present the
// residual bias is the attenuated m·q·(1−p)/((1−q)(p−q)) term, which is the
// whole point of the mechanism — it is small and identical across items.
func (a *VPAccumulator) Estimate(v int) float64 {
	p, q := a.vp.P(), a.vp.Q()
	return (float64(a.RawCount(v))/(1-q) - float64(a.t.N)*q) / (p - q)
}

// EstimateAll returns calibrated counts for the full item domain.
func (a *VPAccumulator) EstimateAll() []float64 {
	out := make([]float64, a.vp.d)
	for v := range out {
		out[v] = a.Estimate(v)
	}
	return out
}
