// Package fo implements the single-value LDP frequency-oracle substrate the
// paper builds on: Generalized Randomized Response (GRR), Symmetric and
// Optimized Unary Encoding (SUE/OUE, the RAPPOR family), Optimal Local
// Hashing (OLH) and the adaptive GRR/OUE selector of Wang et al. (USENIX
// Security 2017), which the paper uses as its "state-of-the-art mechanism".
//
// Every mechanism perturbs one value from a categorical domain {0,..,d-1}
// under ε-LDP; server side, Fold counts a report's supports — the values it
// counts toward — into one row of a count table (internal/state), and an
// Accumulator is that one row plus the unbiased calibration. GRR, UE and
// OLH are the whole set: Mechanism has an unexported method, so every
// aggregate in the tree is a table these three fill. The closed-form
// estimator variances are exposed so that the theory package and the
// statistical tests can cross-check the implementations.
package fo

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/state"
	"repro/internal/xrand"
)

// Report is one perturbed user report. Exactly one of the payload fields is
// meaningful for a given mechanism:
//
//   - GRR, OLH and adaptive-GRR reports carry Value (for OLH it is the
//     perturbed hash bucket, with Seed holding the user's public hash seed).
//   - Unary-encoding reports carry Bits.
type Report struct {
	Value int
	Seed  uint64
	Bits  *bitvec.Vector
}

// Mechanism is a client-side ε-LDP perturbation over a categorical domain.
type Mechanism interface {
	// Name identifies the mechanism in experiment output, e.g. "GRR".
	Name() string
	// Epsilon returns the privacy budget the mechanism was built with.
	Epsilon() float64
	// DomainSize returns d, the number of categorical values.
	DomainSize() int
	// Perturb encodes and perturbs v in [0, DomainSize()).
	Perturb(v int, r *xrand.Rand) Report
	// NewAccumulator returns an empty server-side aggregator for this
	// mechanism's reports.
	NewAccumulator() Accumulator
	// EstimatorVariance returns the closed-form variance of the unbiased
	// count estimate for one item held by trueCount of n users.
	EstimatorVariance(n int, trueCount float64) float64
	// P returns the probability that a held value is supported by the
	// report (GRR retention, UE 1-bit retention, OLH bucket retention).
	P() float64
	// Q returns the probability that a non-held value is supported (GRR
	// flip mass per value, UE 0-bit flip, OLH effective 1/g).
	Q() float64
	// fold adds one to row[v] for every value v the report supports (row
	// has DomainSize() cells). A malformed report panics before row is
	// touched.
	fold(row []int64, rep Report)
}

// Fold adds rep's supports to row, a DomainSize()-cell row of a count
// table: the one way a report enters any aggregate. Malformed reports
// panic and leave row as it was.
func Fold(m Mechanism, row []int64, rep Report) { m.fold(row, rep) }

// Accumulator aggregates perturbed reports and produces unbiased count
// estimates. Implementations are not safe for concurrent use; shard and
// Merge instead.
type Accumulator interface {
	// Add folds one report into the aggregate.
	Add(Report)
	// Merge folds another accumulator of the same mechanism into this one.
	Merge(Accumulator) error
	// N returns the number of reports added so far.
	N() int
	// Estimate returns the unbiased estimated count of value v.
	Estimate(v int) float64
	// EstimateAll returns unbiased estimated counts for the whole domain.
	EstimateAll() []float64
}

// accumulator is every mechanism's Accumulator: a one-row count table of
// the supports of each value, calibrated with (support − N·q)/(p − q).
type accumulator struct {
	m Mechanism
	t state.Table
}

// newAccumulator returns an empty accumulator for m; oneHot says every
// report supports exactly one value (GRR).
func newAccumulator(m Mechanism, oneHot bool) *accumulator {
	return &accumulator{m: m, t: state.NewTable(state.Shape{Rows: 1, Cols: m.DomainSize(), OneHot: oneHot})}
}

func (a *accumulator) Add(rep Report) {
	a.m.fold(a.t.Row(0), rep)
	a.t.N++
}

func (a *accumulator) Merge(other Accumulator) error {
	o, ok := other.(*accumulator)
	if !ok || o.m.Name() != a.m.Name() || o.m.P() != a.m.P() || o.m.Q() != a.m.Q() {
		return fmt.Errorf("fo: cannot merge %T into a %s accumulator", other, a.m.Name())
	}
	return a.t.Merge(&o.t)
}

func (a *accumulator) N() int { return int(a.t.N) }

func (a *accumulator) Estimate(v int) float64 {
	checkDomain(v, a.m.DomainSize())
	q := a.m.Q()
	return (float64(a.t.Row(0)[v]) - float64(a.t.N)*q) / (a.m.P() - q)
}

func (a *accumulator) EstimateAll() []float64 {
	out := make([]float64, a.m.DomainSize())
	for v := range out {
		out[v] = a.Estimate(v)
	}
	return out
}

// MarshalBinary encodes the accumulator's table (state.Table).
func (a *accumulator) MarshalBinary() ([]byte, error) { return a.t.MarshalBinary() }

// UnmarshalBinary restores a table of this accumulator's shape; on error
// the accumulator is unchanged.
func (a *accumulator) UnmarshalBinary(data []byte) error { return a.t.UnmarshalBinary(data) }

// checkDomain panics when v is outside [0, d); all mechanisms share it so
// misuse fails loudly at the perturbation site rather than corrupting
// aggregates.
func checkDomain(v, d int) {
	if v < 0 || v >= d {
		panic(fmt.Sprintf("fo: value %d outside domain [0,%d)", v, d))
	}
}

// validate rejects non-positive domains and non-positive or non-finite
// budgets, which would produce degenerate perturbation probabilities.
func validate(d int, eps float64) error {
	if d <= 0 {
		return fmt.Errorf("fo: domain size %d must be positive", d)
	}
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("fo: privacy budget %v must be a positive finite number", eps)
	}
	return nil
}
