// Package fo implements the single-value LDP frequency-oracle substrate the
// paper builds on: Generalized Randomized Response (GRR), Symmetric and
// Optimized Unary Encoding (SUE/OUE, the RAPPOR family), Optimal Local
// Hashing (OLH) and the adaptive GRR/OUE selector of Wang et al. (USENIX
// Security 2017), which the paper uses as its "state-of-the-art mechanism".
//
// Every mechanism perturbs one value from a categorical domain {0,..,d-1}
// under ε-LDP and pairs with an Accumulator that produces unbiased count
// estimates. The closed-form estimator variances are exposed so that the
// theory package and the statistical tests can cross-check the
// implementations.
package fo

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
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
}

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

// Cloner is implemented by accumulators that can copy their aggregate state
// cheaply (a slice copy of integer counts, never a re-encode). Collection
// servers use it to snapshot their aggregate under its lock and estimate
// from the copy outside the lock. The clone shares the immutable mechanism but no
// mutable state: mutating either side never affects the other.
type Cloner interface {
	// Clone returns an independent copy of the accumulator.
	Clone() Accumulator
}

// CountsReader is implemented by accumulators whose raw per-value supports
// are held as a dense count vector (UE, GRR — not OLH, whose supports cost a
// rehash pass per value). The composite calibrations (HEC, PTJ reshape,
// PTS's Eq. 6) read it to run their per-cell loops over flat integer counts
// instead of per-cell interface calls. The returned slice is borrowed: it
// aliases live aggregator state and must not be mutated or retained across
// an Add.
type CountsReader interface {
	// Counts returns the DomainSize()-length raw support counts.
	Counts() []int64
}

// RowsAdder is implemented by accumulators that can fold bit-vector reports
// while they are still packed in a wire frame (the bitvec.Vector backing
// layout, little-endian) — the whole-frame apply path of the binary wire
// decoder, which sums the reports by column instead of visiting set bits.
// The frame bytes are only borrowed for the call.
type RowsAdder interface {
	// AddRows folds len(offs) reports; report r is the ceil(DomainSize()/64)
	// words at rec[offs[r]:]. Like Add, malformed input (a stray bit beyond
	// the domain, a row running off rec) panics.
	AddRows(rec []byte, offs []int)
}

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
