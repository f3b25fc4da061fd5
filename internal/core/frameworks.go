package core

import (
	"fmt"

	"repro/internal/xrand"
)

// FrequencyEstimator is a multi-class frequency-estimation framework
// (Section VI-A): it perturbs every user's pair under ε-LDP and returns the
// calibrated c×d frequency matrix.
type FrequencyEstimator interface {
	// Name identifies the framework in experiment output.
	Name() string
	// Epsilon returns the total per-user privacy budget.
	Epsilon() float64
	// Estimate runs the full pipeline over the dataset.
	Estimate(data *Dataset, r *xrand.Rand) ([][]float64, error)
}

// ---------------------------------------------------------------------------
// HEC — handle each class independently (Section II-D, the strawman).
// ---------------------------------------------------------------------------

// HEC partitions users uniformly at random into c groups, one per class.
// A user whose label matches their group's class submits their item; any
// other user submits a uniform random item for deniability. Each group runs
// the adaptive mechanism over the item domain with the full budget ε.
// The estimator f̂(C,I) = (c·f̃(C,I) − N·q)/(p−q) carries the invalid-data
// bias (N−n)/d the paper's Section V quantifies — HEC is the baseline the
// optimized frameworks beat.
type HEC struct {
	eps float64
}

// NewHEC builds the HEC framework with budget eps.
func NewHEC(eps float64) *HEC { return &HEC{eps: eps} }

// Name implements FrequencyEstimator.
func (h *HEC) Name() string { return "HEC" }

// Epsilon implements FrequencyEstimator.
func (h *HEC) Epsilon() float64 { return h.eps }

// Protocol vends the framework's client/server halves for a (c, d) domain.
func (h *HEC) Protocol(c, d int) (*Protocol, error) {
	return NewProtocol("hec", c, d, h.eps, 0)
}

// Estimate implements FrequencyEstimator as a thin loop over the
// framework's Encoder/Aggregator halves.
func (h *HEC) Estimate(data *Dataset, r *xrand.Rand) ([][]float64, error) {
	return estimateViaProtocol(h.Protocol, data, r)
}

// ---------------------------------------------------------------------------
// PTJ — perturb the pair jointly (Section III-B).
// ---------------------------------------------------------------------------

// PTJ treats the pair as one value in the Cartesian domain C × I of size
// c·d and perturbs it with the adaptive mechanism under the full budget ε.
// Utility is high (no budget split, no invalid data) at the price of O(c·d)
// communication per user.
type PTJ struct {
	eps float64
}

// NewPTJ builds the PTJ framework with budget eps.
func NewPTJ(eps float64) *PTJ { return &PTJ{eps: eps} }

// Name implements FrequencyEstimator.
func (f *PTJ) Name() string { return "PTJ" }

// Epsilon implements FrequencyEstimator.
func (f *PTJ) Epsilon() float64 { return f.eps }

// JointIndex maps a pair to its index in the Cartesian domain.
func JointIndex(pair Pair, d int) int { return pair.Class*d + pair.Item }

// Protocol vends the framework's client/server halves for a (c, d) domain.
func (f *PTJ) Protocol(c, d int) (*Protocol, error) {
	return NewProtocol("ptj", c, d, f.eps, 0)
}

// Estimate implements FrequencyEstimator as a thin loop over the
// framework's Encoder/Aggregator halves.
func (f *PTJ) Estimate(data *Dataset, r *xrand.Rand) ([][]float64, error) {
	return estimateViaProtocol(f.Protocol, data, r)
}

// ---------------------------------------------------------------------------
// PTS — perturb the pair separately (Section III-B, estimator Eq. 6).
// ---------------------------------------------------------------------------

// PTS splits the budget: the label is perturbed with GRR(ε₁) and the item —
// independently — with OUE(ε₂) (the paper's choice for a small label domain
// and a large item domain). The unbiased calibration is Eq. (6), which must
// correct for labels that migrated between classes.
type PTS struct {
	eps   float64
	split float64 // ε₁ = split·ε
}

// NewPTS builds the PTS framework; split is the fraction of ε spent on the
// label (the paper's default is 0.5).
func NewPTS(eps, split float64) (*PTS, error) {
	if !(split > 0 && split < 1) {
		return nil, fmt.Errorf("core: PTS budget split %v must be in (0,1)", split)
	}
	return &PTS{eps: eps, split: split}, nil
}

// Name implements FrequencyEstimator.
func (f *PTS) Name() string { return "PTS" }

// Epsilon implements FrequencyEstimator.
func (f *PTS) Epsilon() float64 { return f.eps }

// Protocol vends the framework's client/server halves for a (c, d) domain.
func (f *PTS) Protocol(c, d int) (*Protocol, error) {
	return NewProtocol("pts", c, d, f.eps, f.split)
}

// Estimate implements FrequencyEstimator as a thin loop over the
// framework's Encoder/Aggregator halves (label GRR(ε₁), item OUE(ε₂),
// Eq. 6 calibration in the aggregator).
func (f *PTS) Estimate(data *Dataset, r *xrand.Rand) ([][]float64, error) {
	return estimateViaProtocol(f.Protocol, data, r)
}

// ---------------------------------------------------------------------------
// PTS-CP — PTS with the correlated perturbation (Section IV-B, Eq. 4).
// ---------------------------------------------------------------------------

// PTSCP runs the PTS framework with the correlated perturbation mechanism:
// the item perturbation observes the label outcome and voids the item when
// the label moved, and the server drops flag-set reports. Eq. (4) calibrates
// the kept counts into unbiased frequencies.
type PTSCP struct {
	eps   float64
	split float64
}

// NewPTSCP builds the PTS-CP framework; split is the fraction of ε spent on
// the label (the paper's default is 0.5).
func NewPTSCP(eps, split float64) (*PTSCP, error) {
	if !(split > 0 && split < 1) {
		return nil, fmt.Errorf("core: PTS-CP budget split %v must be in (0,1)", split)
	}
	return &PTSCP{eps: eps, split: split}, nil
}

// Name implements FrequencyEstimator.
func (f *PTSCP) Name() string { return "PTS-CP" }

// Epsilon implements FrequencyEstimator.
func (f *PTSCP) Epsilon() float64 { return f.eps }

// Protocol vends the framework's client/server halves for a (c, d) domain.
func (f *PTSCP) Protocol(c, d int) (*Protocol, error) {
	return NewProtocol("ptscp", c, d, f.eps, f.split)
}

// Estimate implements FrequencyEstimator as a thin loop over the
// framework's Encoder/Aggregator halves (correlated perturbation, Eq. 4
// calibration in the aggregator).
func (f *PTSCP) Estimate(data *Dataset, r *xrand.Rand) ([][]float64, error) {
	return estimateViaProtocol(f.Protocol, data, r)
}
