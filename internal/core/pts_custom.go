package core

import (
	"fmt"

	"repro/internal/fo"
	"repro/internal/xrand"
)

// ItemMechanismFactory builds an item perturber for a domain and budget.
// fo.NewOUE is the paper's choice; fo.NewOLH trades server time for
// O(log g) communication, and fo.NewAdaptive picks per domain size.
type ItemMechanismFactory func(d int, eps float64) (fo.Mechanism, error)

// PTSCustom is the PTS framework over another item mechanism of
// internal/fo. The Eq. (6) calibration only needs the item mechanism's
// support probabilities (p₂, q₂): the label-migration algebra is unchanged.
type PTSCustom struct {
	name  string
	eps   float64
	split float64
	item  ItemMechanismFactory
}

// NewPTSWithItem builds a PTS variant using the given item mechanism
// factory; split is the label-budget fraction ε₁/ε.
func NewPTSWithItem(name string, eps, split float64, item ItemMechanismFactory) (*PTSCustom, error) {
	if !(split > 0 && split < 1) {
		return nil, fmt.Errorf("core: PTS budget split %v must be in (0,1)", split)
	}
	if item == nil {
		return nil, fmt.Errorf("core: nil item mechanism factory")
	}
	return &PTSCustom{name: name, eps: eps, split: split, item: item}, nil
}

// Name implements FrequencyEstimator.
func (f *PTSCustom) Name() string { return f.name }

// Epsilon implements FrequencyEstimator.
func (f *PTSCustom) Epsilon() float64 { return f.eps }

// Protocol vends the framework's client/server halves for a (c, d) domain.
func (f *PTSCustom) Protocol(c, d int) (*Protocol, error) {
	return NewPTSProtocolWithItem(f.name, c, d, f.eps, f.split, f.item)
}

// Estimate implements FrequencyEstimator as a thin loop over the
// framework's Encoder/Aggregator halves: each report's item supports are
// counted into its perturbed label's row, and the integer counts are pushed
// through Eq. (6).
func (f *PTSCustom) Estimate(data *Dataset, r *xrand.Rand) ([][]float64, error) {
	return estimateViaProtocol(f.Protocol, data, r)
}
