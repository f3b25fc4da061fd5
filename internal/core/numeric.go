package core

import (
	"fmt"
	"strings"

	"repro/internal/mean"
	"repro/internal/state"
)

// This file is the numeric (mean-estimation) counterpart of protocol.go:
// it vends the matched client/server halves of the classwise-mean
// frameworks (internal/mean) together with the wire codec and the
// fingerprinted state envelope that let the tier ride the same collection
// infrastructure as the frequency frameworks — batched HTTP ingestion,
// write-ahead durability and edge→root federation.
//
// A mean report is tiny and fixed-shape: the (perturbed or partition)
// label plus one symbol — the stochastically rounded sign (Minus/Plus), or
// Bottom where the framework makes invalidity itself deniable (CP-Mean).
// The codec validates both ranges, so decoded reports are always safe to
// feed to the protocol's aggregator.

// NumericProtocolNames lists the canonical framework names
// NewNumericProtocol accepts.
func NumericProtocolNames() []string { return []string{"hecmean", "ptsmean", "cpmean"} }

// NumericProtocol is a matched Encoder/Aggregator pair for one classwise
// mean-estimation framework plus the wire codec between them — the numeric
// analogue of Protocol. Build one with NewNumericProtocol.
type NumericProtocol struct {
	name       string
	classes    int
	eps, split float64
	halves     *mean.Halves
	fp         string // the Fingerprint, computed once
}

// NewNumericProtocol vends the client/server halves of a canonical mean
// framework over classes classes at budget eps. split is the label-budget
// fraction ε₁/ε for ptsmean and cpmean and is ignored by hecmean, which
// spends the whole budget on the value mechanism — for hecmean the split
// is canonicalized to 0, so two hecmean deployments configured with
// different (unused) split values still fingerprint as the interchangeable
// protocols they are. Names are canonicalized like the frequency
// protocols, so "HEC-Mean", "pts_mean" and "cpmean" all resolve.
func NewNumericProtocol(name string, classes int, eps, split float64) (*NumericProtocol, error) {
	canon := CanonicalProtocolName(name)
	var (
		halves *mean.Halves
		err    error
	)
	switch canon {
	case "hecmean":
		split = 0 // unused: keep it out of the compatibility identity
		halves, err = mean.NewHECMeanHalves(classes, eps)
	case "ptsmean":
		halves, err = mean.NewPTSMeanHalves(classes, eps, split)
	case "cpmean":
		halves, err = mean.NewCPMeanHalves(classes, eps, split)
	default:
		return nil, fmt.Errorf("core: unknown numeric protocol %q (want one of %s)",
			name, strings.Join(NumericProtocolNames(), ", "))
	}
	if err != nil {
		return nil, err
	}
	// The "mean:" prefix keeps the numeric namespace disjoint from the
	// frequency fingerprints, so a mean envelope can never be mistaken for a
	// frequency envelope by a federation root serving both tiers over one
	// /merge endpoint.
	fp := fmt.Sprintf("mean:%s|c=%d|eps=%v|split=%v|%s", canon, classes, eps, split, halves.MechID)
	return &NumericProtocol{name: canon, classes: classes, eps: eps, split: split, halves: halves, fp: fp}, nil
}

// Name returns the protocol's canonical name — what a collection server
// advertises in its /mean/config.
func (p *NumericProtocol) Name() string { return p.name }

// Classes returns the label domain size.
func (p *NumericProtocol) Classes() int { return p.classes }

// Epsilon returns the total per-user privacy budget ε.
func (p *NumericProtocol) Epsilon() float64 { return p.eps }

// Split returns the label-budget fraction ε₁/ε the protocol was built with
// (meaningful for ptsmean and cpmean only).
func (p *NumericProtocol) Split() float64 { return p.split }

// Symbols returns the report symbol alphabet size (2 for sign reports,
// 3 when ⊥ is on the wire).
func (p *NumericProtocol) Symbols() int { return p.halves.Symbols }

// Encoder returns the client half. It is shared and safe for concurrent
// use with per-goroutine rands.
func (p *NumericProtocol) Encoder() mean.Encoder { return p.halves.Encoder }

// NewAggregator returns an empty server half.
func (p *NumericProtocol) NewAggregator() mean.Aggregator { return p.halves.NewAggregator() }

// NewTable returns an empty count table of the protocol's shape — the
// server half's state without the aggregator around it.
func (p *NumericProtocol) NewTable() state.Table { return state.NewTable(p.halves.Shape()) }

// Fold folds one decoded report into t, a table of p's shape.
func (p *NumericProtocol) Fold(t *state.Table, rep mean.Report) {
	p.halves.AddCounts(t, rep.Label, rep.Symbol, 1)
}

// Calibrate returns the classwise means and class sizes t's counts estimate.
func (p *NumericProtocol) Calibrate(t *state.Table) (means, classSizes []float64) {
	return p.halves.Calibrate(t)
}

// WireCompatible reports whether o's reports and aggregates are
// interchangeable with p's: same name, domain, budget AND underlying
// mechanism calibration.
func (p *NumericProtocol) WireCompatible(o *NumericProtocol) error {
	switch {
	case o == nil:
		return fmt.Errorf("core: nil numeric protocol")
	case p.name != o.name:
		return fmt.Errorf("core: numeric protocol name %q != %q", p.name, o.name)
	case p.classes != o.classes:
		return fmt.Errorf("core: numeric protocol domain %d != %d classes", p.classes, o.classes)
	case p.eps != o.eps || p.split != o.split:
		return fmt.Errorf("core: numeric protocol budget (ε=%v split=%v) != (ε=%v split=%v)",
			p.eps, p.split, o.eps, o.split)
	case p.halves.MechID != o.halves.MechID:
		return fmt.Errorf("core: numeric protocol mechanisms differ: %s != %s", p.halves.MechID, o.halves.MechID)
	}
	return nil
}

// Fingerprint identifies everything that makes two numeric protocols'
// aggregates interchangeable.
func (p *NumericProtocol) Fingerprint() string { return p.fp }

// WireMeanReport is the JSON wire form of a mean report: the label (the
// perturbed class for ptsmean/cpmean, the user's partition group for
// hecmean) and the perturbed symbol (0 = −, 1 = +, 2 = ⊥ for cpmean).
type WireMeanReport struct {
	Label  int `json:"label"`
	Symbol int `json:"symbol"`
}

// EncodeMeanReport serializes a report produced by this protocol's
// Encoder.
func (p *NumericProtocol) EncodeMeanReport(rep mean.Report) WireMeanReport {
	return WireMeanReport{Label: rep.Label, Symbol: rep.Symbol}
}

// DecodeMeanReport validates a wire payload against the protocol's report
// shape and rebuilds the in-memory report. Decoded reports are always safe
// to feed to the protocol's Aggregator.
func (p *NumericProtocol) DecodeMeanReport(w WireMeanReport) (mean.Report, error) {
	if w.Label < 0 || w.Label >= p.classes {
		return mean.Report{}, fmt.Errorf("core: %s report label %d outside [0,%d)", p.name, w.Label, p.classes)
	}
	if w.Symbol < 0 || w.Symbol >= p.halves.Symbols {
		return mean.Report{}, fmt.Errorf("core: %s report symbol %d outside [0,%d)", p.name, w.Symbol, p.halves.Symbols)
	}
	return mean.Report{Label: w.Label, Symbol: w.Symbol}, nil
}

// AppendTable appends t, a table of p's shape, to dst in a versioned
// envelope fingerprinted for p — the bytes that cross process boundaries:
// WAL compaction snapshots and deltas, disk checkpoints and the edge→root
// /merge tier.
func (p *NumericProtocol) AppendTable(dst []byte, t *state.Table) []byte {
	return state.AppendTable(dst, p.fp, t)
}

// CheckEnvelope checks an envelope AppendTable wrote, after verifying it
// belongs to p before trusting a byte of the payload (see checkEnvelope);
// state from before count tables is read through the shim in legacy.go.
// The table is added straight from the envelope's bytes
// (state.Table.MergeChecked).
func (p *NumericProtocol) CheckEnvelope(env []byte) (state.CheckedTable, error) {
	return checkEnvelope(env, p.fp, p.halves.Shape(), func(payload []byte) ([]byte, error) {
		return upgradeMeanState(p, payload)
	})
}

// OpenTableInto is CheckEnvelope into dst, whose cells it reuses when
// they fit; on error dst is unchanged.
func (p *NumericProtocol) OpenTableInto(dst *state.Table, env []byte) error {
	return openInto(dst, p.halves.Shape(), p.CheckEnvelope, env)
}

// MarshalAggregator serializes a's state into a versioned envelope
// fingerprinted for this protocol.
func (p *NumericProtocol) MarshalAggregator(a mean.Aggregator) ([]byte, error) {
	payload, err := a.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return state.Encode(p.fp, payload), nil
}

// UnmarshalAggregator is OpenTableInto returning the table as an
// aggregator.
func (p *NumericProtocol) UnmarshalAggregator(data []byte) (mean.Aggregator, error) {
	var t state.Table
	if err := p.OpenTableInto(&t, data); err != nil {
		return nil, err
	}
	return p.halves.Aggregate(t), nil
}
