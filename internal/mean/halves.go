package mean

import (
	"fmt"

	"repro/internal/fo"
	"repro/internal/state"
	"repro/internal/xrand"
)

// This file decomposes the mean-estimation frameworks into their deployment
// halves, mirroring the frequency tier's core.Encoder / core.Aggregator
// split: the client perturbs one user's (label, value) pair into an opaque
// Report, the server folds reports it never saw in the clear into a
// mergeable integer-count aggregate and calibrates means and class sizes
// from it. Every estimator's Estimate is a thin loop over its own halves,
// so batch, streaming and sharded-then-merged aggregation are bit-identical
// by construction.
//
// Unlike the frequency encoders, a mean Encoder also receives the user's
// canonical index: HEC-Mean partitions the population into c groups, and
// deriving the group deterministically from the index (user mod c) makes
// the partition reproducible by any client that knows its own index — no
// server-coordinated group assignment, no shared randomness. The other
// frameworks ignore the index.

// Encoder is the client half of a mean-estimation framework: it perturbs
// one user's (label, value) pair into a Report under the framework's full
// ε-LDP guarantee. Encoders are stateless and safe for concurrent use as
// long as each goroutine supplies its own rand.
type Encoder interface {
	// Encode perturbs v for the user with canonical index user (≥ 0). The
	// value must lie in the framework's (classes, [−1,1]) domain;
	// out-of-domain inputs panic, as misuse at the perturbation site must
	// not corrupt aggregates silently.
	Encode(v Value, user int, r *xrand.Rand) Report
}

// Aggregator is the server half: it folds reports into one count table
// (state.Table) and produces the framework's calibrated estimates.
// Implementations are not safe for concurrent use; shard and Merge instead.
// Merging is exact — any partition of a report stream over aggregators
// merges to bit-identical estimates.
type Aggregator interface {
	// Add folds one report into the aggregate. Reports decoded from the
	// wire by the numeric protocol's codec are always safe to Add;
	// hand-built out-of-domain reports panic.
	Add(Report)
	// AddCounts folds n reports of one (label, symbol) cell at once — what
	// Add does n times over, which is how a binary frame (counted into
	// cells by the protocol's codec) reaches the aggregate. n must not be
	// negative; an out-of-domain cell or a negative n panics like Add, and
	// a recovered panic leaves the aggregate unchanged.
	AddCounts(label, symbol int, n int64)
	// Merge folds another aggregator of the same framework into this one.
	Merge(other Aggregator) error
	// N returns the number of reports added so far.
	N() int
	// Means returns the calibrated classwise mean estimates.
	Means() []float64
	// ClassSizes returns per-class population estimates: the label-count
	// calibration where the framework has one (PTS-Mean, CP-Mean), the
	// uniform prior N/c for HEC-Mean, whose deterministic partition
	// carries no class signal — the strawman cannot do better.
	ClassSizes() []float64
	// MarshalBinary encodes the count table (never individual values) so
	// servers can checkpoint and federate. Restoring and estimating is
	// bit-identical to estimating the live aggregator.
	MarshalBinary() ([]byte, error)
	// UnmarshalBinary restores a table encoded by MarshalBinary from an
	// aggregator with the same framework parameters; a mismatched shape or
	// a table no report stream could produce is an error and leaves the
	// aggregator unchanged.
	UnmarshalBinary([]byte) error
}

// Cloner is implemented by every aggregator in this package: Clone copies
// the count table (one slice copy), sharing nothing mutable with the
// original. Collection servers clone under their aggregate's lock and
// calibrate the copy outside it.
type Cloner interface {
	Clone() Aggregator
}

// Halves bundles one framework's client/server decomposition plus the
// metadata a wire protocol needs: the symbol alphabet size its reports
// carry and a fingerprint of the perturbation mechanisms behind the halves
// (names and calibration probabilities), so two deployments can be checked
// for aggregate interchangeability beyond their advertised parameters.
type Halves struct {
	Encoder       Encoder
	NewAggregator func() Aggregator
	// Symbols is the report symbol alphabet size: 2 for sign reports
	// (Minus, Plus), 3 when the invalidity symbol ⊥ is deniable too
	// (CP-Mean).
	Symbols int
	// MechID fingerprints the perturbation mechanisms.
	MechID string
}

// signSymbol maps an SR output sign (±1) onto the report symbol alphabet.
func signSymbol(sign int) int {
	if sign > 0 {
		return Plus
	}
	return Minus
}

// checkValue panics on a pair outside the (classes, [−1,1]) domain —
// misuse at the perturbation site, mirroring the frequency encoders.
func checkValue(v Value, classes, user int) {
	if user < 0 {
		panic(fmt.Sprintf("mean: negative user index %d", user))
	}
	if v.Class < 0 || v.Class >= classes {
		panic(fmt.Sprintf("mean: class %d outside [0,%d)", v.Class, classes))
	}
	if !(v.X >= -1 && v.X <= 1) { // catches NaN too
		panic(fmt.Sprintf("mean: value %v outside [-1,1]", v.X))
	}
}

// counts is the one count table (state.Table) every mean aggregator keeps:
// a single route of classes × symbols cells, cell label·symbols+symbol
// counting the reports of that (label, symbol) — the layout a checked
// binary frame's cells already have. A report adds one to one cell, so the
// cells sum to N and a label's report count is the sum of its symbols.
type counts struct {
	classes, symbols int
	t                state.Table
}

func newCounts(classes, symbols int) counts {
	return counts{classes, symbols, state.NewTable(state.Shape{Rows: 1, Cols: classes * symbols, OneHot: true})}
}

// Add validates and folds one report.
func (a *counts) Add(rep Report) { a.AddCounts(rep.Label, rep.Symbol, 1) }

// AddCounts validates and folds n reports of one (label, symbol) cell. The
// cell and the count are checked before anything is counted, so a
// recovered panic leaves the aggregate as it was.
func (a *counts) AddCounts(label, symbol int, n int64) {
	switch {
	case label < 0 || label >= a.classes:
		panic(fmt.Sprintf("mean: report label %d outside [0,%d)", label, a.classes))
	case symbol < 0 || symbol >= a.symbols:
		panic(fmt.Sprintf("mean: symbol %d outside [0,%d)", symbol, a.symbols))
	case n < 0:
		panic(fmt.Sprintf("mean: negative report count %d", n))
	}
	a.t.Row(0)[label*a.symbols+symbol] += n
	a.t.N += n
}

// cell returns the reports of one (label, symbol).
func (a *counts) cell(label, symbol int) int64 { return a.t.Row(0)[label*a.symbols+symbol] }

// N implements the Aggregator report count.
func (a *counts) N() int { return int(a.t.N) }

func (a *counts) clone() counts { return counts{a.classes, a.symbols, a.t.Clone()} }

func (a *counts) table() *state.Table { return &a.t }

// MarshalBinary implements the Aggregator snapshot contract.
func (a *counts) MarshalBinary() ([]byte, error) { return a.t.MarshalBinary() }

// UnmarshalBinary implements the Aggregator snapshot contract.
func (a *counts) UnmarshalBinary(data []byte) error { return a.t.UnmarshalBinary(data) }

// mergeCounts is every mean aggregator's Merge: other must be the same
// framework, whose table it adds in.
func mergeCounts[T interface{ table() *state.Table }](a T, other Aggregator) error {
	o, ok := other.(T)
	if !ok {
		return fmt.Errorf("mean: cannot merge %T into %T", other, a)
	}
	return a.table().Merge(o.table())
}

// ---------------------------------------------------------------------------
// HEC-Mean halves.
// ---------------------------------------------------------------------------

// NewHECMeanHalves vends the HEC-Mean client/server decomposition over
// classes groups at budget eps.
func NewHECMeanHalves(classes int, eps float64) (*Halves, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("mean: HEC halves with %d classes", classes)
	}
	sr, err := NewSR(eps)
	if err != nil {
		return nil, err
	}
	return &Halves{
		Encoder:       &hecEncoder{c: classes, sr: sr},
		NewAggregator: func() Aggregator { return &hecAggregator{newCounts(classes, 2), sr} },
		Symbols:       2,
		MechID:        fmt.Sprintf("mod%d+SR[p=%v]", classes, sr.P()),
	}, nil
}

// hecEncoder derives the user's group from their canonical index (user mod
// c); a user whose label mismatches the group submits a uniform random
// value for deniability — the Section II-D strawman, numerically.
type hecEncoder struct {
	c  int
	sr *SR
}

func (e *hecEncoder) Encode(v Value, user int, r *xrand.Rand) Report {
	checkValue(v, e.c, user)
	g := user % e.c
	x := v.X
	if v.Class != g {
		x = 2*r.Float64() - 1 // uniform substitute
	}
	return Report{Label: g, Symbol: signSymbol(e.sr.Perturb(x, r))}
}

// hecAggregator keeps per-group sign counts and calibrates each group's
// mean as if every member were valid, which carries the strawman's
// shrink-toward-zero bias.
type hecAggregator struct {
	counts
	sr *SR
}

func (a *hecAggregator) Merge(other Aggregator) error { return mergeCounts(a, other) }

// Clone implements Cloner.
func (a *hecAggregator) Clone() Aggregator { return &hecAggregator{a.clone(), a.sr} }

func (a *hecAggregator) Means() []float64 {
	out := make([]float64, a.classes)
	for g := range out {
		plus, minus := a.cell(g, Plus), a.cell(g, Minus)
		if n := plus + minus; n > 0 {
			out[g] = a.sr.Calibrate(float64(plus-minus)) / float64(n)
		}
	}
	return out
}

// ClassSizes returns the uniform prior N/c for every class: the partition
// is a function of the user index alone, so group populations carry zero
// information about class membership — part of why HEC is the strawman.
func (a *hecAggregator) ClassSizes() []float64 {
	out := make([]float64, a.classes)
	for g := range out {
		out[g] = float64(a.t.N) / float64(a.classes)
	}
	return out
}

// ---------------------------------------------------------------------------
// PTS-Mean halves.
// ---------------------------------------------------------------------------

// NewPTSMeanHalves vends the PTS-Mean decomposition: label via GRR(ε·split),
// value via SR(ε·(1−split)), independently.
func NewPTSMeanHalves(classes int, eps, split float64) (*Halves, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("mean: PTS halves with %d classes", classes)
	}
	if !(split > 0 && split < 1) {
		return nil, fmt.Errorf("mean: PTS split %v must be in (0,1)", split)
	}
	label, err := fo.NewGRR(classes, eps*split)
	if err != nil {
		return nil, err
	}
	sr, err := NewSR(eps * (1 - split))
	if err != nil {
		return nil, err
	}
	return &Halves{
		Encoder:       &ptsEncoder{c: classes, label: label, sr: sr},
		NewAggregator: func() Aggregator { return &ptsAggregator{newCounts(classes, 2), label, sr} },
		Symbols:       2,
		MechID: fmt.Sprintf("%s[d=%d,p=%v,q=%v]+SR[p=%v]",
			label.Name(), label.DomainSize(), label.P(), label.Q(), sr.P()),
	}, nil
}

// ptsEncoder perturbs the label and the value sign independently.
type ptsEncoder struct {
	c     int
	label *fo.GRR
	sr    *SR
}

func (e *ptsEncoder) Encode(v Value, user int, r *xrand.Rand) Report {
	checkValue(v, e.c, user)
	lab := e.label.PerturbValue(v.Class, r)
	return Report{Label: lab, Symbol: signSymbol(e.sr.Perturb(v.X, r))}
}

// ptsAggregator routes sign counts by perturbed label and undoes the
// cross-class label migration with the E[S̃_C] = p₁T_C + q₁(T−T_C)
// calibration.
type ptsAggregator struct {
	counts
	label *fo.GRR
	sr    *SR
}

func (a *ptsAggregator) Merge(other Aggregator) error { return mergeCounts(a, other) }

// Clone implements Cloner.
func (a *ptsAggregator) Clone() Aggregator { return &ptsAggregator{a.clone(), a.label, a.sr} }

func (a *ptsAggregator) Means() []float64 {
	p1, q1 := a.label.P(), a.label.Q()
	// Calibrated routed sums and the global sum.
	total := 0.0
	routed := make([]float64, a.classes)
	for ci := range routed {
		routed[ci] = a.sr.Calibrate(float64(a.cell(ci, Plus) - a.cell(ci, Minus)))
		total += routed[ci]
	}
	sizes := a.ClassSizes()
	out := make([]float64, a.classes)
	for ci := range out {
		tC := (routed[ci] - q1*total) / (p1 - q1)
		if sizes[ci] > 1 {
			out[ci] = clamp(tC / sizes[ci])
		}
	}
	return out
}

func (a *ptsAggregator) ClassSizes() []float64 {
	n := float64(a.t.N)
	p1, q1 := a.label.P(), a.label.Q()
	out := make([]float64, a.classes)
	for ci := range out {
		labelCount := float64(a.cell(ci, Plus) + a.cell(ci, Minus))
		out[ci] = (labelCount - n*q1) / (p1 - q1)
	}
	return out
}

// ---------------------------------------------------------------------------
// CP-Mean halves.
// ---------------------------------------------------------------------------

// NewCPMeanHalves vends the correlated-perturbation decomposition: the
// label outcome gates the value input, and invalidity is itself deniable
// through the 3-ary sign GRR.
func NewCPMeanHalves(classes int, eps, split float64) (*Halves, error) {
	m, err := NewCPMean(classes, eps, split)
	if err != nil {
		return nil, err
	}
	p1, q1, p2, q2 := m.Probabilities()
	return &Halves{
		Encoder:       &cpEncoder{m: m},
		NewAggregator: func() Aggregator { return &cpAggregator{m.NewAccumulator()} },
		Symbols:       3,
		MechID:        fmt.Sprintf("CPMean[p1=%v,q1=%v,p2=%v,q2=%v]", p1, q1, p2, q2),
	}, nil
}

// cpEncoder applies the correlated mechanism; the user index is unused
// (CP-Mean needs no partition).
type cpEncoder struct {
	m *CPMean
}

func (e *cpEncoder) Encode(v Value, user int, r *xrand.Rand) Report {
	checkValue(v, e.m.classes, user)
	return e.m.Perturb(v, r)
}

// cpAggregator adapts the CPMean Accumulator (the difference estimator) to
// the generic Aggregator interface.
type cpAggregator struct {
	*Accumulator
}

func (a *cpAggregator) Merge(other Aggregator) error {
	o, ok := other.(*cpAggregator)
	if !ok {
		return fmt.Errorf("mean: cannot merge %T into CP-Mean aggregator", other)
	}
	return a.Accumulator.Merge(o.Accumulator)
}

func (a *cpAggregator) N() int { return a.Total() }

// Clone implements Cloner.
func (a *cpAggregator) Clone() Aggregator {
	return &cpAggregator{&Accumulator{m: a.m, cells: a.cells.clone()}}
}

func (a *cpAggregator) Means() []float64 {
	out := make([]float64, a.m.classes)
	for c := range out {
		out[c] = a.EstimateMean(c)
	}
	return out
}

func (a *cpAggregator) ClassSizes() []float64 {
	out := make([]float64, a.m.classes)
	for c := range out {
		out[c] = a.EstimateClassSize(c)
	}
	return out
}

// MarshalBinary implements the Aggregator snapshot contract.
func (a *cpAggregator) MarshalBinary() ([]byte, error) { return a.cells.MarshalBinary() }

// UnmarshalBinary implements the Aggregator snapshot contract.
func (a *cpAggregator) UnmarshalBinary(data []byte) error { return a.cells.UnmarshalBinary(data) }
