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
// (state.Table) and produces the framework's calibrated estimates. Every
// framework's halves vend the same aggregator type, the halves plus one
// table; the calibration is the halves'. Implementations are not safe for
// concurrent use; shard and Merge instead. Merging is exact — any partition
// of a report stream over aggregators merges to bit-identical estimates.
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
	// An aggregator of other halves is refused even when the tables' shapes
	// coincide, since its counts calibrate differently.
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
	// counts returns the halves that vended the aggregator and its table.
	// Being unexported, it also keeps every Aggregator this package's.
	counts() (*Halves, *state.Table)
}

// Halves bundles one framework's client/server decomposition plus the
// metadata a wire protocol needs: the symbol alphabet size its reports
// carry and a fingerprint of the perturbation mechanisms behind the halves
// (names and calibration probabilities), so two deployments can be checked
// for aggregate interchangeability beyond their advertised parameters.
type Halves struct {
	Encoder Encoder
	// Symbols is the report symbol alphabet size: 2 for sign reports
	// (Minus, Plus), 3 when the invalidity symbol ⊥ is deniable too
	// (CP-Mean).
	Symbols int
	// MechID fingerprints the perturbation mechanisms. It is computed once,
	// and aggregators merge only when their halves' MechIDs match.
	MechID string

	// The server half: the label domain, the calibration of the aggregate's
	// count table into means, and the label mechanism whose label counts
	// calibrate into class sizes (nil for HEC-Mean).
	classes int
	means   func(t *state.Table) []float64
	label   *fo.GRR
}

// NewAggregator returns an empty server half.
func (h *Halves) NewAggregator() Aggregator { return &aggregator{h, state.NewTable(h.Shape())} }

// Shape is the shape of every count table h's server half keeps.
func (h *Halves) Shape() state.Shape { return tableShape(h.classes, h.Symbols) }

// Aggregate returns the server half over t. t must have h's Shape; a table
// of any other shape is a caller's bug and panics.
func (h *Halves) Aggregate(t state.Table) Aggregator {
	if t.Shape != h.Shape() {
		panic(fmt.Sprintf("mean: %v table for a %v aggregate", t.Shape, h.Shape()))
	}
	return &aggregator{h, t}
}

// AddCounts folds n reports of one (label, symbol) cell into t, a table of
// h's Shape; what Aggregator.AddCounts does to its own table.
func (h *Halves) AddCounts(t *state.Table, label, symbol int, n int64) {
	addCounts(t, h.classes, h.Symbols, label, symbol, n)
}

// Calibrate returns the classwise means and class sizes t's counts
// estimate; what Aggregator.Means and ClassSizes return for its own table.
func (h *Halves) Calibrate(t *state.Table) (means, classSizes []float64) {
	return h.means(t), h.classSizes(t)
}

// aggregator is every framework's Aggregator: the halves that vended it and
// one count table of classes × symbols cells.
type aggregator struct {
	h *Halves
	t state.Table
}

func (a *aggregator) Add(rep Report) { a.AddCounts(rep.Label, rep.Symbol, 1) }

func (a *aggregator) AddCounts(label, symbol int, n int64) { a.h.AddCounts(&a.t, label, symbol, n) }

// Merge adds other's table in when other's halves are these or calibrate
// like them.
func (a *aggregator) Merge(other Aggregator) error {
	oh, ot := other.counts()
	if oh != a.h && oh.MechID != a.h.MechID {
		return fmt.Errorf("mean: cannot merge a %s aggregate into a %s one", oh.MechID, a.h.MechID)
	}
	return a.t.Merge(ot)
}

func (a *aggregator) N() int { return int(a.t.N) }

func (a *aggregator) Means() []float64 { return a.h.means(&a.t) }

func (a *aggregator) ClassSizes() []float64 { return a.h.classSizes(&a.t) }

func (a *aggregator) MarshalBinary() ([]byte, error) { return a.t.MarshalBinary() }

func (a *aggregator) UnmarshalBinary(data []byte) error { return a.t.UnmarshalBinary(data) }

func (a *aggregator) counts() (*Halves, *state.Table) { return a.h, &a.t }

// classSizes calibrates t's label counts into class sizes. Without a label
// mechanism it is the uniform prior N/c for every class: HEC-Mean's
// partition is a function of the user index alone, so group populations
// carry zero information about class membership — part of why HEC is the
// strawman.
func (h *Halves) classSizes(t *state.Table) []float64 {
	out := make([]float64, h.classes)
	for c := range out {
		if h.label == nil {
			out[c] = float64(t.N) / float64(h.classes)
		} else {
			out[c] = labelSize(h.label, t, h.Symbols, c)
		}
	}
	return out
}

// labelSize returns n̂_C = (ñ_C − N·q₁)/(p₁−q₁) from ñ_C, the reports the
// label mechanism routed to c: the sum of c's symbol cells.
func labelSize(label *fo.GRR, t *state.Table, symbols, c int) float64 {
	var labels int64
	for _, n := range t.Cells[c*symbols : (c+1)*symbols] {
		labels += n
	}
	p1, q1 := label.P(), label.Q()
	return (float64(labels) - float64(t.N)*q1) / (p1 - q1)
}

// tableShape is the count table every mean aggregate keeps: a single route
// of classes × symbols cells, cell label·symbols+symbol counting the reports
// of that (label, symbol) — the layout a checked binary frame's cells
// already have. A report adds one to one cell, so the cells sum to N and a
// label's report count is the sum of its symbols.
func tableShape(classes, symbols int) state.Shape {
	return state.Shape{Rows: 1, Cols: classes * symbols, OneHot: true}
}

// addCounts validates and folds n reports of one (label, symbol) cell into
// t. The cell and the count are checked before anything is counted, so a
// recovered panic leaves the table as it was.
func addCounts(t *state.Table, classes, symbols, label, symbol int, n int64) {
	switch {
	case label < 0 || label >= classes:
		panic(fmt.Sprintf("mean: report label %d outside [0,%d)", label, classes))
	case symbol < 0 || symbol >= symbols:
		panic(fmt.Sprintf("mean: symbol %d outside [0,%d)", symbol, symbols))
	case n < 0:
		panic(fmt.Sprintf("mean: negative report count %d", n))
	}
	t.Cells[label*symbols+symbol] += n
	t.N += n
}

// cell returns the reports of one (label, symbol) in t.
func cell(t *state.Table, symbols, label, symbol int) int64 { return t.Cells[label*symbols+symbol] }

// perClass returns the calibration that evaluates f for every class.
func perClass(classes int, f func(t *state.Table, c int) float64) func(*state.Table) []float64 {
	return func(t *state.Table) []float64 {
		out := make([]float64, classes)
		for c := range out {
			out[c] = f(t, c)
		}
		return out
	}
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
		Encoder: &hecEncoder{c: classes, sr: sr},
		Symbols: 2,
		MechID:  fmt.Sprintf("mod%d+SR[p=%v]", classes, sr.P()),
		classes: classes,
		// Each group's mean is calibrated from its sign counts as if every
		// member were valid, which carries the strawman's
		// shrink-toward-zero bias.
		means: perClass(classes, func(t *state.Table, g int) float64 {
			plus, minus := cell(t, 2, g, Plus), cell(t, 2, g, Minus)
			if n := plus + minus; n > 0 {
				return sr.Calibrate(float64(plus-minus)) / float64(n)
			}
			return 0
		}),
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
	h := &Halves{
		Encoder: &ptsEncoder{c: classes, label: label, sr: sr},
		Symbols: 2,
		MechID: fmt.Sprintf("%s[d=%d,p=%v,q=%v]+SR[p=%v]",
			label.Name(), label.DomainSize(), label.P(), label.Q(), sr.P()),
		classes: classes, label: label,
	}
	// Sign counts are routed by perturbed label, and the cross-class label
	// migration is undone with the E[S̃_C] = p₁T_C + q₁(T−T_C) calibration.
	h.means = func(t *state.Table) []float64 {
		p1, q1 := label.P(), label.Q()
		// Calibrated routed sums and the global sum.
		total := 0.0
		routed := make([]float64, classes)
		for ci := range routed {
			routed[ci] = sr.Calibrate(float64(cell(t, 2, ci, Plus) - cell(t, 2, ci, Minus)))
			total += routed[ci]
		}
		n := h.classSizes(t)
		out := make([]float64, classes)
		for ci := range out {
			tC := (routed[ci] - q1*total) / (p1 - q1)
			if n[ci] > 1 {
				out[ci] = clamp(tC / n[ci])
			}
		}
		return out
	}
	return h, nil
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

// ---------------------------------------------------------------------------
// CP-Mean halves.
// ---------------------------------------------------------------------------

// NewCPMeanHalves vends the correlated-perturbation decomposition: the
// label outcome gates the value input, and invalidity is itself deniable
// through the 3-ary sign GRR. The server half is the CPMean Accumulator's
// table and difference estimator.
func NewCPMeanHalves(classes int, eps, split float64) (*Halves, error) {
	m, err := NewCPMean(classes, eps, split)
	if err != nil {
		return nil, err
	}
	return &Halves{
		Encoder: &cpEncoder{m: m},
		Symbols: 3,
		MechID:  m.id,
		classes: classes,
		means:   perClass(classes, m.mean),
		label:   m.label,
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
