package mean

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/fo"
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

// Aggregator is the server half: it folds reports into per-class integer
// counts and produces the framework's calibrated estimates. Implementations
// are not safe for concurrent use; shard and Merge instead. Merging is
// exact — any partition of a report stream over aggregators merges to
// bit-identical estimates.
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
	// MarshalBinary serializes the aggregate counts (never individual
	// values) so servers can checkpoint and federate. Restoring and
	// estimating is bit-identical to estimating the live aggregator.
	MarshalBinary() ([]byte, error)
	// UnmarshalBinary restores state serialized by MarshalBinary from an
	// aggregator with the same framework parameters; a mismatch is an
	// error and leaves the aggregator unchanged.
	UnmarshalBinary([]byte) error
}

// Cloner is implemented by aggregators that can copy their aggregate state
// cheaply (slice copies of the integer sign counts). Collection servers use
// it to snapshot their aggregate while holding its lock only for the copy,
// then calibrate the copy outside the lock. Every framework in
// this package implements it; the clone shares no mutable state with the
// original.
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

// checkCell is the half of an AddCounts domain check the aggregators share
// (the symbol alphabet is each one's own).
func checkCell(label, classes int, n int64) {
	if label < 0 || label >= classes {
		panic(fmt.Sprintf("mean: report label %d outside [0,%d)", label, classes))
	}
	if n < 0 {
		panic(fmt.Sprintf("mean: negative report count %d", n))
	}
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
		Encoder:       &hecEncoder{c: classes, sr: sr},
		NewAggregator: func() Aggregator { return newHECAggregator(classes, sr) },
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

// signCounts is the shared count-keeping core of the two-symbol (±)
// aggregators (HEC-Mean, PTS-Mean): per-label plus/minus counts, exact
// merging and the gob snapshot. The frameworks embed it and layer only
// their calibration (Means/ClassSizes) on top.
type signCounts struct {
	c           int
	plus, minus []int64
	total       int
}

func newSignCounts(c int) signCounts {
	return signCounts{c: c, plus: make([]int64, c), minus: make([]int64, c)}
}

// Add validates and folds one sign report.
func (a *signCounts) Add(rep Report) { a.AddCounts(rep.Label, rep.Symbol, 1) }

// AddCounts validates and folds n reports of one (label, sign) cell.
func (a *signCounts) AddCounts(label, symbol int, n int64) {
	checkCell(label, a.c, n)
	switch symbol {
	case Plus:
		a.plus[label] += n
	case Minus:
		a.minus[label] += n
	default:
		panic(fmt.Sprintf("mean: bad sign symbol %d", symbol))
	}
	a.total += int(n)
}

// merge folds another count set of the same class domain into this one.
func (a *signCounts) merge(o *signCounts) error {
	if o.c != a.c {
		return fmt.Errorf("mean: merge class mismatch %d != %d", o.c, a.c)
	}
	for ci := 0; ci < a.c; ci++ {
		a.plus[ci] += o.plus[ci]
		a.minus[ci] += o.minus[ci]
	}
	a.total += o.total
	return nil
}

// N implements the Aggregator report count.
func (a *signCounts) N() int { return a.total }

// clone copies the count vectors.
func (a *signCounts) clone() signCounts {
	return signCounts{
		c:     a.c,
		plus:  append([]int64(nil), a.plus...),
		minus: append([]int64(nil), a.minus...),
		total: a.total,
	}
}

// MarshalBinary implements the Aggregator snapshot contract.
func (a *signCounts) MarshalBinary() ([]byte, error) {
	return gobEncode(signState{Plus: a.plus, Minus: a.minus, Total: a.total})
}

// UnmarshalBinary implements the Aggregator snapshot contract; on error
// the counts are left unchanged.
func (a *signCounts) UnmarshalBinary(data []byte) error {
	var st signState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	if err := st.validate(a.c); err != nil {
		return err
	}
	a.plus, a.minus, a.total = st.Plus, st.Minus, st.Total
	return nil
}

// hecAggregator keeps per-group sign counts and calibrates each group's
// mean as if every member were valid, which carries the strawman's
// shrink-toward-zero bias.
type hecAggregator struct {
	signCounts
	sr *SR
}

func newHECAggregator(c int, sr *SR) *hecAggregator {
	return &hecAggregator{signCounts: newSignCounts(c), sr: sr}
}

func (a *hecAggregator) Merge(other Aggregator) error {
	o, ok := other.(*hecAggregator)
	if !ok {
		return fmt.Errorf("mean: cannot merge %T into HEC-Mean aggregator", other)
	}
	return a.signCounts.merge(&o.signCounts)
}

// Clone implements Cloner: a copy of the sign counts, sharing only the
// immutable mechanism.
func (a *hecAggregator) Clone() Aggregator {
	return &hecAggregator{signCounts: a.signCounts.clone(), sr: a.sr}
}

func (a *hecAggregator) Means() []float64 {
	out := make([]float64, a.c)
	for g := 0; g < a.c; g++ {
		if n := a.plus[g] + a.minus[g]; n > 0 {
			out[g] = a.sr.Calibrate(float64(a.plus[g]-a.minus[g])) / float64(n)
		}
	}
	return out
}

// ClassSizes returns the uniform prior N/c for every class: the partition
// is a function of the user index alone, so group populations carry zero
// information about class membership — part of why HEC is the strawman.
func (a *hecAggregator) ClassSizes() []float64 {
	out := make([]float64, a.c)
	for g := range out {
		out[g] = float64(a.total) / float64(a.c)
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
		NewAggregator: func() Aggregator { return newPTSAggregator(classes, label, sr) },
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
	signCounts
	label *fo.GRR
	sr    *SR
}

func newPTSAggregator(c int, label *fo.GRR, sr *SR) *ptsAggregator {
	return &ptsAggregator{signCounts: newSignCounts(c), label: label, sr: sr}
}

func (a *ptsAggregator) Merge(other Aggregator) error {
	o, ok := other.(*ptsAggregator)
	if !ok {
		return fmt.Errorf("mean: cannot merge %T into PTS-Mean aggregator", other)
	}
	return a.signCounts.merge(&o.signCounts)
}

// Clone implements Cloner: a copy of the sign counts, sharing only the
// immutable mechanisms.
func (a *ptsAggregator) Clone() Aggregator {
	return &ptsAggregator{signCounts: a.signCounts.clone(), label: a.label, sr: a.sr}
}

func (a *ptsAggregator) Means() []float64 {
	p1, q1 := a.label.P(), a.label.Q()
	// Calibrated routed sums and the global sum.
	total := 0.0
	routed := make([]float64, a.c)
	for ci := range routed {
		routed[ci] = a.sr.Calibrate(float64(a.plus[ci] - a.minus[ci]))
		total += routed[ci]
	}
	sizes := a.ClassSizes()
	out := make([]float64, a.c)
	for ci := range out {
		tC := (routed[ci] - q1*total) / (p1 - q1)
		if sizes[ci] > 1 {
			out[ci] = clamp(tC / sizes[ci])
		}
	}
	return out
}

func (a *ptsAggregator) ClassSizes() []float64 {
	n := float64(a.total)
	p1, q1 := a.label.P(), a.label.Q()
	out := make([]float64, a.c)
	for ci := range out {
		labelCount := float64(a.plus[ci] + a.minus[ci])
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
		NewAggregator: func() Aggregator { return &cpAggregator{acc: m.NewAccumulator()} },
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
	acc *Accumulator
}

func (a *cpAggregator) Add(rep Report) { a.acc.Add(rep) }

func (a *cpAggregator) AddCounts(label, symbol int, n int64) { a.acc.AddCounts(label, symbol, n) }

func (a *cpAggregator) Merge(other Aggregator) error {
	o, ok := other.(*cpAggregator)
	if !ok {
		return fmt.Errorf("mean: cannot merge %T into CP-Mean aggregator", other)
	}
	return a.acc.Merge(o.acc)
}

func (a *cpAggregator) N() int { return a.acc.Total() }

// Clone implements Cloner: a copy of the wrapped accumulator's count
// vectors, sharing only the immutable mechanism.
func (a *cpAggregator) Clone() Aggregator {
	return &cpAggregator{acc: &Accumulator{
		m:      a.acc.m,
		plus:   append([]int64(nil), a.acc.plus...),
		minus:  append([]int64(nil), a.acc.minus...),
		labels: append([]int64(nil), a.acc.labels...),
		total:  a.acc.total,
	}}
}

func (a *cpAggregator) Means() []float64 {
	out := make([]float64, a.acc.m.classes)
	for c := range out {
		out[c] = a.acc.EstimateMean(c)
	}
	return out
}

func (a *cpAggregator) ClassSizes() []float64 {
	out := make([]float64, a.acc.m.classes)
	for c := range out {
		out[c] = a.acc.EstimateClassSize(c)
	}
	return out
}

// ---------------------------------------------------------------------------
// Aggregator snapshots: gob states with shape validation, so collection
// servers can checkpoint, WAL-compact and federate mean aggregates the same
// way they do frequency aggregates. On error the aggregator is unchanged.
// ---------------------------------------------------------------------------

// signState is the serialized form of the two-symbol aggregators (HEC-Mean,
// PTS-Mean): per-label plus/minus counts and the report total.
type signState struct {
	Plus, Minus []int64
	Total       int
}

// validate checks the counts against c classes and the claimed total.
func (st *signState) validate(c int) error {
	if len(st.Plus) != c || len(st.Minus) != c {
		return fmt.Errorf("mean: snapshot has %d/%d labels, aggregator has %d", len(st.Plus), len(st.Minus), c)
	}
	sum := int64(0)
	for ci := 0; ci < c; ci++ {
		if st.Plus[ci] < 0 || st.Minus[ci] < 0 {
			return fmt.Errorf("mean: snapshot label %d has negative counts", ci)
		}
		sum += st.Plus[ci] + st.Minus[ci]
	}
	// Every report carries exactly one sign, so the signs must account for
	// the total exactly.
	if sum != int64(st.Total) {
		return fmt.Errorf("mean: snapshot signs hold %d reports, total claims %d", sum, st.Total)
	}
	return nil
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("mean: snapshot encode: %w", err)
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("mean: snapshot decode: %w", err)
	}
	return nil
}

// cpState is the serialized form of the CP-Mean aggregator: routed sign
// counts, label counts (which also count ⊥ reports) and the total.
type cpState struct {
	Plus, Minus, Labels []int64
	Total               int
}

// MarshalBinary implements the Aggregator snapshot contract.
func (a *cpAggregator) MarshalBinary() ([]byte, error) {
	return gobEncode(cpState{Plus: a.acc.plus, Minus: a.acc.minus, Labels: a.acc.labels, Total: a.acc.total})
}

// UnmarshalBinary implements the Aggregator snapshot contract.
func (a *cpAggregator) UnmarshalBinary(data []byte) error {
	var st cpState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	c := a.acc.m.classes
	if len(st.Plus) != c || len(st.Minus) != c || len(st.Labels) != c {
		return fmt.Errorf("mean: CP snapshot has %d/%d/%d labels, aggregator has %d",
			len(st.Plus), len(st.Minus), len(st.Labels), c)
	}
	sum := int64(0)
	for ci := 0; ci < c; ci++ {
		if st.Plus[ci] < 0 || st.Minus[ci] < 0 || st.Labels[ci] < 0 {
			return fmt.Errorf("mean: CP snapshot label %d has negative counts", ci)
		}
		// Signs are a subset of the label's reports (the rest reported ⊥).
		if st.Plus[ci]+st.Minus[ci] > st.Labels[ci] {
			return fmt.Errorf("mean: CP snapshot label %d has %d signs but %d reports",
				ci, st.Plus[ci]+st.Minus[ci], st.Labels[ci])
		}
		sum += st.Labels[ci]
	}
	if sum != int64(st.Total) {
		return fmt.Errorf("mean: CP snapshot labels hold %d reports, total claims %d", sum, st.Total)
	}
	a.acc.plus, a.acc.minus, a.acc.labels, a.acc.total = st.Plus, st.Minus, st.Labels, st.Total
	return nil
}
