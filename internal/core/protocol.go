package core

import (
	"fmt"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/fo"
	"repro/internal/state"
	"repro/internal/xrand"
)

// This file decomposes the frequency-estimation frameworks into their
// deployment halves. A batch call like PTS.Estimate fuses two roles that a
// real LDP system keeps on opposite sides of the network: the client, which
// perturbs one pair and ships an opaque report, and the server, which folds
// reports it never saw in the clear into a mergeable aggregate. Encoder and
// Aggregator are those halves; Protocol vends a matched pair plus the wire
// codec that carries reports between them. Every framework's Estimate is a
// thin loop over its own halves, so batch and streaming results are
// bit-identical by construction.

// Report is one client-side perturbed report, the unit that crosses the
// network. Class carries the perturbed label (PTS, PTS-CP) or the user's
// group (HEC); PTJ reports leave it 0. Item carries the item-side payload in
// whatever shape the framework's item mechanism produces (a GRR value, an
// OLH bucket plus hash seed, or a unary-encoded bit vector).
type Report struct {
	Class int
	Item  fo.Report
}

// Encoder is the client half of a framework: it perturbs one pair into a
// Report under the framework's full ε-LDP guarantee. Encoders are stateless
// and safe for concurrent use as long as each goroutine supplies its own
// rand.
type Encoder interface {
	// Encode perturbs pair. The pair must lie in the protocol's (c, d)
	// domain; out-of-domain pairs panic, as misuse at the perturbation
	// site must not corrupt aggregates silently.
	Encode(pair Pair, r *xrand.Rand) Report
}

// Aggregator is the server half of a framework: it folds reports into one
// count table (state.Table) and produces the framework's calibrated
// estimates from it. Every protocol vends the same aggregator type, its
// protocol plus one table; the framework is the protocol's. Implementations
// are not safe for concurrent use; shard and Merge instead. Merging is
// exact — aggregates hold integer counts, so any partition of a report
// stream over aggregators merges to bit-identical estimates.
type Aggregator interface {
	// Add folds one report into the aggregate. Reports decoded from the
	// wire by the protocol's codec are always safe to Add; hand-built
	// out-of-domain reports panic.
	Add(Report)
	// Merge folds another aggregator of the same protocol into this one.
	// An aggregator of another protocol is refused even when the tables'
	// shapes coincide, since its counts calibrate differently.
	Merge(other Aggregator) error
	// N returns the number of reports added so far.
	N() int
	// Clone copies the count table (one slice copy), sharing nothing
	// mutable with the original.
	Clone() Aggregator
	// Estimates returns the framework's calibrated c×d frequency matrix.
	Estimates() [][]float64
	// ClassSizes returns per-class population estimates: the label-count
	// calibration where the framework has one (PTS, PTS-CP), row sums of
	// the frequency estimates otherwise (HEC, PTJ).
	ClassSizes() []float64
	// MarshalBinary encodes the count table — never a report. Prefer
	// Protocol.MarshalAggregator, which wraps the bytes in a fingerprinted
	// envelope that Protocol.UnmarshalAggregator validates and restores.
	MarshalBinary() ([]byte, error)
	// counts returns the protocol that vended the aggregator and its table.
	// Being unexported, it also keeps every Aggregator this package's.
	counts() (*Protocol, *state.Table)
}

// Cloner is Aggregator's Clone on its own. Every Aggregator implements it;
// it is kept only because the benchmark harness (benchmark/) asserts it.
type Cloner interface {
	Clone() Aggregator
}

// WirePayload is the JSON wire form of a Report, sparse by construction:
// unary-encoded reports carry set-bit indices, value reports carry the value
// (plus the public hash seed for OLH). Exactly one of Bits / Value is
// meaningful for a given protocol; the protocol's codec validates the shape.
type WirePayload struct {
	Label int    `json:"label"`
	Value *int   `json:"value,omitempty"`
	Seed  uint64 `json:"seed,omitempty"`
	Bits  []int  `json:"bits,omitempty"`
}

// wireShape describes the payload a protocol's reports carry so the codec
// can validate without knowing the framework.
type wireShape struct {
	classes    int  // Label must be in [0, classes)
	bitsLen    int  // >0: bit-vector report over this many positions
	flag       int  // >0: the vector's validity flag bit (PTS-CP's bit d)
	valueRange int  // >0: value report in [0, valueRange)
	seed       bool // value report carries a public hash seed (OLH)
}

// Protocol is a matched Encoder/Aggregator pair for one framework plus the
// wire codec between them. Build one with NewProtocol (canonical frameworks
// by name) or NewPTSProtocolWithItem (PTS over any internal/fo mechanism).
type Protocol struct {
	name       string
	c, d       int
	eps, split float64
	enc        Encoder
	shape      wireShape
	// mechID fingerprints the perturbation mechanisms behind the halves
	// (names and support probabilities), so two protocols can be checked
	// for wire compatibility beyond their advertised name and parameters;
	// fp is the whole Fingerprint, computed once.
	mechID, fp string

	// The server half: what the one aggregator type needs of a framework.
	// framework is the canonical framework (hec, ptj, pts or ptscp), and
	// item the mechanism whose supports the rows count (nil for ptscp).
	framework string
	item      fo.Mechanism
	// table is the shape of the aggregate's count table.
	table state.Shape
	// add routes and folds one report into the table.
	add func(t *state.Table, rep Report)
	// estimates is the framework's calibration.
	estimates func(t *state.Table) [][]float64
	// label is the label mechanism whose route counts calibrate into class
	// sizes (PTS, PTS-CP); nil where class sizes are the row sums of the
	// estimates (HEC, PTJ).
	label *fo.GRR
}

// mechFingerprint summarizes a mechanism's calibration-relevant identity.
func mechFingerprint(m fo.Mechanism) string {
	return fmt.Sprintf("%s[d=%d,p=%v,q=%v]", m.Name(), m.DomainSize(), m.P(), m.Q())
}

// ProtocolNames lists the canonical framework names NewProtocol accepts.
func ProtocolNames() []string { return []string{"hec", "ptj", "pts", "ptscp"} }

// CanonicalProtocolName normalizes a framework name: case-insensitive, with
// separators dropped, so "PTS-CP", "pts_cp" and "ptscp" all canonicalize to
// "ptscp".
func CanonicalProtocolName(name string) string {
	n := strings.ToLower(strings.TrimSpace(name))
	n = strings.ReplaceAll(n, "-", "")
	n = strings.ReplaceAll(n, "_", "")
	return n
}

// NewProtocol vends the matched client/server halves of a canonical
// framework over c classes and d items at budget eps. split is the
// label-budget fraction ε₁/ε for pts and ptscp (the paper's default is 0.5)
// and is ignored by hec and ptj, which spend the whole budget on one
// mechanism.
//
// Beyond the four canonical names, "pts+<item>" selects PTS over a named
// item mechanism — oue, sue, olh, grr or adaptive — so the choice survives
// a trip through a collection server's /config and clients can reconstruct
// the exact encoder from the name alone.
func NewProtocol(name string, c, d int, eps, split float64) (*Protocol, error) {
	canon := CanonicalProtocolName(name)
	switch canon {
	case "hec":
		return newHECProtocol(c, d, eps, split)
	case "ptj":
		return newPTJProtocol(c, d, eps, split)
	case "pts":
		// The paper's default item mechanism; single source of truth in
		// namedItemFactory so "pts" and "pts+oue" cannot drift apart.
		factory, err := namedItemFactory("oue")
		if err != nil {
			return nil, err
		}
		return NewPTSProtocolWithItem("pts", c, d, eps, split, factory)
	case "ptscp":
		return newPTSCPProtocol(c, d, eps, split)
	}
	if item, ok := strings.CutPrefix(canon, "pts+"); ok {
		factory, err := namedItemFactory(item)
		if err != nil {
			return nil, err
		}
		return NewPTSProtocolWithItem(canon, c, d, eps, split, factory)
	}
	return nil, fmt.Errorf("core: unknown protocol %q (want one of %s, or pts+<oue|sue|olh|grr|adaptive>)",
		name, strings.Join(ProtocolNames(), ", "))
}

// namedItemFactory resolves the item-mechanism names usable in a
// "pts+<item>" protocol name.
func namedItemFactory(name string) (ItemMechanismFactory, error) {
	switch name {
	case "oue":
		return func(d int, eps float64) (fo.Mechanism, error) { return fo.NewOUE(d, eps) }, nil
	case "sue":
		return func(d int, eps float64) (fo.Mechanism, error) { return fo.NewSUE(d, eps) }, nil
	case "olh":
		return func(d int, eps float64) (fo.Mechanism, error) { return fo.NewOLH(d, eps) }, nil
	case "grr":
		return func(d int, eps float64) (fo.Mechanism, error) { return fo.NewGRR(d, eps) }, nil
	case "adaptive":
		return fo.NewAdaptive, nil
	default:
		return nil, fmt.Errorf("core: unknown pts item mechanism %q (want oue, sue, olh, grr or adaptive)", name)
	}
}

// Name returns the protocol's canonical (or caller-chosen, for custom PTS)
// name. It is what the collection server advertises in its config.
func (p *Protocol) Name() string { return p.name }

// Classes returns c.
func (p *Protocol) Classes() int { return p.c }

// Items returns d.
func (p *Protocol) Items() int { return p.d }

// Epsilon returns the total per-user privacy budget ε.
func (p *Protocol) Epsilon() float64 { return p.eps }

// Split returns the label-budget fraction ε₁/ε the protocol was built with
// (meaningful for pts and ptscp only).
func (p *Protocol) Split() float64 { return p.split }

// Encoder returns the client half. It is shared and safe for concurrent use
// with per-goroutine rands.
func (p *Protocol) Encoder() Encoder { return p.enc }

// NewAggregator returns an empty server half.
func (p *Protocol) NewAggregator() Aggregator { return &aggregator{p, p.NewTable()} }

// NewTable returns an empty count table of the protocol's shape — the
// server half's state without the aggregator around it.
func (p *Protocol) NewTable() state.Table { return state.NewTable(p.table) }

// Fold folds one decoded report into t, a table of p's shape.
func (p *Protocol) Fold(t *state.Table, rep Report) { p.add(t, rep) }

// Calibrate returns the c×d frequency matrix and the class sizes t's counts
// estimate: what an aggregator's Estimates and ClassSizes return.
func (p *Protocol) Calibrate(t *state.Table) (freq [][]float64, classSizes []float64) {
	freq = p.estimates(t)
	return freq, p.classSizes(t, freq)
}

// WireCompatible reports whether o's reports are interchangeable with p's:
// same name, domain, budget, wire shape AND underlying mechanisms. It is
// how a collection server checks that clients reconstructing the protocol
// from its advertised name get mechanisms whose calibration matches the
// server's — a protocol built from a custom factory but deliberately given
// a canonical name would otherwise decode cleanly (identical wire shape)
// and be calibrated with the wrong probabilities.
func (p *Protocol) WireCompatible(o *Protocol) error {
	switch {
	case o == nil:
		return fmt.Errorf("core: nil protocol")
	case p.name != o.name:
		return fmt.Errorf("core: protocol name %q != %q", p.name, o.name)
	case p.c != o.c || p.d != o.d:
		return fmt.Errorf("core: protocol domain %dx%d != %dx%d", p.c, p.d, o.c, o.d)
	case p.eps != o.eps || p.split != o.split:
		return fmt.Errorf("core: protocol budget (ε=%v split=%v) != (ε=%v split=%v)", p.eps, p.split, o.eps, o.split)
	case p.shape != o.shape:
		return fmt.Errorf("core: protocol wire shapes differ")
	case p.mechID != o.mechID:
		return fmt.Errorf("core: protocol mechanisms differ: %s != %s", p.mechID, o.mechID)
	}
	return nil
}

// EncodeReport serializes a report produced by this protocol's Encoder.
func (p *Protocol) EncodeReport(rep Report) WirePayload {
	w := WirePayload{Label: rep.Class}
	if rep.Item.Bits != nil {
		w.Bits = rep.Item.Bits.Ones()
		return w
	}
	v := rep.Item.Value
	w.Value = &v
	w.Seed = rep.Item.Seed
	return w
}

// DecodeReport validates a wire payload against the protocol's report shape
// and rebuilds the in-memory Report. Decoded reports are always safe to feed
// to the protocol's Aggregator.
func (p *Protocol) DecodeReport(w WirePayload) (Report, error) {
	s := p.shape
	if w.Label < 0 || w.Label >= s.classes {
		return Report{}, fmt.Errorf("core: %s report label %d outside [0,%d)", p.name, w.Label, s.classes)
	}
	if w.Seed != 0 && !s.seed {
		return Report{}, fmt.Errorf("core: %s report carries a hash seed, want none", p.name)
	}
	rep := Report{Class: w.Label}
	if s.bitsLen > 0 {
		if w.Value != nil {
			return Report{}, fmt.Errorf("core: %s report carries a value, want a %d-bit vector", p.name, s.bitsLen)
		}
		bits := bitvec.New(s.bitsLen)
		for _, b := range w.Bits {
			if b < 0 || b >= s.bitsLen {
				return Report{}, fmt.Errorf("core: %s report bit %d outside [0,%d)", p.name, b, s.bitsLen)
			}
			bits.Set(b)
		}
		rep.Item.Bits = bits
		return rep, nil
	}
	if w.Value == nil {
		return Report{}, fmt.Errorf("core: %s report missing value", p.name)
	}
	if len(w.Bits) > 0 {
		return Report{}, fmt.Errorf("core: %s report carries bits, want a bare value", p.name)
	}
	if *w.Value < 0 || *w.Value >= s.valueRange {
		return Report{}, fmt.Errorf("core: %s report value %d outside [0,%d)", p.name, *w.Value, s.valueRange)
	}
	rep.Item.Value = *w.Value
	if s.seed {
		rep.Item.Seed = w.Seed
	}
	return rep, nil
}

// estimateViaProtocol is the batch path every framework's Estimate runs
// through: validate the dataset, build the framework's protocol for its
// domain, encode each pair in dataset order, fold into one aggregator,
// estimate. Feeding the same reports through any sharded-then-merged set of
// aggregators reproduces this output bit-identically.
func estimateViaProtocol(protocol func(c, d int) (*Protocol, error), data *Dataset, r *xrand.Rand) ([][]float64, error) {
	if err := data.Validate(); err != nil {
		return nil, err
	}
	p, err := protocol(data.Classes, data.Items)
	if err != nil {
		return nil, err
	}
	enc, agg := p.Encoder(), p.NewAggregator()
	for _, pair := range data.Pairs {
		agg.Add(enc.Encode(pair, r))
	}
	return agg.Estimates(), nil
}

// ---------------------------------------------------------------------------
// The one aggregator.
// ---------------------------------------------------------------------------

// aggregator is every protocol's Aggregator: the protocol that vended it and
// one count table — N, one count per route where the framework routes
// reports (HEC's groups, PTS's perturbed labels), then one row of item
// supports per route. N is a field, Clone one copy, Merge one vector add and
// the snapshot the table's own codec; the protocol folds reports in and
// calibrates.
type aggregator struct {
	p *Protocol
	t state.Table
}

func (a *aggregator) Add(rep Report) { a.p.Fold(&a.t, rep) }

// Merge adds other's table in when other belongs to the same protocol: the
// same one, or one with the same fingerprint.
func (a *aggregator) Merge(other Aggregator) error {
	op, ot := other.counts()
	if op != a.p && op.fp != a.p.fp {
		return fmt.Errorf("core: cannot merge a %s aggregate into a %s one", op.fp, a.p.fp)
	}
	return a.t.Merge(ot)
}

func (a *aggregator) N() int { return int(a.t.N) }

func (a *aggregator) Clone() Aggregator { return &aggregator{a.p, a.t.Clone()} }

func (a *aggregator) Estimates() [][]float64 { return a.p.estimates(&a.t) }

func (a *aggregator) ClassSizes() []float64 { return a.p.classSizes(&a.t, nil) }

func (a *aggregator) MarshalBinary() ([]byte, error) { return a.t.MarshalBinary() }

func (a *aggregator) counts() (*Protocol, *state.Table) { return a.p, &a.t }

// rowSums is the class-size fallback for frameworks without a direct label
// estimator: the row sum of an unbiased frequency matrix is an unbiased
// population estimate (for HEC it additionally carries the strawman's bias).
func rowSums(m [][]float64) []float64 {
	out := make([]float64, len(m))
	for c, row := range m {
		for _, v := range row {
			out[c] += v
		}
	}
	return out
}

// ClassSizesFromEstimates returns a's class sizes, reusing an
// already-computed Estimates() matrix when a derives sizes from it (hec,
// ptj) instead of recomputing the full calibration.
func ClassSizesFromEstimates(a Aggregator, est [][]float64) []float64 {
	p, t := a.counts()
	return p.classSizes(t, est)
}

// classSizes returns the class sizes t's counts estimate: the label-count
// calibration where the framework has one (PTS, PTS-CP), else the row sums
// of est, t's frequency estimates, which are calibrated here when est is
// nil.
func (p *Protocol) classSizes(t *state.Table, est [][]float64) []float64 {
	if p.label == nil {
		if est == nil {
			est = p.estimates(t)
		}
		return rowSums(est)
	}
	out := make([]float64, t.Rows)
	for c := range out {
		out[c] = labelSize(p.label, t, c)
	}
	return out
}

// labelSize returns n̂ = (ñ − N·q₁)/(p₁−q₁), the unbiased estimate of the
// users with label c, from the ñ reports the label mechanism routed to c.
func labelSize(label *fo.GRR, t *state.Table, c int) float64 {
	p1, q1 := label.P(), label.Q()
	return (float64(t.Cells[c]) - float64(t.N)*q1) / (p1 - q1)
}

// count records n reports routed to route.
func count(t *state.Table, route, n int) {
	if t.Routes > 0 {
		t.Cells[route] += int64(n)
	}
	t.N += int64(n)
}

// ---------------------------------------------------------------------------
// Frameworks whose rows count an item mechanism's supports: HEC, PTJ, PTS.
// ---------------------------------------------------------------------------

// countItems completes p as a protocol whose rows count item's supports:
// one row per route (HEC's groups, PTS's perturbed labels), or one unrouted
// row when routes is 0 (PTJ's joint domain). A report's label picks its row.
// The mechanism decides the wire shape: a bit vector (UE), which a frame
// folds by column sums, a hashed bucket with its seed (OLH), or a value
// (GRR, the rest of fo's closed set), whose rows are one-hot.
func (p *Protocol) countItems(item fo.Mechanism, routes int) *Protocol {
	rows := max(routes, 1)
	p.item, p.add = item, p.addItem
	p.table = state.Shape{Routes: routes, Rows: rows, Cols: item.DomainSize()}
	switch m := item.(type) {
	case *fo.UE:
		p.shape = wireShape{classes: rows, bitsLen: m.DomainSize()}
	case *fo.OLH:
		p.shape = wireShape{classes: rows, valueRange: m.G(), seed: true}
	default:
		p.shape = wireShape{classes: rows, valueRange: m.DomainSize()}
		p.table.OneHot = true
	}
	return p.seal()
}

// addItem is add for a protocol whose rows count p.item's supports.
func (p *Protocol) addItem(t *state.Table, rep Report) {
	if rep.Class < 0 || rep.Class >= t.Rows {
		panic(fmt.Sprintf("core: %s report label %d outside [0,%d)", p.name, rep.Class, t.Rows))
	}
	fo.Fold(p.item, t.Row(rep.Class), rep.Item)
	count(t, rep.Class, 1)
}

// ---------------------------------------------------------------------------
// HEC halves.
// ---------------------------------------------------------------------------

func newHECProtocol(c, d int, eps, split float64) (*Protocol, error) {
	if c <= 0 {
		return nil, fmt.Errorf("core: hec protocol with %d classes", c)
	}
	mech, err := fo.NewAdaptive(d, eps)
	if err != nil {
		return nil, err
	}
	proto := &Protocol{
		name: "hec", framework: "hec", c: c, d: d, eps: eps, split: split,
		enc: &hecEncoder{c: c, d: d, mech: mech}, mechID: mechFingerprint(mech),
	}
	// Each report is routed to its group — one route count and one row of
	// supports per group — and calibrated with
	// f̂(C,I) = (c·f̃(C,I) − N·q)/(p−q), which carries the Section V
	// invalid-data bias — HEC is the baseline.
	proto.estimates = func(t *state.Table) [][]float64 {
		n := float64(t.N)
		p, q := mech.P(), mech.Q()
		pq := p - q
		nq := n * q
		cf := float64(t.Rows)
		out := NewMatrix(t.Rows, t.Cols)
		for g, row := range out {
			// A group's oracle estimate is (f̃ − N_g·q)/(p−q) over its own N_g;
			// recovering the raw support from it follows the paper's
			// calibration exactly. Every hoisted product repeats the per-cell
			// expression on identical operands, so the matrix is bit-identical
			// to the per-cell form.
			ngq := float64(t.Cells[g]) * q
			for i, c := range t.Row(g) {
				est := (float64(c) - ngq) / pq
				raw := est*pq + ngq
				row[i] = (cf*raw - nq) / pq
			}
		}
		return out
	}
	return proto.countItems(mech, c), nil
}

// hecEncoder assigns the user to a uniform random group; a user whose label
// matches submits their item, anyone else a uniform random item for
// deniability (Section II-D).
type hecEncoder struct {
	c, d int
	mech fo.Mechanism
}

func (e *hecEncoder) Encode(pair Pair, r *xrand.Rand) Report {
	g := r.Intn(e.c)
	item := pair.Item
	if pair.Class != g {
		item = r.Intn(e.d)
	}
	return Report{Class: g, Item: e.mech.Perturb(item, r)}
}

// ---------------------------------------------------------------------------
// PTJ halves.
// ---------------------------------------------------------------------------

func newPTJProtocol(c, d int, eps, split float64) (*Protocol, error) {
	if c <= 0 {
		return nil, fmt.Errorf("core: ptj protocol with %d classes", c)
	}
	mech, err := fo.NewAdaptive(c*d, eps)
	if err != nil {
		return nil, err
	}
	proto := &Protocol{
		name: "ptj", framework: "ptj", c: c, d: d, eps: eps, split: split,
		enc: &ptjEncoder{d: d, mech: mech}, mechID: mechFingerprint(mech),
	}
	// PTJ reports carry no label: the class is folded into the joint value,
	// so the wire label domain is the single value 0, and the table is one
	// row over the joint domain. It calibrates straight into the c×d matrix;
	// the hoisted N·q and p−q repeat the oracle estimate's own operands, so
	// the matrix is bit-identical to estimating the joint domain and
	// reshaping.
	proto.estimates = func(t *state.Table) [][]float64 {
		out := NewMatrix(c, d)
		cnts := t.Row(0)
		q := mech.Q()
		nq := float64(t.N) * q
		pq := mech.P() - q
		for ci, row := range out {
			for i := range row {
				row[i] = (float64(cnts[ci*d+i]) - nq) / pq
			}
		}
		return out
	}
	return proto.countItems(mech, 0), nil
}

// ptjEncoder perturbs the pair as one value of the Cartesian domain C × I.
type ptjEncoder struct {
	d    int
	mech fo.Mechanism
}

func (e *ptjEncoder) Encode(pair Pair, r *xrand.Rand) Report {
	return Report{Item: e.mech.Perturb(JointIndex(pair, e.d), r)}
}

// ---------------------------------------------------------------------------
// PTS halves (generic over the item mechanism).
// ---------------------------------------------------------------------------

// NewPTSProtocolWithItem vends the PTS halves over any internal/fo item
// mechanism (fo.NewOUE is the paper's choice; fo.NewOLH trades server time
// for O(log g) communication). The Eq. (6) calibration only needs the item
// mechanism's support probabilities. name is what the protocol advertises
// and must not collide with a canonical name unless it is
// parameter-compatible with it.
func NewPTSProtocolWithItem(name string, c, d int, eps, split float64, item ItemMechanismFactory) (*Protocol, error) {
	if c <= 0 {
		return nil, fmt.Errorf("core: pts protocol with %d classes", c)
	}
	if !(split > 0 && split < 1) {
		return nil, fmt.Errorf("core: PTS budget split %v must be in (0,1)", split)
	}
	if item == nil {
		return nil, fmt.Errorf("core: nil item mechanism factory")
	}
	eps1 := eps * split
	label, err := fo.NewGRR(c, eps1)
	if err != nil {
		return nil, err
	}
	itemMech, err := item(d, eps-eps1)
	if err != nil {
		return nil, err
	}
	if itemMech.DomainSize() != d {
		return nil, fmt.Errorf("core: item mechanism domain %d != %d", itemMech.DomainSize(), d)
	}
	proto := &Protocol{
		name: name, framework: "pts", c: c, d: d, eps: eps, split: split, label: label,
		enc:    &ptsEncoder{label: label, item: itemMech},
		mechID: mechFingerprint(label) + "+" + mechFingerprint(itemMech),
	}
	// Reports are routed by perturbed label — one label count and one row of
	// item supports per label — and calibrated with Eq. (6), which corrects
	// for labels that migrated between classes.
	proto.estimates = func(t *state.Table) [][]float64 {
		c, d := t.Rows, t.Cols
		n := float64(t.N)
		p1, q1 := label.P(), label.Q()
		p2, q2 := itemMech.P(), itemMech.Q()
		den1 := p1 - q1
		den2 := p2 - q2
		den := den1 * den2
		nq1 := n * q1
		nq2 := n * q2
		nq1q2 := n * q1 * q2
		// Every hoisted product below repeats the original per-cell expression
		// on identical operands with its association preserved, so the output
		// matrix is bit-identical to the unhoisted calibration over the exact
		// integer supports.
		out := NewMatrix(c, d)
		// Item marginals f̂(I) = (Σ_C f̃(C,I) − N·q₂)/(p₂−q₂), accumulated
		// row-major (same per-item addition order as the column walk) and
		// pre-multiplied into the per-item Eq. (6) correction term with its
		// original association f̂(I)·q₁·(p₂−q₂).
		itemCorr := make([]float64, d)
		for ci := 0; ci < c; ci++ {
			for i, v := range t.Row(ci) {
				itemCorr[i] += float64(v)
			}
		}
		for i, sum := range itemCorr {
			itemCorr[i] = (sum - nq2) / den2 * q1 * den2
		}
		for ci, outRow := range out {
			nHat := (float64(t.Cells[ci]) - nq1) / den1
			classCorr := nHat * q2 * den1
			for i, raw := range t.Row(ci) {
				// Eq. (6).
				outRow[i] = (float64(raw) - classCorr - itemCorr[i] - nq1q2) / den
			}
		}
		return out
	}
	return proto.countItems(itemMech, c), nil
}

// ptsEncoder perturbs the label with GRR(ε₁) and the item independently with
// the item mechanism at ε₂.
type ptsEncoder struct {
	label *fo.GRR
	item  fo.Mechanism
}

func (e *ptsEncoder) Encode(pair Pair, r *xrand.Rand) Report {
	lab := e.label.PerturbValue(pair.Class, r)
	return Report{Class: lab, Item: e.item.Perturb(pair.Item, r)}
}

// ---------------------------------------------------------------------------
// PTS-CP halves.
// ---------------------------------------------------------------------------

// newPTSCPProtocol serves CP reports with CPAccumulator's table and its
// Eq. (4) calibration.
func newPTSCPProtocol(c, d int, eps, split float64) (*Protocol, error) {
	cp, err := NewCP(c, d, eps, split)
	if err != nil {
		return nil, err
	}
	return (&Protocol{
		name: "ptscp", framework: "ptscp", c: c, d: d, eps: eps, split: split,
		enc:    &cpEncoder{cp: cp},
		shape:  wireShape{classes: c, bitsLen: d + 1, flag: d},
		mechID: cp.id,
		table:  cp.shape(),
		add: func(t *state.Table, rep Report) {
			cp.add(t, CPReport{Label: rep.Class, Bits: rep.Item.Bits})
		},
		estimates: cp.estimateAll,
		label:     cp.label,
	}).seal(), nil
}

// cpEncoder applies the correlated perturbation (Section IV-B): the item
// perturbation observes the label outcome and voids the item when the label
// moved.
type cpEncoder struct {
	cp *CP
}

func (e *cpEncoder) Encode(pair Pair, r *xrand.Rand) Report {
	rep := e.cp.Perturb(pair, r)
	return Report{Class: rep.Label, Item: fo.Report{Bits: rep.Bits}}
}
