package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/fo"
	"repro/internal/mean"
	"repro/internal/state"
	"repro/internal/xrand"
)

// This file is the report protocols' conformance table. Both tiers'
// protocols fold reports into one integer count table and calibrate it in
// closed form, so every codec and aggregation property is written once, as
// a method of codec, and runs as one subtest per row of protocolRows: the
// six frequency protocols and the three mean protocols. A property that a
// row cannot have says why in the row.

// protocolRow is one report protocol; build makes an instance of it over c
// classes and d items at budget eps and split.
type protocolRow struct {
	name string
	// items is false for the mean protocols, whose reports carry a class
	// and a value and no item: d changes nothing.
	items bool
	// splitKeyed is true where the budget split is part of the protocol's
	// identity (fingerprint and WireCompatible). hecmean spends its whole
	// budget on one mechanism and canonicalizes the split away; hec and ptj
	// spend theirs on one mechanism too but keep the unused split in their
	// identity, so deployments configured with different splits refuse
	// each other's state although their aggregates are interchangeable.
	splitKeyed bool
	// vp marks PTS-CP, whose reports carry the validity flag: a frame of
	// reports the VP rule drops is a case of its own.
	vp    bool
	build func(t testing.TB, c, d int, eps, split float64) instance
}

// protocolRows is every report-tier protocol, with the offline batch
// framework each must reproduce.
var protocolRows = []protocolRow{
	freqRow("hec", func(eps, _ float64) (FrequencyEstimator, error) { return NewHEC(eps), nil }),
	freqRow("ptj", func(eps, _ float64) (FrequencyEstimator, error) { return NewPTJ(eps), nil }),
	freqRow("pts", func(eps, split float64) (FrequencyEstimator, error) { return NewPTS(eps, split) }),
	freqRow("pts+grr", ptsOver("pts+grr", func(d int, eps float64) (fo.Mechanism, error) { return fo.NewGRR(d, eps) })),
	// pts+olh's batch side is PTS over an OLH closure under a name of its
	// own, which builds through NewPTSProtocolWithItem the way a caller
	// outside the registry does.
	freqRow("pts+olh", ptsOver("pts-olh", func(d int, eps float64) (fo.Mechanism, error) { return fo.NewOLH(d, eps) })),
	withVP(freqRow("ptscp", func(eps, split float64) (FrequencyEstimator, error) { return NewPTSCP(eps, split) })),
	meanRow("hecmean", false, func(eps, _ float64) (mean.Estimator, error) { return mean.NewHECMean(eps), nil }),
	meanRow("ptsmean", true, func(eps, split float64) (mean.Estimator, error) { return mean.NewPTSMean(eps, split) }),
	meanRow("cpmean", true, func(eps, split float64) (mean.Estimator, error) { return mean.NewCPMeanEstimator(eps, split) }),
}

// frequencyRows and meanRows are the table's two tiers.
var frequencyRows, meanRows = protocolRows[:6], protocolRows[6:]

func ptsOver(name string, item ItemMechanismFactory) func(eps, split float64) (FrequencyEstimator, error) {
	return func(eps, split float64) (FrequencyEstimator, error) { return NewPTSWithItem(name, eps, split, item) }
}

func withVP(row protocolRow) protocolRow { row.vp = true; return row }

// forRows runs check once per row, as a subtest named after the row.
func forRows(t *testing.T, rows []protocolRow, check func(*testing.T, protocolRow)) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { check(t, row) })
	}
}

// tableProtocol is what the properties ask of *Protocol and
// *NumericProtocol directly.
type tableProtocol interface {
	Fingerprint() string
	NewTable() state.Table
}

// instance is one protocol instance of a row: its protocol, what another
// row's instance asks of it, and the properties.
type instance interface {
	protocol() tableProtocol
	// restore is UnmarshalAggregator, returning the restored report count.
	restore(env []byte) (int, error)

	streamingEqualsBatch(t *testing.T)
	frameKernel(t *testing.T, vp bool)
	checkedFrameIsAValue(t *testing.T, other instance)
	wireRoundTrip(t *testing.T)
	envelopeRoundTrip(t *testing.T)
	refusesForeign(t *testing.T, variants map[string]instance, same func(string) bool)
	rejectsCorruption(t *testing.T)
	cloneSharesNothing(t *testing.T)
}

// agg is what both tiers' aggregators have in common.
type agg interface {
	N() int
	MarshalBinary() ([]byte, error)
}

// codec is one tier's protocol as method values over its types: data D,
// report R, wire report W and aggregator A.
type codec[D, R, W any, A agg] struct {
	p    tableProtocol
	tier byte // the binary frame's tier byte
	// data is n users drawn from seed, and batch the offline batch
	// framework's estimate rows over them (the frequency frameworks return
	// no class sizes).
	data    func(n int, seed uint64) []D
	perturb func(d D, user int, r *xrand.Rand) R
	batch   func(data []D, r *xrand.Rand) [][]float64

	wire        func(R) W
	decode      func(W) (R, error)
	fold        func(*state.Table, R)
	calibrate   func(*state.Table) [][]float64 // the calibrated rows, then the class sizes
	frame       func([]byte, []W) ([]byte, error)
	unframe     func([]byte) ([]W, error)
	validate    func([]byte) (CheckedFrame, error)
	foldChecked func(*state.Table, CheckedFrame)
	apply       func(A, []byte) (int, error)

	newAgg     func() A
	add        func(A, R)
	merge      func(A, A) error
	estimates  func(A) [][]float64 // as calibrate
	marshal    func(A) ([]byte, error)
	unmarshal  func([]byte) (A, error)
	compatible func(tableProtocol) error // WireCompatible; another tier's protocol is nil to it
	// clone is Aggregator.Clone, and nil for the mean tier, whose
	// aggregator has none (the server clones the table).
	clone func(A) A
	// foreign wraps an aggregator in a type from outside the package, which
	// ApplyBinaryBatch feeds one materialized report at a time. It is nil
	// for the mean tier, whose frames fold through AddCounts, which every
	// mean aggregator has.
	foreign func(A) A
	// badWires is what DecodeReport answers to out-of-shape wire reports;
	// malformed is hand-framed frames, beyond the generic damage, that the
	// codec must refuse.
	badWires  func() map[string]error
	malformed func() map[string][]byte
}

func (k codec[D, R, W, A]) protocol() tableProtocol { return k.p }

func (k codec[D, R, W, A]) restore(env []byte) (int, error) {
	a, err := k.unmarshal(env)
	if err != nil {
		return 0, err
	}
	return a.N(), nil
}

// reports is n users of the row's population drawn from seed and
// perturbed in order under seed+1, and their wire forms.
func (k codec[D, R, W, A]) reports(n int, seed uint64) ([]R, []W) {
	r := xrand.New(seed + 1)
	reps, wires := make([]R, n), make([]W, n)
	for i, d := range k.data(n, seed) {
		reps[i] = k.perturb(d, i, r)
		wires[i] = k.wire(reps[i])
	}
	return reps, wires
}

func (k codec[D, R, W, A]) filled(reps []R) A {
	a := k.newAgg()
	for _, rep := range reps {
		k.add(a, rep)
	}
	return a
}

func (k codec[D, R, W, A]) mustFrame(t testing.TB, wires []W) []byte {
	t.Helper()
	frame, err := k.frame(nil, wires)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// addFrame is the per-report path the frame kernel replaced: a frame's
// records decoded (DecodeBinaryBatch), and their reports checked
// (DecodeReport) and Added one at a time. It returns the decoded records.
func (k codec[D, R, W, A]) addFrame(t testing.TB, a A, frame []byte) []W {
	t.Helper()
	wires, err := k.unframe(frame)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wires {
		rep, err := k.decode(w)
		if err != nil {
			t.Fatalf("a record the frame accepted does not decode: %v", err)
		}
		k.add(a, rep)
	}
	return wires
}

// meanCodec is a mean row's codec, for the mean frame's own cases.
type meanCodec = codec[mean.Value, mean.Report, WireMeanReport, mean.Aggregator]

func mustMeanCodec(t testing.TB, name string, classes int) meanCodec {
	t.Helper()
	for _, row := range meanRows {
		if row.name == name {
			return row.build(t, classes, 0, 2, 0.5).(meanCodec)
		}
	}
	t.Fatalf("no mean row %q", name)
	return meanCodec{}
}

// requireSame fails unless two aggregators hold the same table bytes,
// report count and calibrated estimates, NaN included.
func (k codec[D, R, W, A]) requireSame(t testing.TB, what string, got, want A) {
	t.Helper()
	gb, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) || got.N() != want.N() {
		t.Fatalf("%s: aggregate states differ (N %d vs %d)", what, got.N(), want.N())
	}
	if !sameRows(k.estimates(got), k.estimates(want)) {
		t.Fatalf("%s: calibrated estimates differ", what)
	}
}

// sameRows compares estimate rows bit for bit, NaN included.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloats(a[i], b[i]) {
			return false
		}
	}
	return true
}

// freqRow is a frequency-tier row; estimator builds its offline batch
// framework. Every frequency protocol keys its identity on the split.
func freqRow(name string, estimator func(eps, split float64) (FrequencyEstimator, error)) protocolRow {
	return protocolRow{name: name, items: true, splitKeyed: true, build: func(t testing.TB, c, d int, eps, split float64) instance {
		t.Helper()
		p, err := NewProtocol(name, c, d, eps, split)
		if err != nil {
			t.Fatal(err)
		}
		enc := p.Encoder()
		return codec[Pair, Report, WirePayload, Aggregator]{
			p: p, tier: binaryTierFrequency,
			data: func(n int, seed uint64) []Pair {
				r := xrand.New(seed)
				out := make([]Pair, n)
				for i := range out {
					out[i] = Pair{Class: r.Intn(c), Item: r.Intn(1 + r.Intn(d))}
				}
				return out
			},
			perturb: func(pair Pair, _ int, r *xrand.Rand) Report { return enc.Encode(pair, r) },
			batch: func(pairs []Pair, r *xrand.Rand) [][]float64 {
				est, err := estimator(eps, split)
				if err != nil {
					t.Fatal(err)
				}
				out, err := est.Estimate(&Dataset{Classes: c, Items: d, Name: "row", Pairs: pairs}, r)
				if err != nil {
					t.Fatal(err)
				}
				return out
			},
			wire: p.EncodeReport, decode: p.DecodeReport, fold: p.Fold,
			calibrate: func(tab *state.Table) [][]float64 { freq, sizes := p.Calibrate(tab); return append(freq, sizes) },
			frame:     p.AppendBinaryBatch, unframe: p.DecodeBinaryBatch,
			validate: p.ValidateBinaryBatch, foldChecked: p.FoldChecked, apply: p.ApplyBinaryBatch,
			newAgg: p.NewAggregator, add: Aggregator.Add, merge: Aggregator.Merge,
			estimates: func(a Aggregator) [][]float64 { return append(a.Estimates(), a.ClassSizes()) },
			marshal:   p.MarshalAggregator, unmarshal: p.UnmarshalAggregator,
			compatible: func(o tableProtocol) error { op, _ := o.(*Protocol); return p.WireCompatible(op) },
			clone:      Aggregator.Clone,
			foreign:    func(a Aggregator) Aggregator { return struct{ Aggregator }{a} },
			badWires: func() map[string]error {
				out := map[string]error{}
				for _, label := range []int{-1, c} {
					w := p.EncodeReport(enc.Encode(Pair{}, xrand.New(1)))
					w.Label = label
					_, out[fmt.Sprintf("label %d", label)] = p.DecodeReport(w)
				}
				return out
			},
			malformed: func() map[string][]byte {
				if p.shape.bitsLen%64 == 0 {
					return nil // value reports, or no bit of the last word beyond the domain
				}
				// A bit beyond the domain, which the encoder refuses to produce.
				stray := append(appendBinaryHeader(nil, binaryTierFrequency, 1), 0) // label 0
				stray = append(stray, make([]byte, 8*((p.shape.bitsLen+63)/64))...)
				stray[len(stray)-1] |= 0x80 // the last word's top bit
				return map[string][]byte{"stray bits": FinishBinaryFrame(stray, 0)}
			},
		}
	}}
}

// meanRow is a mean-tier row; estimator builds its offline batch
// framework.
func meanRow(name string, splitKeyed bool, estimator func(eps, split float64) (mean.Estimator, error)) protocolRow {
	return protocolRow{name: name, splitKeyed: splitKeyed, build: func(t testing.TB, c, _ int, eps, split float64) instance {
		t.Helper()
		p, err := NewNumericProtocol(name, c, eps, split)
		if err != nil {
			t.Fatal(err)
		}
		return codec[mean.Value, mean.Report, WireMeanReport, mean.Aggregator]{
			p: p, tier: binaryTierMean,
			data: func(n int, seed uint64) []mean.Value {
				r := xrand.New(seed)
				out := make([]mean.Value, n)
				for i := range out {
					class := r.Intn(c)
					out[i] = mean.Value{Class: class, X: math.Max(-1, math.Min(1, 0.5*float64(class%4)-0.4+0.2*r.NormFloat64()))}
				}
				return out
			},
			perturb: p.Encoder().Encode,
			batch: func(values []mean.Value, r *xrand.Rand) [][]float64 {
				est, err := estimator(eps, split)
				if err != nil {
					t.Fatal(err)
				}
				out, err := est.Estimate(&mean.Dataset{Classes: c, Name: "row", Values: values}, r)
				if err != nil {
					t.Fatal(err)
				}
				return [][]float64{out.Means, out.ClassSizes}
			},
			wire: p.EncodeMeanReport, decode: p.DecodeMeanReport, fold: p.Fold,
			calibrate: func(tab *state.Table) [][]float64 { means, sizes := p.Calibrate(tab); return [][]float64{means, sizes} },
			frame:     p.AppendBinaryMeanBatch, unframe: p.DecodeBinaryMeanBatch,
			validate: p.ValidateBinaryMeanBatch, foldChecked: p.FoldChecked, apply: p.ApplyBinaryMeanBatch,
			newAgg: p.NewAggregator, add: mean.Aggregator.Add, merge: mean.Aggregator.Merge,
			estimates: func(a mean.Aggregator) [][]float64 { return [][]float64{a.Means(), a.ClassSizes()} },
			marshal:   p.MarshalAggregator, unmarshal: p.UnmarshalAggregator,
			compatible: func(o tableProtocol) error { op, _ := o.(*NumericProtocol); return p.WireCompatible(op) },
			badWires: func() map[string]error {
				out := map[string]error{}
				for _, w := range []WireMeanReport{{Label: -1}, {Label: c}, {Symbol: -1}, {Symbol: p.Symbols()}} {
					_, out[fmt.Sprintf("%+v", w)] = p.DecodeMeanReport(w)
				}
				return out
			},
			malformed: func() map[string][]byte {
				bad := append(appendBinaryHeader(nil, binaryTierMean, 1), 0, byte(p.Symbols()))
				return map[string][]byte{"out-of-range symbol": FinishBinaryFrame(bad, 0)}
			},
		}
	}}
}

// ---------------------------------------------------------------------------
// The properties. Each Test function below runs its property on every row;
// the names of the twin tests they replace follow at the end.
// ---------------------------------------------------------------------------

// TestStreamingEqualsBatch is the decomposition property: feeding reports
// one by one through Encoder → Aggregator — across a Merge of two
// aggregators fed disjoint halves of the stream — reproduces the offline
// batch framework's output bit-identically under the same seed, with
// finite class sizes.
func TestStreamingEqualsBatch(t *testing.T) {
	forRows(t, protocolRows, func(t *testing.T, row protocolRow) { row.build(t, 3, 24, 2, 0.5).streamingEqualsBatch(t) })
}

func (k codec[D, R, W, A]) streamingEqualsBatch(t *testing.T) {
	const n, seed = 2500, 1234
	reps, _ := k.reports(n, seed)
	a, b := k.filled(reps[:n/2]), k.filled(reps[n/2:])
	if err := k.merge(a, b); err != nil {
		t.Fatal(err)
	}
	if a.N() != n {
		t.Fatalf("merged aggregator N %d, want %d", a.N(), n)
	}
	got, want := k.estimates(a), k.batch(k.data(n, seed), xrand.New(seed+1))
	if !sameRows(got[:len(want)], want) {
		t.Fatalf("streamed %v\nbatch    %v", got[:len(want)], want)
	}
	for _, sz := range got[len(got)-1] {
		if math.IsNaN(sz) || math.IsInf(sz, 0) {
			t.Fatalf("non-finite class size %v", sz)
		}
	}
}

// TestBinaryApplyMatchesAddState holds the frame kernel to the per-report
// path: over frames of 0 to 700 reports, at item domains around a word
// boundary (the CP flag alone in a second word at d = 64) and class counts
// from one to past the checked frame's inline table and the one-byte label,
// an aggregator ApplyBinaryBatch filled equals one filled report by report
// from the decoded frame — table bytes, N and estimates — as the
// aggregators accumulate, so a cell left over from an earlier frame shows.
// pts+sue, a protocol a server may run though no row is named after it,
// ships bit vectors through the same kernel and runs with the rows.
func TestBinaryApplyMatchesAddState(t *testing.T) {
	sue := freqRow("pts+sue", ptsOver("pts+sue", func(d int, eps float64) (fo.Mechanism, error) { return fo.NewSUE(d, eps) }))
	forRows(t, append(append([]protocolRow{}, protocolRows...), sue), frameKernel)
}

func frameKernel(t *testing.T, row protocolRow) {
	domains := [][2]int{{4, 63}, {4, 64}, {4, 70}, {4, 1000}}
	if !row.items {
		domains = [][2]int{{1, 0}, {5, 0}, {127, 0}, {128, 0}, {200, 0}, {20000, 0}}
	}
	for _, dom := range domains {
		t.Run(fmt.Sprintf("c=%d,d=%d", dom[0], dom[1]), func(t *testing.T) {
			row.build(t, dom[0], dom[1], 2, 0.5).frameKernel(t, row.vp)
		})
	}
}

func (k codec[D, R, W, A]) frameKernel(t *testing.T, vp bool) {
	sizes := []int{0, 1, 63, 64, 700}
	_, wires := k.reports(828, 5)
	var frames [][]byte
	for lo, i := 0, 0; i < len(sizes); lo, i = lo+sizes[i], i+1 {
		frames = append(frames, k.mustFrame(t, wires[lo:lo+sizes[i]]))
	}
	if vp {
		frames = append(frames, droppedFrame(t, k.p.(*Protocol), 90))
	}
	kernel, oracle := k.newAgg(), k.newAgg()
	var foreign A
	if k.foreign != nil {
		foreign = k.foreign(k.newAgg())
	}
	for _, frame := range frames {
		f, err := k.validate(frame)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("a %d-report frame", f.Count())
		if n, err := k.apply(kernel, frame); err != nil || n != f.Count() {
			t.Fatalf("%s: applied %d, %v", what, n, err)
		}
		k.addFrame(t, oracle, frame)
		k.requireSame(t, what, kernel, oracle)
		if k.foreign != nil {
			if _, err := k.apply(foreign, frame); err != nil {
				t.Fatal(err)
			}
			k.requireSame(t, what+" through the per-record fallback", foreign, oracle)
		}
	}
}

// droppedFrame is a frame of n PTS-CP reports every one of which carries
// the validity flag, so the VP rule drops every item bit.
func droppedFrame(t testing.TB, p *Protocol, n int) []byte {
	t.Helper()
	enc, r := p.Encoder(), xrand.New(9)
	wires := make([]WirePayload, n)
	for i := range wires {
		wires[i] = p.EncodeReport(enc.Encode(Pair{Class: i % p.Classes(), Item: i % p.Items()}, r))
		if bits := wires[i].Bits; len(bits) == 0 || bits[len(bits)-1] != p.Items() {
			wires[i].Bits = append(bits, p.Items())
		}
	}
	frame, err := p.AppendBinaryBatch(nil, wires)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestCheckedFrameIsAValue: a checked frame is a value. Folded twice or
// three times into a table, with other frames checked — one of them never
// folded — between its check and its folds, it counts exactly as often as
// it is folded right after its own check; a
// frame one protocol checked panics when another folds it. The mean rows
// run at a class count inside the checked frame's inline cell table and at
// one beyond it.
func TestCheckedFrameIsAValue(t *testing.T) { forRows(t, protocolRows, checkedFrameIsAValue) }

func checkedFrameIsAValue(t *testing.T, row protocolRow) {
	domains := [][2]int{{5, 1000}}
	if !row.items {
		domains = [][2]int{{5, 0}, {200, 0}}
	}
	for _, dom := range domains {
		t.Run(fmt.Sprintf("c=%d,d=%d", dom[0], dom[1]), func(t *testing.T) {
			k, other := row.build(t, dom[0], dom[1], 2, 0.5), row.build(t, dom[0], dom[1], 2, 0.5)
			k.checkedFrameIsAValue(t, other)
		})
	}
}

func (k codec[D, R, W, A]) checkedFrameIsAValue(t *testing.T, other instance) {
	check := func(frame []byte) CheckedFrame {
		f, err := k.validate(frame)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	// foldedAfterCheck folds each frame right after its own check.
	foldedAfterCheck := func(frames ...[]byte) state.Table {
		tab := k.p.NewTable()
		for _, frame := range frames {
			k.foldChecked(&tab, check(frame))
		}
		return tab
	}
	_, wires := k.reports(1000, 11)
	a, b := k.mustFrame(t, wires[:500]), k.mustFrame(t, wires[500:800])
	fa, fb := check(a), check(b)
	check(k.mustFrame(t, wires[800:])) // checked and dropped
	ta, tb := k.p.NewTable(), k.p.NewTable()
	k.foldChecked(&ta, fa)
	k.foldChecked(&tb, fb)
	k.foldChecked(&ta, fa)
	k.foldChecked(&tb, fb)
	k.foldChecked(&tb, fb)
	for _, c := range []struct {
		what      string
		got, want state.Table
	}{{"folded twice", ta, foldedAfterCheck(a, a)}, {"folded three times", tb, foldedAfterCheck(b, b, b)}} {
		if c.got.N != c.want.N || !reflect.DeepEqual(c.got.Cells, c.want.Cells) {
			t.Fatalf("%s: %d reports counted, want %d, or the cells differ", c.what, c.got.N, c.want.N)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("a frame checked by one protocol folded under another")
		}
	}()
	tab := other.protocol().NewTable()
	other.(codec[D, R, W, A]).foldChecked(&tab, fa)
}

// TestWireCodecRoundTrip: every report survives Encode → wire JSON →
// Decode to the same wire bytes, an aggregator fed the decoded reports
// equals one fed the originals, a binary frame (d = 70: a partial last
// word) validates to its record count and decodes to reports that frame
// back to the same bytes, and out-of-shape wire reports are refused.
func TestWireCodecRoundTrip(t *testing.T) { forRows(t, protocolRows, wireRoundTrip) }

func wireRoundTrip(t *testing.T, row protocolRow) { row.build(t, 3, 70, 1.5, 0.5).wireRoundTrip(t) }

func (k codec[D, R, W, A]) wireRoundTrip(t *testing.T) {
	reps, wires := k.reports(800, 77)
	viaWire := k.newAgg()
	for i, w := range wires {
		in, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var back W
		if err := json.Unmarshal(in, &back); err != nil {
			t.Fatal(err)
		}
		rep, err := k.decode(back)
		if err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		if out, err := json.Marshal(k.wire(rep)); err != nil || !bytes.Equal(out, in) {
			t.Fatalf("report %d: %s round-tripped to %s (%v)", i, in, out, err)
		}
		k.add(viaWire, rep)
	}
	k.requireSame(t, "decoded reports", viaWire, k.filled(reps))

	frame := k.mustFrame(t, wires[:57])
	if f, err := k.validate(frame); err != nil || f.Count() != 57 {
		t.Fatalf("validated %d records, want 57 (%v)", f.Count(), err)
	}
	decoded, err := k.unframe(frame)
	if err != nil || !bytes.Equal(k.mustFrame(t, decoded), frame) {
		t.Fatalf("frame did not decode to its reports (%v)", err)
	}
	for what, err := range k.badWires() {
		if err == nil {
			t.Errorf("out-of-shape report %s accepted", what)
		}
	}
}

// TestEnvelopeRoundTripBitIdentical: marshal → unmarshal gives back an
// aggregator with the same N and estimates that marshals to identical
// bytes, empty or not, and keeps merging exactly; a corrupt envelope, no
// envelope at all and a well-framed envelope around a payload that is no
// table are errors, never a panic.
func TestEnvelopeRoundTripBitIdentical(t *testing.T) { forRows(t, protocolRows, envelopeRoundTrip) }

func envelopeRoundTrip(t *testing.T, row protocolRow) {
	row.build(t, 3, 12, 1.5, 0.5).envelopeRoundTrip(t)
}

func (k codec[D, R, W, A]) envelopeRoundTrip(t *testing.T) {
	reps, _ := k.reports(550, 11)
	for _, a := range []A{k.newAgg(), k.filled(reps[:400])} {
		env, err := k.marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := k.unmarshal(env)
		if err != nil {
			t.Fatal(err)
		}
		k.requireSame(t, "restored", restored, a)
		if again, err := k.marshal(restored); err != nil || !bytes.Equal(again, env) {
			t.Fatalf("restored aggregator marshals to other bytes (%v)", err)
		}
		// A restored aggregator keeps participating in exact merges.
		other := k.filled(reps[400:])
		if err := k.merge(restored, other); err != nil {
			t.Fatal(err)
		}
		if err := k.merge(a, other); err != nil {
			t.Fatal(err)
		}
		k.requireSame(t, "merge after restore", restored, a)
		mangled := append([]byte(nil), env...)
		mangled[len(mangled)/2] ^= 0xff
		if _, err := k.unmarshal(mangled); err == nil {
			t.Fatal("corrupt envelope accepted")
		}
	}
	if _, err := k.unmarshal(nil); err == nil {
		t.Fatal("restored from nil")
	}
	if _, err := k.unmarshal(state.Encode(k.p.Fingerprint(), []byte("definitely not a table"))); err == nil {
		t.Fatal("restored from a well-framed garbage payload")
	}
}

// TestEnvelopeFingerprintMismatch: an envelope restores only under a
// protocol with the identical fingerprint — every other row and the row at
// another domain, class count, budget or (where it is keyed on it) split
// answer ErrIncompatibleState, and an aggregator of a mismatched protocol
// of the tier is refused by Merge with nothing merged. Two protocols share
// a fingerprint exactly when WireCompatible accepts them.
func TestEnvelopeFingerprintMismatch(t *testing.T) { forRows(t, protocolRows, crossProtocolRefusal) }

func crossProtocolRefusal(t *testing.T, row protocolRow) {
	const c, d, eps, split = 3, 12, 1.5, 0.5
	variants := map[string]instance{
		"itself":        row.build(t, c, d, eps, split),
		"other classes": row.build(t, c+1, d, eps, split),
		"other budget":  row.build(t, c, d, eps+1, split),
		"other split":   row.build(t, c, d, eps, split/2),
		"other domain":  row.build(t, c, d+1, eps, split),
	}
	for _, o := range protocolRows {
		if o.name != row.name {
			variants[o.name] = o.build(t, c, d, eps, split)
		}
	}
	row.build(t, c, d, eps, split).refusesForeign(t, variants, func(what string) bool {
		return what == "itself" || what == "other split" && !row.splitKeyed || what == "other domain" && !row.items
	})
}

func (k codec[D, R, W, A]) refusesForeign(t *testing.T, variants map[string]instance, same func(string) bool) {
	reps, _ := k.reports(50, 3)
	filled := k.filled(reps)
	env, err := k.marshal(filled)
	if err != nil {
		t.Fatal(err)
	}
	for what, v := range variants {
		same := same(what)
		if got := v.protocol().Fingerprint() == k.p.Fingerprint(); got != same {
			t.Fatalf("%s: fingerprint equal = %v, want %v", what, got, same)
		}
		if compat := k.compatible(v.protocol()) == nil; compat != same {
			t.Fatalf("%s: WireCompatible = %v, fingerprint equal = %v", what, compat, same)
		}
		n, err := v.restore(env)
		if same && (err != nil || n != 50) {
			t.Fatalf("%s refused the envelope: %v", what, err)
		}
		if !same && !errors.Is(err, ErrIncompatibleState) {
			t.Fatalf("%s accepted the envelope (err=%v)", what, err)
		}
		if vk, ok := v.(codec[D, R, W, A]); ok { // an aggregator of the tier
			into := vk.newAgg()
			if err := vk.merge(into, filled); (err == nil) != same || !same && into.N() != 0 {
				t.Fatalf("%s: merge err=%v, %d reports merged", what, err, into.N())
			}
		}
	}
}

// TestBinaryBatchRejectsCorruption: a damaged frame fails closed — a
// flipped bit, a truncation, an empty body, the other tier's tier byte, a
// count above or below the framed records and each row's hand-framed
// malformed records are refused by validation, and an erroring apply
// leaves the aggregator untouched.
func TestBinaryBatchRejectsCorruption(t *testing.T) {
	forRows(t, protocolRows, func(t *testing.T, row protocolRow) { row.build(t, 3, 70, 2, 0.5).rejectsCorruption(t) })
}

func (k codec[D, R, W, A]) rejectsCorruption(t *testing.T) {
	_, wires := k.reports(20, 3)
	frame := k.mustFrame(t, wires)
	rec, count, err := openBinaryFrame(frame, k.tier)
	if err != nil {
		t.Fatal(err)
	}
	other := map[byte]byte{binaryTierFrequency: binaryTierMean, binaryTierMean: binaryTierFrequency}[k.tier]
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)/2] ^= 0x40
	bad := map[string][]byte{
		"bit flip":       flipped,
		"truncated":      frame[:len(frame)-5],
		"empty":          nil,
		"other tier":     FinishBinaryFrame(append(appendBinaryHeader(nil, other, count), rec...), 0),
		"count overrun":  FinishBinaryFrame(append(appendBinaryHeader(nil, k.tier, count+1), rec...), 0),
		"count underrun": FinishBinaryFrame(append(appendBinaryHeader(nil, k.tier, count-1), rec...), 0),
	}
	for what, b := range k.malformed() {
		bad[what] = b
	}
	for what, b := range bad {
		if _, err := k.validate(b); err == nil {
			t.Fatalf("%s: validation accepted a damaged frame", what)
		}
		a := k.newAgg()
		if _, err := k.apply(a, b); err == nil || a.N() != 0 {
			t.Fatalf("%s: apply err=%v, %d reports applied", what, err, a.N())
		}
	}
}

// TestCloneSharesNothing pins what clone-on-read relies on: reports added
// to a copy leave the original's estimates and table bytes as they were,
// and reports added to the original leave the copy's — for the table the
// collection server copies (Table.Clone) and, on the frequency tier, for
// Aggregator.Clone.
func TestCloneSharesNothing(t *testing.T) {
	forRows(t, protocolRows, func(t *testing.T, row protocolRow) { row.build(t, 3, 12, 1.5, 0.5).cloneSharesNothing(t) })
}

func (k codec[D, R, W, A]) cloneSharesNothing(t *testing.T) {
	reps, _ := k.reports(900, 1)
	empty := k.p.NewTable()
	checkCloneSharesNothing(t, &empty,
		func(a *state.Table) *state.Table { cl := a.Clone(); return &cl },
		func(a *state.Table, part int) {
			for _, rep := range reps[300*part : 300*(part+1)] {
				k.fold(a, rep)
			}
		},
		func(a *state.Table) any { return k.calibrate(a) })
	if k.clone != nil {
		checkCloneSharesNothing(t, k.newAgg(), k.clone,
			func(a A, part int) {
				for _, rep := range reps[300*part : 300*(part+1)] {
					k.add(a, rep)
				}
			},
			func(a A) any { return k.estimates(a) })
	}
}

// checkCloneSharesNothing fills orig with the first part of a stream,
// clones it, and checks that filling either side with another part leaves
// the other's estimates (read) and table bytes unchanged.
func checkCloneSharesNothing[A interface {
	MarshalBinary() ([]byte, error)
}](t *testing.T, orig A, clone func(A) A, fill func(A, int), read func(A) any) {
	t.Helper()
	state := func(a A) (any, []byte) {
		b, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return read(a), b
	}
	fill(orig, 0)
	cl := clone(orig)
	est, bin := state(orig)
	fill(cl, 1)
	if gotEst, gotBin := state(orig); !reflect.DeepEqual(gotEst, est) || !bytes.Equal(gotBin, bin) {
		t.Fatal("adding to the clone changed the original")
	}
	clEst, clBin := state(cl)
	if bytes.Equal(clBin, bin) {
		t.Fatal("the clone did not take its reports")
	}
	fill(orig, 2)
	if gotEst, gotBin := state(cl); !reflect.DeepEqual(gotEst, clEst) || !bytes.Equal(gotBin, clBin) {
		t.Fatal("adding to the original changed the clone")
	}
}

// The twin tests' names, kept so every test id they printed still runs:
// where a twin printed subtests, its name reruns the property on those rows;
// where it printed none, on one row.
func TestNumericWireCodecRoundTrip(t *testing.T)    { forRows(t, meanRows, wireRoundTrip) }
func TestBinaryApplyMatchesJSONDecode(t *testing.T) { forRows(t, rowNamed("ptscp"), frameKernel) }
func TestMeanFrameKernelMatchesPerReportAdd(t *testing.T) {
	forRows(t, rowNamed("cpmean"), frameKernel)
}
func TestBinaryBatchRoundTrip(t *testing.T)     { forRows(t, rowNamed("pts+olh"), wireRoundTrip) }
func TestBinaryMeanBatch(t *testing.T)          { forRows(t, rowNamed("cpmean"), wireRoundTrip) }
func TestNumericEnvelopeRoundTrip(t *testing.T) { forRows(t, rowNamed("cpmean"), envelopeRoundTrip) }
func TestEnvelopeEmptyAggregator(t *testing.T)  { forRows(t, rowNamed("ptscp"), envelopeRoundTrip) }
func TestFingerprintMatchesWireCompatible(t *testing.T) {
	forRows(t, rowNamed("pts"), crossProtocolRefusal)
}
func TestCheckedMeanFrameIsAValue(t *testing.T) { forRows(t, rowNamed("cpmean"), checkedFrameIsAValue) }

func rowNamed(name string) []protocolRow {
	for _, row := range protocolRows {
		if row.name == name {
			return []protocolRow{row}
		}
	}
	panic("no row " + name)
}
