package core

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/fo"
	"repro/internal/xrand"
)

// protocolDataset builds a moderately skewed population for the property
// tests.
func protocolDataset(c, d, n int, seed uint64) *Dataset {
	r := xrand.New(seed)
	data := &Dataset{Classes: c, Items: d, Name: "proto"}
	for i := 0; i < n; i++ {
		data.Pairs = append(data.Pairs, Pair{Class: r.Intn(c), Item: r.Intn(1 + r.Intn(d))})
	}
	return data
}

// testFrameworks pairs every canonical protocol with its batch framework at
// identical parameters.
func testFrameworks(t *testing.T, eps, split float64) map[string]FrequencyEstimator {
	t.Helper()
	pts, err := NewPTS(eps, split)
	if err != nil {
		t.Fatal(err)
	}
	ptscp, err := NewPTSCP(eps, split)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]FrequencyEstimator{
		"hec":   NewHEC(eps),
		"ptj":   NewPTJ(eps),
		"pts":   pts,
		"ptscp": ptscp,
	}
}

// TestStreamingEqualsBatch is the decomposition property: for every
// framework, feeding reports one-by-one through Encoder → Aggregator —
// including across a Merge of two aggregators fed disjoint halves of the
// stream — reproduces Estimate's output bit-identically under the same seed.
func TestStreamingEqualsBatch(t *testing.T) {
	const (
		c, d, n = 3, 24, 2500
		eps     = 2.0
		split   = 0.5
		seed    = 1234
	)
	data := protocolDataset(c, d, n, 99)
	for name, est := range testFrameworks(t, eps, split) {
		t.Run(name, func(t *testing.T) {
			batch, err := est.Estimate(data, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewProtocol(name, c, d, eps, split)
			if err != nil {
				t.Fatal(err)
			}
			// Stream the same pairs under the same seed into two
			// aggregators split mid-stream, then merge.
			enc := p.Encoder()
			aggA, aggB := p.NewAggregator(), p.NewAggregator()
			r := xrand.New(seed)
			for i, pair := range data.Pairs {
				rep := enc.Encode(pair, r)
				if i < len(data.Pairs)/2 {
					aggA.Add(rep)
				} else {
					aggB.Add(rep)
				}
			}
			if err := aggA.Merge(aggB); err != nil {
				t.Fatal(err)
			}
			if aggA.N() != n {
				t.Fatalf("merged aggregator N %d, want %d", aggA.N(), n)
			}
			streamed := aggA.Estimates()
			for ci := 0; ci < c; ci++ {
				for i := 0; i < d; i++ {
					if streamed[ci][i] != batch[ci][i] {
						t.Fatalf("cell (%d,%d): streamed %v != batch %v",
							ci, i, streamed[ci][i], batch[ci][i])
					}
				}
			}
			for _, sz := range aggA.ClassSizes() {
				if math.IsNaN(sz) || math.IsInf(sz, 0) {
					t.Fatalf("non-finite class size %v", sz)
				}
			}
		})
	}
}

// TestWireCodecRoundTrip checks that every canonical protocol's reports
// survive Encode → wire JSON → Decode, and that an aggregator fed the
// decoded reports reproduces one fed the originals bit-identically.
func TestWireCodecRoundTrip(t *testing.T) {
	const (
		c, d, n = 3, 16, 800
		eps     = 1.5
		seed    = 77
	)
	for _, name := range ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			p, err := NewProtocol(name, c, d, eps, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			enc := p.Encoder()
			direct, viaWire := p.NewAggregator(), p.NewAggregator()
			r, rp := xrand.New(seed), xrand.New(9)
			for i := 0; i < n; i++ {
				pair := Pair{Class: rp.Intn(c), Item: rp.Intn(d)}
				rep := enc.Encode(pair, r)
				blob, err := json.Marshal(p.EncodeReport(rep))
				if err != nil {
					t.Fatal(err)
				}
				var w WirePayload
				if err := json.Unmarshal(blob, &w); err != nil {
					t.Fatal(err)
				}
				decoded, err := p.DecodeReport(w)
				if err != nil {
					t.Fatalf("report %d: %v", i, err)
				}
				direct.Add(rep)
				viaWire.Add(decoded)
			}
			fd, fw := direct.Estimates(), viaWire.Estimates()
			for ci := range fd {
				for i := range fd[ci] {
					if fd[ci][i] != fw[ci][i] {
						t.Fatalf("cell (%d,%d): direct %v != via-wire %v", ci, i, fd[ci][i], fw[ci][i])
					}
				}
			}
		})
	}
}

// TestDecodeReportRejectsMalformed exercises the codec's validation for
// both payload shapes.
func TestDecodeReportRejectsMalformed(t *testing.T) {
	val := func(v int) *int { return &v }
	// ptscp: bit-shape over d+1 positions.
	cp, err := NewProtocol("ptscp", 3, 8, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []WirePayload{
		{Label: -1},
		{Label: 3},
		{Label: 0, Bits: []int{9}},
		{Label: 0, Bits: []int{-1}},
		{Label: 0, Value: val(2)},
	} {
		if _, err := cp.DecodeReport(w); err == nil {
			t.Errorf("ptscp accepted %+v", w)
		}
	}
	if _, err := cp.DecodeReport(WirePayload{Label: 2, Bits: []int{0, 8}}); err != nil {
		t.Errorf("ptscp rejected valid payload: %v", err)
	}
	// ptj at small c·d: adaptive picks GRR, a value shape with label pinned
	// to 0.
	ptj, err := NewProtocol("ptj", 2, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []WirePayload{
		{Label: 1, Value: val(0)},
		{Label: 0},
		{Label: 0, Value: val(6)},
		{Label: 0, Value: val(-1)},
		{Label: 0, Value: val(1), Bits: []int{1}},
	} {
		if _, err := ptj.DecodeReport(w); err == nil {
			t.Errorf("ptj accepted %+v", w)
		}
	}
	if _, err := ptj.DecodeReport(WirePayload{Label: 0, Value: val(5)}); err != nil {
		t.Errorf("ptj rejected valid payload: %v", err)
	}
}

// TestNewProtocolValidation covers constructor error paths.
func TestNewProtocolValidation(t *testing.T) {
	if _, err := NewProtocol("nope", 2, 4, 1, 0.5); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := NewProtocol("pts", 2, 4, 1, 0); err == nil {
		t.Error("pts with split 0 accepted")
	}
	if _, err := NewProtocol("ptscp", 2, 4, 1, 1); err == nil {
		t.Error("ptscp with split 1 accepted")
	}
	if _, err := NewProtocol("hec", 0, 4, 1, 0); err == nil {
		t.Error("hec with zero classes accepted")
	}
	if _, err := NewProtocol("ptj", 2, 4, 0, 0); err == nil {
		t.Error("ptj with zero budget accepted")
	}
	// Name aliases canonicalize.
	for _, alias := range []string{"PTS-CP", "pts_cp", " PTSCP "} {
		p, err := NewProtocol(alias, 2, 4, 1, 0.5)
		if err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		} else if p.Name() != "ptscp" {
			t.Errorf("alias %q canonicalized to %q", alias, p.Name())
		}
	}
	// Named item mechanisms compose as pts+<item>.
	for _, name := range []string{"pts+oue", "pts+sue", "pts+olh", "pts+grr", "pts+adaptive", "PTS+OLH"} {
		p, err := NewProtocol(name, 2, 4, 1, 0.5)
		if err != nil {
			t.Errorf("named pts %q rejected: %v", name, err)
		} else if p.Name() != CanonicalProtocolName(name) {
			t.Errorf("named pts %q canonicalized to %q", name, p.Name())
		}
	}
	if _, err := NewProtocol("pts+nope", 2, 4, 1, 0.5); err == nil {
		t.Error("unknown pts item mechanism accepted")
	}
}

// TestWireCompatible distinguishes protocols whose reports share a wire
// shape but whose mechanisms calibrate differently.
func TestWireCompatible(t *testing.T) {
	pts, _ := NewProtocol("pts", 2, 8, 1, 0.5)
	same, _ := NewProtocol("pts", 2, 8, 1, 0.5)
	if err := pts.WireCompatible(same); err != nil {
		t.Errorf("identical protocols incompatible: %v", err)
	}
	sueAsPTS, err := NewPTSProtocolWithItem("pts", 2, 8, 1, 0.5,
		func(d int, eps float64) (fo.Mechanism, error) { return fo.NewSUE(d, eps) })
	if err != nil {
		t.Fatal(err)
	}
	if err := pts.WireCompatible(sueAsPTS); err == nil {
		t.Error("SUE-backed protocol passed as wire-compatible with pts (OUE)")
	}
	other, _ := NewProtocol("pts", 2, 8, 2, 0.5)
	if err := pts.WireCompatible(other); err == nil {
		t.Error("different budgets passed as wire-compatible")
	}
	if err := pts.WireCompatible(nil); err == nil {
		t.Error("nil protocol passed as wire-compatible")
	}
}

// TestDecodeReportRejectsStraySeed: a seed on a protocol whose reports
// carry none marks a misrouted report (e.g. OLH posted to a GRR round)
// and must be rejected like any other shape violation.
func TestDecodeReportRejectsStraySeed(t *testing.T) {
	val := func(v int) *int { return &v }
	grr, err := NewProtocol("pts+grr", 3, 4, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grr.DecodeReport(WirePayload{Label: 0, Value: val(1), Seed: 12345}); err == nil {
		t.Error("pts+grr accepted a report with a hash seed")
	}
	if _, err := grr.DecodeReport(WirePayload{Label: 0, Value: val(1)}); err != nil {
		t.Errorf("pts+grr rejected a valid report: %v", err)
	}
	cp, err := NewProtocol("ptscp", 3, 4, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.DecodeReport(WirePayload{Label: 0, Bits: []int{1}, Seed: 7}); err == nil {
		t.Error("ptscp accepted a report with a hash seed")
	}
}

// TestPTSProtocolOverOLH checks the pluggable item mechanism: PTS over OLH
// streams, merges and round-trips the wire (value + seed payloads), and its
// estimates match PTSCustom's batch path bit-identically.
func TestPTSProtocolOverOLH(t *testing.T) {
	const (
		c, d, n = 3, 12, 1500
		eps     = 2.0
		seed    = 4242
	)
	factory := func(d int, eps float64) (fo.Mechanism, error) { return fo.NewOLH(d, eps) }
	custom, err := NewPTSWithItem("pts-olh", eps, 0.5, factory)
	if err != nil {
		t.Fatal(err)
	}
	data := protocolDataset(c, d, n, 5)
	batch, err := custom.Estimate(data, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPTSProtocolWithItem("pts-olh", c, d, eps, 0.5, factory)
	if err != nil {
		t.Fatal(err)
	}
	enc := p.Encoder()
	agg := p.NewAggregator()
	r := xrand.New(seed)
	for _, pair := range data.Pairs {
		rep := enc.Encode(pair, r)
		decoded, err := p.DecodeReport(p.EncodeReport(rep))
		if err != nil {
			t.Fatal(err)
		}
		agg.Add(decoded)
	}
	streamed := agg.Estimates()
	for ci := range batch {
		for i := range batch[ci] {
			if streamed[ci][i] != batch[ci][i] {
				t.Fatalf("cell (%d,%d): streamed %v != batch %v", ci, i, streamed[ci][i], batch[ci][i])
			}
		}
	}
}

// TestPTSEstimateMatchesDirectBitCounts pins PTS's batch output to the
// pre-decomposition algorithm: perturb label with GRR(ε₁) and item bits
// with OUE(ε₂), count bits per perturbed label, push the integer counts
// through Eq. (6). The aggregator works from exact integer supports, so the
// decomposed path must reproduce this bit-identically.
func TestPTSEstimateMatchesDirectBitCounts(t *testing.T) {
	const (
		c, d, n = 3, 24, 2500
		eps     = 5.7
		split   = 0.3
		seed    = 1234
	)
	data := protocolDataset(c, d, n, 99)
	pts, err := NewPTS(eps, split)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pts.Estimate(data, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	// The reference implementation, verbatim from the batch-era PTS.
	label, err := fo.NewGRR(c, eps*split)
	if err != nil {
		t.Fatal(err)
	}
	item, err := fo.NewOUE(d, eps-eps*split)
	if err != nil {
		t.Fatal(err)
	}
	pairCounts := NewMatrix(c, d)
	labelCounts := make([]float64, c)
	r := xrand.New(seed)
	for _, pair := range data.Pairs {
		lab := label.PerturbValue(pair.Class, r)
		labelCounts[lab]++
		bits := item.PerturbBits(pair.Item, r)
		row := pairCounts[lab]
		bits.ForEachSet(func(i int) { row[i]++ })
	}
	nf := float64(data.N())
	p1, q1 := label.P(), label.Q()
	p2, q2 := item.P(), item.Q()
	itemHat := make([]float64, d)
	for i := 0; i < d; i++ {
		sum := 0.0
		for ci := 0; ci < c; ci++ {
			sum += pairCounts[ci][i]
		}
		itemHat[i] = (sum - nf*q2) / (p2 - q2)
	}
	for ci := 0; ci < c; ci++ {
		nHat := (labelCounts[ci] - nf*q1) / (p1 - q1)
		for i := 0; i < d; i++ {
			want := (pairCounts[ci][i] -
				nHat*q2*(p1-q1) -
				itemHat[i]*q1*(p2-q2) -
				nf*q1*q2) / ((p1 - q1) * (p2 - q2))
			if got[ci][i] != want {
				t.Fatalf("cell (%d,%d): decomposed %v != direct %v", ci, i, got[ci][i], want)
			}
		}
	}
}

// TestAggregatorMergeRejectsMismatch checks cross-protocol merges fail
// loudly instead of corrupting counts.
func TestAggregatorMergeRejectsMismatch(t *testing.T) {
	hec, _ := NewProtocol("hec", 2, 4, 1, 0)
	pts, _ := NewProtocol("pts", 2, 4, 1, 0.5)
	if err := hec.NewAggregator().Merge(pts.NewAggregator()); err == nil {
		t.Error("hec aggregator merged a pts aggregator")
	}
	big, _ := NewProtocol("ptscp", 2, 8, 1, 0.5)
	small, _ := NewProtocol("ptscp", 2, 4, 1, 0.5)
	if err := big.NewAggregator().Merge(small.NewAggregator()); err == nil {
		t.Error("ptscp aggregator merged a mismatched domain")
	}
	// Table shapes coincide in each pair below while the calibrations do
	// not, so only the protocol identity tells them apart.
	mustProtocol := func(name string, eps, split float64) *Protocol {
		t.Helper()
		p, err := NewProtocol(name, 3, 16, eps, split)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	sueAsPTS, err := NewPTSProtocolWithItem("pts", 3, 16, 1, 0.5,
		func(d int, eps float64) (fo.Mechanism, error) { return fo.NewSUE(d, eps) })
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		what        string
		into, other *Protocol
	}{
		{"pts ε=1 ← pts ε=4", mustProtocol("pts", 1, 0.5), mustProtocol("pts", 4, 0.5)},
		{"pts ← pts+sue", mustProtocol("pts", 1, 0.5), mustProtocol("pts+sue", 1, 0.5)},
		{"pts (OUE) ← pts over SUE", mustProtocol("pts", 1, 0.5), sueAsPTS},
		{"ptscp split 0.5 ← 0.3", mustProtocol("ptscp", 1, 0.5), mustProtocol("ptscp", 1, 0.3)},
	} {
		into, other := tc.into.NewAggregator(), tc.other.NewAggregator()
		fillAggregator(t, tc.other, other, 50, 7)
		if err := into.Merge(other); err == nil {
			t.Errorf("%s: merge accepted", tc.what)
		}
		if into.N() != 0 {
			t.Errorf("%s: refused merge left %d reports", tc.what, into.N())
		}
	}
	// Another protocol value with the same fingerprint is the same protocol.
	a, b := mustProtocol("pts", 1, 0.5), mustProtocol("pts", 1, 0.5)
	if err := a.NewAggregator().Merge(b.NewAggregator()); err != nil {
		t.Errorf("equal protocols refused to merge: %v", err)
	}
	// The offline accumulator compares its mechanism's probabilities.
	cp1, _ := NewCP(3, 16, 1, 0.5)
	cp4, _ := NewCP(3, 16, 4, 0.5)
	if err := cp1.NewAccumulator().Merge(cp4.NewAccumulator()); err == nil {
		t.Error("CPAccumulator merged an accumulator of another budget")
	}
	same, _ := NewCP(3, 16, 1, 0.5)
	if err := cp1.NewAccumulator().Merge(same.NewAccumulator()); err != nil {
		t.Errorf("CPAccumulator refused an equal mechanism: %v", err)
	}
}
