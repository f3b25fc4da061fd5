package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/mean"
	"repro/internal/xrand"
)

// binwireProtocols builds one protocol per wire shape the codec handles:
// packed bit vectors (pts/oue, ptscp), bare values (pts+grr), seeded
// values (pts+olh), plus hec and ptj whose adaptive mechanism picks its own
// shape. Together they cover all four canonical frameworks.
func binwireProtocols(t testing.TB, c, d int) []*Protocol {
	t.Helper()
	var out []*Protocol
	for _, name := range []string{"hec", "ptj", "pts", "ptscp", "pts+grr", "pts+olh"} {
		p, err := NewProtocol(name, c, d, 2.0, 0.5)
		if err != nil {
			t.Fatalf("NewProtocol(%s): %v", name, err)
		}
		out = append(out, p)
	}
	return out
}

// encodeWires perturbs n uniform pairs under p and returns their wire
// payloads.
func encodeWires(t testing.TB, p *Protocol, c, d, n int, seed uint64) []WirePayload {
	t.Helper()
	enc := p.Encoder()
	r := xrand.New(seed)
	wires := make([]WirePayload, n)
	for i := range wires {
		pair := Pair{Class: r.Intn(c), Item: r.Intn(d)}
		wires[i] = p.EncodeReport(enc.Encode(pair, r))
	}
	return wires
}

// TestBinaryBatchRoundTrip pins that a frame decodes back to the exact
// payloads that went in, for every wire shape.
func TestBinaryBatchRoundTrip(t *testing.T) {
	const c, d, n = 3, 70, 57 // d=70 exercises a partial last word
	for _, p := range binwireProtocols(t, c, d) {
		wires := encodeWires(t, p, c, d, n, 1)
		frame, err := p.AppendBinaryBatch(nil, wires)
		if err != nil {
			t.Fatalf("%s: AppendBinaryBatch: %v", p.Name(), err)
		}
		checked, err := p.ValidateBinaryBatch(frame)
		if err != nil {
			t.Fatalf("%s: ValidateBinaryBatch: %v", p.Name(), err)
		}
		if checked.Count() != n {
			t.Fatalf("%s: validated %d records, want %d", p.Name(), checked.Count(), n)
		}
		got, err := p.DecodeBinaryBatch(frame)
		if err != nil {
			t.Fatalf("%s: DecodeBinaryBatch: %v", p.Name(), err)
		}
		if len(got) != n {
			t.Fatalf("%s: decoded %d payloads, want %d", p.Name(), len(got), n)
		}
		for i := range got {
			if !samePayload(got[i], wires[i]) {
				t.Fatalf("%s: payload %d round-tripped to %+v, want %+v", p.Name(), i, got[i], wires[i])
			}
		}
	}
}

// samePayload compares two wire payloads semantically (nil and empty Bits
// are the same vector; Value by pointee).
func samePayload(a, b WirePayload) bool {
	if a.Label != b.Label || a.Seed != b.Seed {
		return false
	}
	if (a.Value == nil) != (b.Value == nil) {
		return false
	}
	if a.Value != nil && *a.Value != *b.Value {
		return false
	}
	if len(a.Bits) != len(b.Bits) {
		return false
	}
	for i := range a.Bits {
		if a.Bits[i] != b.Bits[i] {
			return false
		}
	}
	return true
}

// TestBinaryApplyMatchesJSONDecode pins the tentpole equivalence: folding a
// binary frame into an aggregator with ApplyBinaryBatch produces estimates
// bit-identical to decoding the same payloads from JSON (DecodeReport) and
// Adding them one by one — for every framework.
func TestBinaryApplyMatchesJSONDecode(t *testing.T) {
	const c, d, n = 4, 65, 400
	for _, p := range binwireProtocols(t, c, d) {
		wires := encodeWires(t, p, c, d, n, 7)
		frame, err := p.AppendBinaryBatch(nil, wires)
		if err != nil {
			t.Fatalf("%s: AppendBinaryBatch: %v", p.Name(), err)
		}

		jsonAgg := p.NewAggregator()
		for _, w := range wires {
			rep, err := p.DecodeReport(w)
			if err != nil {
				t.Fatalf("%s: DecodeReport: %v", p.Name(), err)
			}
			jsonAgg.Add(rep)
		}
		binAgg := p.NewAggregator()
		applied, err := p.ApplyBinaryBatch(binAgg, frame)
		if err != nil {
			t.Fatalf("%s: ApplyBinaryBatch: %v", p.Name(), err)
		}
		if applied != n {
			t.Fatalf("%s: applied %d records, want %d", p.Name(), applied, n)
		}
		if binAgg.N() != jsonAgg.N() {
			t.Fatalf("%s: binary N=%d, JSON N=%d", p.Name(), binAgg.N(), jsonAgg.N())
		}
		if !reflect.DeepEqual(binAgg.Estimates(), jsonAgg.Estimates()) {
			t.Fatalf("%s: binary and JSON estimates differ", p.Name())
		}
		if !reflect.DeepEqual(binAgg.ClassSizes(), jsonAgg.ClassSizes()) {
			t.Fatalf("%s: binary and JSON class sizes differ", p.Name())
		}
	}
}

// TestBinaryApplyMatchesAddState pins the column-sum apply to the per-report
// path at the level of aggregator state: for every framework that ships bit
// vectors, over OUE and SUE, ApplyBinaryBatch must leave exactly the state
// that Add over the decoded payloads leaves — equal marshalled bytes — on
// ordinary frames, one-report frames, empty frames, frames whose every
// report the VP rule drops, and onto an aggregator that already holds
// counts.
func TestBinaryApplyMatchesAddState(t *testing.T) {
	for _, d := range []int{63, 64, 70, 1000} { // 64: the CP flag sits alone in a second word
		for _, name := range []string{"hec", "ptj", "pts", "pts+sue", "ptscp"} {
			const c = 4
			p, err := NewProtocol(name, c, d, 2.0, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if p.shape.bitsLen == 0 {
				t.Fatalf("%s at d=%d does not ship bit vectors", name, d)
			}
			frames := map[string][]WirePayload{
				"ordinary": encodeWires(t, p, c, d, 700, uint64(d)),
				"one":      encodeWires(t, p, c, d, 1, 5),
				"empty":    nil,
			}
			if name == "ptscp" {
				dropped := encodeWires(t, p, c, d, 90, 9)
				for i := range dropped {
					if bits := dropped[i].Bits; len(bits) == 0 || bits[len(bits)-1] != d {
						dropped[i].Bits = append(bits, d)
					}
				}
				frames["all dropped"] = dropped
			}
			for kind, wires := range frames {
				frame, err := p.AppendBinaryBatch(nil, wires)
				if err != nil {
					t.Fatal(err)
				}
				viaAdd, viaApply := p.NewAggregator(), p.NewAggregator()
				// An aggregator from outside the package has no row path and
				// takes one materialized report per record.
				foreign := struct{ Aggregator }{p.NewAggregator()}
				for round := 0; round < 2; round++ { // the second lands on held counts
					decoded, err := p.DecodeBinaryBatch(frame)
					if err != nil {
						t.Fatal(err)
					}
					for _, w := range decoded {
						rep, err := p.DecodeReport(w)
						if err != nil {
							t.Fatal(err)
						}
						viaAdd.Add(rep)
					}
					if n, err := p.ApplyBinaryBatch(viaApply, frame); err != nil || n != len(wires) {
						t.Fatalf("%s d=%d %s: applied %d of %d: %v", name, d, kind, n, len(wires), err)
					}
					want, err := viaAdd.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					got, err := viaApply.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s d=%d %s frame, round %d: ApplyBinaryBatch state differs from Add over the decoded reports", name, d, kind, round)
					}
					if _, err := p.ApplyBinaryBatch(foreign, frame); err != nil {
						t.Fatal(err)
					}
					if got, err = foreign.MarshalBinary(); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s d=%d %s frame, round %d: per-record fallback state differs (%v)", name, d, kind, round, err)
					}
				}
			}
		}
	}
}

// TestBinaryBatchRejectsCorruption pins that corrupted frames fail closed:
// CRC damage, truncation, tier confusion and a tampered count all error,
// and an erroring ApplyBinaryBatch leaves the aggregator untouched.
func TestBinaryBatchRejectsCorruption(t *testing.T) {
	const c, d, n = 3, 64, 20
	p, err := NewProtocol("ptscp", c, d, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := p.AppendBinaryBatch(nil, encodeWires(t, p, c, d, n, 3))
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte) {
		t.Helper()
		if _, err := p.ValidateBinaryBatch(data); err == nil {
			t.Fatalf("%s: ValidateBinaryBatch accepted a corrupt frame", name)
		}
		agg := p.NewAggregator()
		if _, err := p.ApplyBinaryBatch(agg, data); err == nil {
			t.Fatalf("%s: ApplyBinaryBatch accepted a corrupt frame", name)
		}
		if agg.N() != 0 {
			t.Fatalf("%s: rejected frame still applied %d reports", name, agg.N())
		}
	}

	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)/2] ^= 0x40
	check("bit flip", flipped)
	check("truncated", frame[:len(frame)-5])
	check("empty", nil)

	// A mean frame posted to the frequency decoder must fail on the tier
	// byte, not misparse.
	np, err := NewNumericProtocol("cpmean", c, 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	meanFrame, err := np.AppendBinaryMeanBatch(nil, []WireMeanReport{{Label: 1, Symbol: 1}})
	if err != nil {
		t.Fatal(err)
	}
	check("mean frame on frequency tier", meanFrame)
	if _, err := np.ValidateBinaryMeanBatch(frame); err == nil {
		t.Fatal("frequency frame accepted by the mean decoder")
	}

	// Stray bits beyond the domain (hand-framed: the encoder refuses to
	// produce them) must be rejected, same as DecodeReport rejects an
	// out-of-range bit index.
	stray := appendBinaryHeader(nil, binaryTierFrequency, 1)
	stray = append(stray, 0)                   // label 0
	stray = append(stray, make([]byte, 16)...) // d+1=65 bits → 2 words
	stray[len(stray)-1] |= 0x80                // bit 127, far beyond bit 64
	stray = FinishBinaryFrame(stray, 0)
	check("stray bits", stray)

	// A record count that does not match the framed records (here: count 2,
	// one record) must be rejected even with a valid CRC.
	short := appendBinaryHeader(nil, binaryTierFrequency, 2)
	short = append(short, 0)
	short = append(short, make([]byte, 16)...)
	short = FinishBinaryFrame(short, 0)
	check("count overrun", short)
}

// TestBinaryMeanBatch pins round-trip and apply-equivalence for all three
// mean estimators.
func TestBinaryMeanBatch(t *testing.T) {
	const c, n = 5, 300
	for _, name := range NumericProtocolNames() {
		p, err := NewNumericProtocol(name, c, 2.0, 0.5)
		if err != nil {
			t.Fatalf("NewNumericProtocol(%s): %v", name, err)
		}
		enc := p.Encoder()
		r := xrand.New(11)
		wires := make([]WireMeanReport, n)
		for i := range wires {
			v := mean.Value{Class: r.Intn(c), X: 2*r.Float64() - 1}
			wires[i] = p.EncodeMeanReport(enc.Encode(v, i, r))
		}
		frame, err := p.AppendBinaryMeanBatch(nil, wires)
		if err != nil {
			t.Fatalf("%s: AppendBinaryMeanBatch: %v", name, err)
		}
		got, err := p.DecodeBinaryMeanBatch(frame)
		if err != nil {
			t.Fatalf("%s: DecodeBinaryMeanBatch: %v", name, err)
		}
		if !reflect.DeepEqual(got, wires) {
			t.Fatalf("%s: mean payloads did not round-trip", name)
		}

		jsonAgg := p.NewAggregator()
		for _, w := range wires {
			rep, err := p.DecodeMeanReport(w)
			if err != nil {
				t.Fatalf("%s: DecodeMeanReport: %v", name, err)
			}
			jsonAgg.Add(rep)
		}
		binAgg := p.NewAggregator()
		applied, err := p.ApplyBinaryMeanBatch(binAgg, frame)
		if err != nil {
			t.Fatalf("%s: ApplyBinaryMeanBatch: %v", name, err)
		}
		if applied != n {
			t.Fatalf("%s: applied %d records, want %d", name, applied, n)
		}
		if !reflect.DeepEqual(binAgg.Means(), jsonAgg.Means()) {
			t.Fatalf("%s: binary and JSON means differ", name)
		}
		if !reflect.DeepEqual(binAgg.ClassSizes(), jsonAgg.ClassSizes()) {
			t.Fatalf("%s: binary and JSON class sizes differ", name)
		}

		// Out-of-range symbol: hand-framed, rejected with nothing applied.
		bad := appendBinaryHeader(nil, binaryTierMean, 1)
		bad = append(bad, 0, byte(p.Symbols()))
		bad = FinishBinaryFrame(bad, 0)
		agg := p.NewAggregator()
		if _, err := p.ApplyBinaryMeanBatch(agg, bad); err == nil {
			t.Fatalf("%s: out-of-range symbol accepted", name)
		}
		if agg.N() != 0 {
			t.Fatalf("%s: rejected mean frame still applied reports", name)
		}
	}
}
