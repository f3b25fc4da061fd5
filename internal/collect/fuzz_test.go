package collect

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/state"
	"repro/internal/xrand"
)

// fuzzProtocols covers all three wire payload shapes: ptscp and pts
// (bit-vector reports, with and without the validity flag), ptj over a
// small joint domain (bare-value reports, since the
// adaptive mechanism picks GRR there), and pts+olh (value-plus-seed
// reports).
func fuzzProtocols(f *testing.F) []*core.Protocol {
	f.Helper()
	out := make([]*core.Protocol, 0, 4)
	for _, name := range []string{"ptscp", "pts", "pts+olh"} {
		p, err := core.NewProtocol(name, 3, 8, 1, 0.5)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, p)
	}
	ptj, err := core.NewProtocol("ptj", 2, 3, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	return append(out, ptj)
}

// FuzzDecode drives the per-report wire decoder with arbitrary JSON: it
// must never panic, and accepted reports must be safe to accumulate.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`{"label":0,"bits":[0,4]}`))
	f.Add([]byte(`{"label":-1,"bits":[]}`))
	f.Add([]byte(`{"label":3,"bits":[99]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"label":1,"bits":[0,0,0,0]}`))
	f.Add([]byte(`{"label":1,"bits":null}`))
	f.Add([]byte(`{"label":0,"value":5}`))
	f.Add([]byte(`{"label":0,"value":-2,"seed":12345}`))
	f.Add([]byte(`{"label":2,"value":1,"seed":18446744073709551615}`))
	f.Add([]byte(`{"label":0,"bits":[1],"seed":3}`))
	f.Add([]byte(`{"label":0,"value":1,"bits":[1]}`))
	protos := fuzzProtocols(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var rep WireReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return // malformed JSON is rejected upstream
		}
		for _, p := range protos {
			decoded, err := p.DecodeReport(rep)
			if err != nil {
				continue
			}
			if decoded.Class < 0 || decoded.Class >= p.Classes() {
				t.Fatalf("%s accepted out-of-domain label %d", p.Name(), decoded.Class)
			}
			// Accepted reports must be safe to accumulate.
			acc := p.NewAggregator()
			acc.Add(decoded)
		}
	})
}

// FuzzUnmarshalEnvelope drives the aggregator-state decoder — the bytes a
// server accepts on POST /merge, restores from disk checkpoints, and
// replays from WAL snapshots — with arbitrary inputs, for every report-tier
// framework of both tiers. Each input is decoded as an envelope and, so
// that mutations reach the payload decoder under a valid CRC, re-sealed as
// one under each protocol's fingerprint. Corrupt inputs must error, never
// panic; an accepted state must be a count table some report stream could
// produce, estimate to finite values, merge, and — unless it came in the
// gob format from before tables — re-marshal to exactly its own bytes.
func FuzzUnmarshalEnvelope(f *testing.F) {
	hec, err := core.NewProtocol("hec", 3, 8, 1, 0.5)
	if err != nil {
		f.Fatal(err)
	}
	protos := append(fuzzProtocols(f), hec)
	numProtos := fuzzNumericProtocols(f)
	// Seed with real envelopes (empty and populated) from every protocol —
	// feeding protocol A's envelope to protocol B exercises the
	// wrong-fingerprint path from the first run.
	r := xrand.New(1)
	seed := func(empty, full []byte) {
		f.Add(empty)
		f.Add(full)
		f.Add(full[:len(full)/2]) // truncated
		mangled := append([]byte(nil), full...)
		mangled[len(mangled)/2] ^= 0xff
		f.Add(mangled) // corrupted
		if _, payload, err := state.Decode(full); err == nil {
			f.Add(payload) // a bare payload, re-sealed by the target
		}
	}
	for _, p := range protos {
		agg := p.NewAggregator()
		empty, err := p.MarshalAggregator(agg)
		if err != nil {
			f.Fatal(err)
		}
		enc := p.Encoder()
		for i := 0; i < 20; i++ {
			agg.Add(enc.Encode(core.Pair{Class: i % p.Classes(), Item: i % p.Items()}, r))
		}
		full, err := p.MarshalAggregator(agg)
		if err != nil {
			f.Fatal(err)
		}
		seed(empty, full)
	}
	for _, p := range numProtos {
		agg := p.NewAggregator()
		empty, err := p.MarshalAggregator(agg)
		if err != nil {
			f.Fatal(err)
		}
		enc := p.Encoder()
		for i := 0; i < 20; i++ {
			agg.Add(enc.Encode(mean.Value{Class: i % p.Classes(), X: 0.5}, i, r))
		}
		full, err := p.MarshalAggregator(agg)
		if err != nil {
			f.Fatal(err)
		}
		seed(empty, full)
	}
	f.Add([]byte{})
	f.Add([]byte("MCSE"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range protos {
			for _, env := range [][]byte{data, state.Encode(p.Fingerprint(), data)} {
				agg, err := p.UnmarshalAggregator(env)
				if err != nil {
					continue
				}
				again, err := p.MarshalAggregator(agg)
				if err != nil {
					t.Fatal(err)
				}
				checkAcceptedState(t, p.Name(), env, again, agg.N(), append(agg.Estimates(), agg.ClassSizes()))
				if err := p.NewAggregator().Merge(agg); err != nil {
					t.Fatalf("%s accepted an unmergeable aggregator: %v", p.Name(), err)
				}
			}
		}
		for _, p := range numProtos {
			for _, env := range [][]byte{data, state.Encode(p.Fingerprint(), data)} {
				agg, err := p.UnmarshalAggregator(env)
				if err != nil {
					continue
				}
				again, err := p.MarshalAggregator(agg)
				if err != nil {
					t.Fatal(err)
				}
				checkAcceptedState(t, p.Name(), env, again, agg.N(), [][]float64{agg.Means(), agg.ClassSizes()})
				if err := p.NewAggregator().Merge(agg); err != nil {
					t.Fatalf("%s accepted an unmergeable aggregator: %v", p.Name(), err)
				}
			}
		}
	})
}

// checkAcceptedState holds a state envelope env that a protocol accepted,
// re-marshalled as again, to what only a report stream produces: n
// reports, finite calibrated values, and a count table that keeps its
// invariants — checked here independently of the decoder — and whose bytes
// are env's own when env already carried a table.
func checkAcceptedState(t *testing.T, name string, env, again []byte, n int, calibrated [][]float64) {
	t.Helper()
	for _, row := range calibrated {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s accepted a state that estimates to %v", name, v)
			}
		}
	}
	_, payload, err := state.Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	_, canon, err := state.Decode(again)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := state.DecodeTable(canon)
	if err != nil {
		t.Fatalf("%s re-marshalled an accepted state to a table it refuses: %v", name, err)
	}
	if tab.N != int64(n) || n < 0 {
		t.Fatalf("%s accepted %d reports, its table holds %d", name, n, tab.N)
	}
	var routed int64
	for i, c := range tab.Cells {
		if c < 0 {
			t.Fatalf("%s accepted a negative count", name)
		}
		if i < tab.Routes {
			routed += c
		}
	}
	if tab.Routes > 0 && routed != tab.N {
		t.Fatalf("%s accepted route counts summing to %d of %d reports", name, routed, tab.N)
	}
	for r := 0; r < tab.Rows; r++ {
		var sum int64
		for _, c := range tab.Row(r) {
			sum += c
			if c > tab.Route(r) {
				t.Fatalf("%s accepted a cell of %d above its row's %d reports", name, c, tab.Route(r))
			}
		}
		if tab.OneHot && sum != tab.Route(r) {
			t.Fatalf("%s accepted a one-hot row summing to %d of %d reports", name, sum, tab.Route(r))
		}
	}
	// A gob payload never opens with a table's tag byte.
	if payload[0] == canon[0] && !bytes.Equal(payload, canon) {
		t.Fatalf("%s accepted a table that re-marshals to other bytes", name)
	}
}

// FuzzDecodeBatch drives the batch splitter (JSON array and NDJSON paths)
// with arbitrary bodies: it must never panic, and every item it yields must
// survive the per-item decoder or produce an itemized error.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`[{"label":0,"bits":[0,4]},{"label":1,"bits":[]}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{`))
	f.Add([]byte("{\"label\":0,\"bits\":[1]}\n{\"label\":2,\"bits\":[7]}\n"))
	f.Add([]byte("{\"label\":0}\n{bad}\n{\"label\":1}"))
	f.Add([]byte("   \n\t "))
	f.Add([]byte(`[{"label":0,"value":3,"seed":9}]`))
	f.Add([]byte("{\"label\":1,\"value\":0,\"seed\":77}\n{\"label\":0,\"value\":2}\n"))
	protos := fuzzProtocols(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		wires, itemErrs, droppedTail, err := decodeBatchItems[WireReport](data)
		if err != nil {
			return // envelope rejected wholesale
		}
		if droppedTail < 0 {
			t.Fatalf("negative dropped tail %d", droppedTail)
		}
		for _, ie := range itemErrs {
			if ie.Index < 0 {
				t.Fatalf("negative error index %d", ie.Index)
			}
		}
		for _, w := range wires {
			for _, p := range protos {
				decoded, err := p.DecodeReport(w)
				if err != nil {
					continue
				}
				acc := p.NewAggregator()
				acc.Add(decoded)
			}
		}
	})
}

// FuzzDecodeBinaryBatch drives the binary wire frame decoder — the bytes
// both tiers' batch endpoints accept under BinaryContentType and replay
// from recBinaryBatch WAL records — with arbitrary inputs across both
// tiers: corrupted, truncated, cross-tier and hand-mangled frames must
// error, never panic, and an accepted frame must apply cleanly with its
// declared report count.
func FuzzDecodeBinaryBatch(f *testing.F) {
	protos := fuzzProtocols(f)
	numProtos := fuzzNumericProtocols(f)
	// One numeric domain wide enough for two-byte labels, so mean frames mix
	// both record shapes from the first seed on.
	wide, err := core.NewNumericProtocol("ptsmean", 300, 1, 0.5)
	if err != nil {
		f.Fatal(err)
	}
	numProtos = append(numProtos, wide)
	r := xrand.New(7)
	// Seed with real frames from every protocol shape plus corruptions of
	// each, so cross-protocol and cross-tier decodes run from the start.
	for _, p := range protos {
		enc := p.Encoder()
		wires := make([]core.WirePayload, 16)
		for i := range wires {
			wires[i] = p.EncodeReport(enc.Encode(core.Pair{Class: i % p.Classes(), Item: i % p.Items()}, r))
		}
		frame, err := p.AppendBinaryBatch(nil, wires)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-3]) // truncated
		mangled := append([]byte(nil), frame...)
		mangled[len(mangled)/2] ^= 0x40
		f.Add(mangled) // corrupted payload (CRC must catch it)
		empty, err := p.AppendBinaryBatch(nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(empty)
	}
	for _, p := range numProtos {
		enc := p.Encoder()
		wires := make([]core.WireMeanReport, 16)
		for i := range wires {
			wires[i] = p.EncodeMeanReport(enc.Encode(mean.Value{Class: i % 3, X: 0.5}, i, r))
		}
		frame, err := p.AppendBinaryMeanBatch(nil, wires)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("MCBW"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range protos {
			checked, err := p.ValidateBinaryBatch(data)
			if err != nil {
				continue
			}
			n := checked.Count()
			agg := p.NewAggregator()
			applied, err := p.ApplyBinaryBatch(agg, data)
			if err != nil {
				t.Fatalf("%s: validated frame failed to apply: %v", p.Name(), err)
			}
			if applied != n || agg.N() != n {
				t.Fatalf("%s: declared %d reports, applied %d, aggregated %d", p.Name(), n, applied, agg.N())
			}
			// The materialized payloads must survive the JSON-path decoder:
			// binary accepts nothing JSON would reject.
			wires, err := p.DecodeBinaryBatch(data)
			if err != nil || len(wires) != n {
				t.Fatalf("%s: decode of validated frame: %d wires, %v", p.Name(), len(wires), err)
			}
			viaAdd := p.NewAggregator()
			for _, wp := range wires {
				rep, derr := p.DecodeReport(wp)
				if derr != nil {
					t.Fatalf("%s: binary-accepted report rejected by DecodeReport: %v", p.Name(), derr)
				}
				viaAdd.Add(rep)
			}
			// And the whole-frame apply must leave the state the per-report
			// path leaves.
			want, err := viaAdd.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got, err := agg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: frame apply and per-report Add left different states", p.Name())
			}
		}
		for _, p := range numProtos {
			checked, err := p.ValidateBinaryMeanBatch(data)
			if err != nil {
				continue
			}
			n := checked.Count()
			agg := p.NewAggregator()
			applied, err := p.ApplyBinaryMeanBatch(agg, data)
			if err != nil {
				t.Fatalf("%s: validated mean frame failed to apply: %v", p.Name(), err)
			}
			if applied != n || agg.N() != n {
				t.Fatalf("%s: declared %d mean reports, applied %d, aggregated %d", p.Name(), n, applied, agg.N())
			}
			// The same differential as the frequency tier: the frame's
			// cell counts against its reports, materialized, re-checked by
			// the JSON-path decoder and folded one Add at a time.
			wires, err := p.DecodeBinaryMeanBatch(data)
			if err != nil || len(wires) != n {
				t.Fatalf("%s: decode of validated mean frame: %d wires, %v", p.Name(), len(wires), err)
			}
			viaAdd := p.NewAggregator()
			for _, w := range wires {
				rep, derr := p.DecodeMeanReport(w)
				if derr != nil {
					t.Fatalf("%s: binary-accepted mean report rejected by DecodeMeanReport: %v", p.Name(), derr)
				}
				viaAdd.Add(rep)
			}
			want, err := viaAdd.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got, err := agg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: mean frame apply and per-report Add left different states", p.Name())
			}
		}
	})
}
