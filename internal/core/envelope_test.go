package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/state"
	"repro/internal/xrand"
)

// envelopeProtocols covers all four frameworks plus PTS over OLH, whose
// supports are counted by rehashing.
func envelopeProtocols(t testing.TB) []*Protocol {
	t.Helper()
	out := make([]*Protocol, 0, 5)
	for _, name := range []string{"hec", "ptj", "pts", "ptscp", "pts+olh"} {
		p, err := NewProtocol(name, 3, 12, 1.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// fillAggregator encodes n deterministic pairs into agg.
func fillAggregator(t testing.TB, p *Protocol, agg Aggregator, n int, seed uint64) {
	t.Helper()
	r := xrand.New(seed)
	enc := p.Encoder()
	for i := 0; i < n; i++ {
		agg.Add(enc.Encode(Pair{Class: i % p.Classes(), Item: i % p.Items()}, r))
	}
}

// TestEnvelopeCorruptPayload checks that a valid envelope around a mangled
// payload is rejected by the aggregator-level validation, not silently
// restored.
func TestEnvelopeCorruptPayload(t *testing.T) {
	for _, p := range envelopeProtocols(t) {
		if _, err := p.UnmarshalAggregator(nil); err == nil {
			t.Fatalf("%s restored from nil", p.Name())
		}
		// A well-framed envelope whose payload is not a valid snapshot.
		bad := state.Encode(p.Fingerprint(), []byte("definitely not a gob stream"))
		if _, err := p.UnmarshalAggregator(bad); err == nil {
			t.Fatalf("%s restored from garbage payload", p.Name())
		}
	}
}

// TestOLHSnapshotHoldsCountsNotReports: OLH's supports are counted as
// reports arrive, so a pts+olh snapshot is its c×d count table — no larger
// after 100,000 reports than after 1,000 beyond the width of the counts'
// varints, and free of the users' hash seeds.
func TestOLHSnapshotHoldsCountsNotReports(t *testing.T) {
	p, err := NewProtocol("pts+olh", 3, 12, 1.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	agg, enc, r := p.NewAggregator(), p.Encoder(), xrand.New(5)
	var seeds []uint64
	sizes := map[int]int{}
	for i := 1; i <= 100_000; i++ {
		rep := enc.Encode(Pair{Class: i % 3, Item: i % 12}, r)
		agg.Add(rep)
		if len(seeds) < 1000 {
			seeds = append(seeds, rep.Item.Seed)
		}
		if i == 1000 || i == 100_000 {
			env, err := p.MarshalAggregator(agg)
			if err != nil {
				t.Fatal(err)
			}
			sizes[i] = len(env)
			for _, s := range seeds {
				if bytes.Contains(env, binary.LittleEndian.AppendUint64(nil, s)) ||
					bytes.Contains(env, binary.BigEndian.AppendUint64(nil, s)) {
					t.Fatalf("snapshot after %d reports carries the hash seed %#x", i, s)
				}
			}
		}
	}
	// Every count of the 3 + 3·12 grows by at most one varint byte.
	if cells := 3 + 3*12; sizes[100_000] > sizes[1000]+cells {
		t.Fatalf("snapshot grew from %d bytes (1,000 reports) to %d (100,000)", sizes[1000], sizes[100_000])
	}
}
