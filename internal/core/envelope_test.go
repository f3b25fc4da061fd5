package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
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

// TestEnvelopeRoundTripBitIdentical pins acceptance criterion (a): for every
// framework, marshal → unmarshal → Estimates is bit-identical to the live
// aggregator, and the restored aggregator merges exactly.
func TestEnvelopeRoundTripBitIdentical(t *testing.T) {
	for _, p := range envelopeProtocols(t) {
		t.Run(p.Name(), func(t *testing.T) {
			agg := p.NewAggregator()
			fillAggregator(t, p, agg, 400, 11)
			env, err := p.MarshalAggregator(agg)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := p.UnmarshalAggregator(env)
			if err != nil {
				t.Fatal(err)
			}
			if restored.N() != agg.N() {
				t.Fatalf("restored N=%d, want %d", restored.N(), agg.N())
			}
			if !reflect.DeepEqual(restored.Estimates(), agg.Estimates()) {
				t.Fatal("restored estimates not bit-identical")
			}
			if !reflect.DeepEqual(restored.ClassSizes(), agg.ClassSizes()) {
				t.Fatal("restored class sizes not bit-identical")
			}
			// A restored aggregator must keep participating in exact merges.
			other := p.NewAggregator()
			fillAggregator(t, p, other, 150, 23)
			if err := restored.Merge(other); err != nil {
				t.Fatal(err)
			}
			if err := agg.Merge(other); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(restored.Estimates(), agg.Estimates()) {
				t.Fatal("merge after restore diverged")
			}
		})
	}
}

// TestEnvelopeEmptyAggregator checks the zero-report envelope — the form a
// freshly drained edge or a just-compacted WAL writes — restores cleanly.
func TestEnvelopeEmptyAggregator(t *testing.T) {
	for _, p := range envelopeProtocols(t) {
		env, err := p.MarshalAggregator(p.NewAggregator())
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		restored, err := p.UnmarshalAggregator(env)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if restored.N() != 0 {
			t.Fatalf("%s: empty envelope restored %d reports", p.Name(), restored.N())
		}
	}
}

// TestEnvelopeFingerprintMismatch checks that an envelope is only accepted
// by a protocol with the identical fingerprint: a different framework, a
// different domain, or a different budget must all answer
// ErrIncompatibleState.
func TestEnvelopeFingerprintMismatch(t *testing.T) {
	protos := envelopeProtocols(t)
	base := protos[3] // ptscp
	agg := base.NewAggregator()
	fillAggregator(t, base, agg, 50, 3)
	env, err := base.MarshalAggregator(agg)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-framework.
	for _, p := range protos {
		if p.Name() == base.Name() {
			continue
		}
		if _, err := p.UnmarshalAggregator(env); !errors.Is(err, ErrIncompatibleState) {
			t.Fatalf("%s accepted a %s envelope (err=%v)", p.Name(), base.Name(), err)
		}
	}
	// Same framework, different parameters.
	for _, mut := range []struct {
		name       string
		c, d       int
		eps, split float64
	}{
		{"domain", 3, 13, 1.5, 0.5},
		{"classes", 4, 12, 1.5, 0.5},
		{"epsilon", 3, 12, 2.5, 0.5},
		{"split", 3, 12, 1.5, 0.25},
	} {
		p, err := NewProtocol("ptscp", mut.c, mut.d, mut.eps, mut.split)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.UnmarshalAggregator(env); !errors.Is(err, ErrIncompatibleState) {
			t.Fatalf("ptscp with different %s accepted the envelope (err=%v)", mut.name, err)
		}
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

// TestFingerprintMatchesWireCompatible pins the documented equivalence: two
// protocols share a fingerprint exactly when WireCompatible accepts them.
func TestFingerprintMatchesWireCompatible(t *testing.T) {
	protos := envelopeProtocols(t)
	for _, a := range protos {
		for _, b := range protos {
			same := a.Fingerprint() == b.Fingerprint()
			compat := a.WireCompatible(b) == nil
			if same != compat {
				t.Fatalf("%s vs %s: fingerprint equal=%v but WireCompatible=%v",
					a.Name(), b.Name(), same, compat)
			}
		}
	}
}
