package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/xrand"
)

// fillAggregator encodes n deterministic pairs into agg.
func fillAggregator(t testing.TB, p *Protocol, agg Aggregator, n int, seed uint64) {
	t.Helper()
	r := xrand.New(seed)
	enc := p.Encoder()
	for i := 0; i < n; i++ {
		agg.Add(enc.Encode(Pair{Class: i % p.Classes(), Item: i % p.Items()}, r))
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
