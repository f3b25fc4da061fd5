package core

import (
	"testing"

	"repro/internal/xrand"
)

func TestSnapshotRoundTrip(t *testing.T) {
	cp := mustCP(t, 3, 5, 2, 0.5)
	r := xrand.New(1000)
	acc := cp.NewAccumulator()
	for i := 0; i < 5000; i++ {
		acc.Add(cp.Perturb(Pair{Class: i % 3, Item: i % 5}, r))
	}
	blob, err := acc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := cp.NewAccumulator()
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Total() != acc.Total() {
		t.Fatalf("restored total %d want %d", restored.Total(), acc.Total())
	}
	for c := 0; c < 3; c++ {
		if restored.RawLabelCount(c) != acc.RawLabelCount(c) {
			t.Fatal("label counts differ")
		}
		for i := 0; i < 5; i++ {
			if restored.Estimate(c, i) != acc.Estimate(c, i) {
				t.Fatal("estimates differ after restore")
			}
		}
	}
	// Restored accumulators must keep accumulating.
	restored.Add(cp.Perturb(Pair{Class: 0, Item: 0}, r))
	if restored.Total() != acc.Total()+1 {
		t.Fatal("restored accumulator does not accept new reports")
	}
}

// TestSnapshotRejectsMismatch: a table restores only into an accumulator
// of its own domain. The budget is not in the table; the envelope
// fingerprint pins it (TestEnvelopeFingerprintMismatch).
func TestSnapshotRejectsMismatch(t *testing.T) {
	cp := mustCP(t, 3, 5, 2, 0.5)
	blob, err := cp.NewAccumulator().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	wrongDomain := mustCP(t, 3, 6, 2, 0.5)
	if err := wrongDomain.NewAccumulator().UnmarshalBinary(blob); err == nil {
		t.Fatal("wrong domain accepted")
	}
	wrongClasses := mustCP(t, 4, 5, 2, 0.5)
	if err := wrongClasses.NewAccumulator().UnmarshalBinary(blob); err == nil {
		t.Fatal("wrong class count accepted")
	}
	if err := cp.NewAccumulator().UnmarshalBinary([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}
