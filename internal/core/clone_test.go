package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/mean"
	"repro/internal/state"
	"repro/internal/xrand"
)

// TestCloneSharesNothing pins what clone-on-read relies on, for every
// protocol of both report tiers: reports added to a clone leave the
// original's estimates and table bytes as they were, and reports added to
// the original leave the clone's. The mean tier's state is cloned as the
// collection server clones it, as a table.
func TestCloneSharesNothing(t *testing.T) {
	cases := map[string]func(t *testing.T){}
	for _, name := range []string{"hec", "ptj", "pts", "pts+grr", "pts+olh", "ptscp"} {
		p, err := NewProtocol(name, 3, 12, 1.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = func(t *testing.T) {
			checkCloneSharesNothing(t, p.NewAggregator(), Aggregator.Clone,
				func(a Aggregator, seed uint64) { fillAggregator(t, p, a, 300, seed) },
				func(a Aggregator) any { return [2]any{a.Estimates(), a.ClassSizes()} })
		}
	}
	for _, name := range NumericProtocolNames() {
		p, err := NewNumericProtocol(name, 3, 1.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = func(t *testing.T) {
			empty := p.NewTable()
			checkCloneSharesNothing(t, &empty,
				func(a *state.Table) *state.Table { cl := a.Clone(); return &cl },
				func(a *state.Table, seed uint64) {
					r := xrand.New(seed)
					for i := 0; i < 300; i++ {
						p.Fold(a, p.Encoder().Encode(mean.Value{Class: i % 3, X: 2*r.Float64() - 1}, i, r))
					}
				},
				func(a *state.Table) any { means, sizes := p.Calibrate(a); return [2]any{means, sizes} })
		}
	}
	for name, run := range cases {
		t.Run(name, run)
	}
}

// checkCloneSharesNothing fills orig from one seed, clones it, and checks
// that filling either side from another seed leaves the other's estimates
// (read) and table bytes unchanged.
func checkCloneSharesNothing[A interface {
	MarshalBinary() ([]byte, error)
}](t *testing.T, orig A, clone func(A) A, fill func(A, uint64), read func(A) any) {
	t.Helper()
	state := func(a A) (any, []byte) {
		b, err := a.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return read(a), b
	}
	fill(orig, 1)
	cl := clone(orig)
	est, bin := state(orig)
	fill(cl, 2)
	if gotEst, gotBin := state(orig); !reflect.DeepEqual(gotEst, est) || !bytes.Equal(gotBin, bin) {
		t.Fatal("adding to the clone changed the original")
	}
	clEst, clBin := state(cl)
	if bytes.Equal(clBin, bin) {
		t.Fatal("the clone did not take its reports")
	}
	fill(orig, 3)
	if gotEst, gotBin := state(cl); !reflect.DeepEqual(gotEst, clEst) || !bytes.Equal(gotBin, clBin) {
		t.Fatal("adding to the original changed the clone")
	}
}
