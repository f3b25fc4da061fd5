package mean

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/state"
	"repro/internal/xrand"
)

// meanHalves builds every framework's decomposition at one parameter set.
func meanHalves(t testing.TB, classes int, eps, split float64) map[string]*Halves {
	t.Helper()
	hec, err := NewHECMeanHalves(classes, eps)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := NewPTSMeanHalves(classes, eps, split)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCPMeanHalves(classes, eps, split)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Halves{"hec": hec, "pts": pts, "cp": cp}
}

// estimators pairs each framework's Estimator with the halves name.
func estimators(t testing.TB, eps, split float64) map[string]Estimator {
	t.Helper()
	pts, err := NewPTSMean(eps, split)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewCPMeanEstimator(eps, split)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Estimator{"hec": NewHECMean(eps), "pts": pts, "cp": cp}
}

// TestMeanStreamingEqualsBatch pins the decomposition's core equivalence:
// Estimator.Estimate (the thin batch loop) equals the same report stream
// fed one report at a time through sharded aggregators merged at the end —
// bit-identical, for every framework.
func TestMeanStreamingEqualsBatch(t *testing.T) {
	const classes, perClass, eps, split = 3, 4000, 2.0, 0.5
	data := gaussianDataset([]float64{0.6, -0.3, 0.1}, perClass, xrand.New(11))
	halves := meanHalves(t, classes, eps, split)
	ests := estimators(t, eps, split)
	for name, h := range halves {
		t.Run(name, func(t *testing.T) {
			batch, err := ests[name].Estimate(data, xrand.New(77))
			if err != nil {
				t.Fatal(err)
			}
			// Stream the same encodes over three shards, merge, estimate.
			shards := []Aggregator{h.NewAggregator(), h.NewAggregator(), h.NewAggregator()}
			r := xrand.New(77)
			for i, v := range data.Values {
				shards[i%len(shards)].Add(h.Encoder.Encode(v, i, r))
			}
			merged := h.NewAggregator()
			for _, sh := range shards {
				if err := merged.Merge(sh); err != nil {
					t.Fatal(err)
				}
			}
			if merged.N() != data.N() {
				t.Fatalf("merged N %d, want %d", merged.N(), data.N())
			}
			if !reflect.DeepEqual(merged.Means(), batch.Means) {
				t.Fatalf("streaming means %v != batch %v", merged.Means(), batch.Means)
			}
			if !reflect.DeepEqual(merged.ClassSizes(), batch.ClassSizes) {
				t.Fatalf("streaming class sizes %v != batch %v", merged.ClassSizes(), batch.ClassSizes)
			}
		})
	}
}

// TestAggregatorMergeRejectsMismatch is the mean tier's twin of core's: the
// table shapes coincide in every pair below while the calibrations do not,
// so a merge must be refused on the halves' identity, leaving the aggregate
// as it was.
func TestAggregatorMergeRejectsMismatch(t *testing.T) {
	const classes = 3
	eps1, eps2 := meanHalves(t, classes, 1, 0.5), meanHalves(t, classes, 2, 0.5)
	for _, tc := range []struct {
		what        string
		into, other *Halves
	}{
		{"ptsmean ε=1 ← ε=2", eps1["pts"], eps2["pts"]},
		{"cpmean ε=1 ← ε=2", eps1["cp"], eps2["cp"]},
		{"hecmean ε=1 ← ε=2", eps1["hec"], eps2["hec"]},
		{"hecmean ← ptsmean", eps1["hec"], eps1["pts"]},
	} {
		into, other := tc.into.NewAggregator(), tc.other.NewAggregator()
		other.AddCounts(1, Plus, 5)
		if err := into.Merge(other); err == nil {
			t.Errorf("%s: merge accepted", tc.what)
		}
		if into.N() != 0 {
			t.Errorf("%s: refused merge left %d reports", tc.what, into.N())
		}
	}
	// Halves built twice from the same parameters are the same framework.
	for name, h := range meanHalves(t, classes, 1, 0.5) {
		if err := eps1[name].NewAggregator().Merge(h.NewAggregator()); err != nil {
			t.Errorf("%s: equal halves refused to merge: %v", name, err)
		}
	}
	// The offline accumulator compares its mechanism's probabilities.
	m1, err := NewCPMean(classes, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewCPMean(classes, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.NewAccumulator().Merge(m2.NewAccumulator()); err == nil {
		t.Error("Accumulator merged an accumulator of another budget")
	}
}

// TestMeanSnapshotRoundTrip checks marshal → unmarshal → estimates is
// bit-identical for every framework's aggregator.
func TestMeanSnapshotRoundTrip(t *testing.T) {
	const classes = 3
	for name, h := range meanHalves(t, classes, 2, 0.5) {
		t.Run(name, func(t *testing.T) {
			agg, r := h.NewAggregator(), xrand.New(5)
			for i := 0; i < 2000; i++ {
				agg.Add(h.Encoder.Encode(Value{Class: i % classes, X: 0.4}, i, r))
			}
			blob, err := agg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			restored := h.NewAggregator()
			if err := restored.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if restored.N() != agg.N() {
				t.Fatalf("restored N %d, want %d", restored.N(), agg.N())
			}
			if !reflect.DeepEqual(restored.Means(), agg.Means()) {
				t.Fatal("restored means not bit-identical")
			}
			if !reflect.DeepEqual(restored.ClassSizes(), agg.ClassSizes()) {
				t.Fatal("restored class sizes not bit-identical")
			}
			// A snapshot from a different class count must be refused and
			// leave the aggregator unchanged.
			other := meanHalves(t, classes+1, 2, 0.5)[name]
			foreign, err := other.NewAggregator().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			before := restored.Means()
			if err := restored.UnmarshalBinary(foreign); err == nil {
				t.Fatal("cross-domain snapshot accepted")
			}
			if !reflect.DeepEqual(restored.Means(), before) {
				t.Fatal("failed restore mutated the aggregator")
			}
		})
	}
}

// TestMeanSnapshotValidation hand-builds tables no report stream could
// produce and checks every aggregator refuses them: a mean report adds one
// to one (label, symbol) cell, so the cells are non-negative and sum to N.
func TestMeanSnapshotValidation(t *testing.T) {
	for name, h := range meanHalves(t, 2, 2, 0.5) {
		for _, tc := range []struct {
			what        string
			n           int64
			plus, minus int64 // label 0's cells
		}{
			{"signs that do not sum to N", 5, 3, 0},
			{"more signs than reports", 2, 3, 1},
			{"a negative count", 0, -1, 1},
		} {
			tab := state.NewTable(state.Shape{Rows: 1, Cols: 2 * h.Symbols, OneHot: true})
			tab.N, tab.Cells[Plus], tab.Cells[Minus] = tc.n, tc.plus, tc.minus
			blob, err := tab.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if err := h.NewAggregator().UnmarshalBinary(blob); err == nil {
				t.Errorf("%s accepted a table with %s", name, tc.what)
			}
		}
		if err := h.NewAggregator().UnmarshalBinary([]byte("not a table")); err == nil {
			t.Errorf("%s accepted garbage bytes", name)
		}
	}
}

// TestMeanEncoderPanicsOnMisuse pins the encoder contract: out-of-domain
// inputs at the perturbation site panic instead of corrupting aggregates.
func TestMeanEncoderPanicsOnMisuse(t *testing.T) {
	h := meanHalves(t, 2, 1, 0.5)["cp"]
	r := xrand.New(1)
	for name, bad := range map[string]func(){
		"negative user":  func() { h.Encoder.Encode(Value{Class: 0, X: 0}, -1, r) },
		"class too big":  func() { h.Encoder.Encode(Value{Class: 2, X: 0}, 0, r) },
		"value range":    func() { h.Encoder.Encode(Value{Class: 0, X: 1.5}, 0, r) },
		"NaN value":      func() { h.Encoder.Encode(Value{Class: 0, X: math.NaN()}, 0, r) },
		"negative class": func() { h.Encoder.Encode(Value{Class: -1, X: 0}, 0, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			bad()
		}()
	}
}

// TestEstimateClassSizes checks the satellite: class-size estimates flow
// from the same pass as the means and track the truth for the calibrated
// frameworks (PTS, CP) on a skewed population.
func TestEstimateClassSizes(t *testing.T) {
	r := xrand.New(19)
	d := &Dataset{Classes: 3, Name: "skewed"}
	sizes := []int{50000, 20000, 8000}
	for c, n := range sizes {
		for i := 0; i < n; i++ {
			d.Values = append(d.Values, Value{Class: c, X: 0.3})
		}
	}
	for name, est := range estimators(t, 2, 0.5) {
		got, err := est.Estimate(d, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.ClassSizes) != d.Classes || len(got.Means) != d.Classes {
			t.Fatalf("%s: malformed estimates %+v", name, got)
		}
		sizes2, err := est.EstimateClassSizes(d, r)
		if err != nil || len(sizes2) != d.Classes {
			t.Fatalf("%s: EstimateClassSizes: %v %v", name, sizes2, err)
		}
		if name == "hec" {
			continue // the strawman has no class-size signal (uniform prior)
		}
		for c, want := range sizes {
			if rel := math.Abs(got.ClassSizes[c]-float64(want)) / float64(want); rel > 0.15 {
				t.Errorf("%s class %d size %v, want ≈%d (rel err %.2f)", name, c, got.ClassSizes[c], want, rel)
			}
		}
	}
}

// TestAggregatorPanicsLeaveNoTrace pins check-then-mutate on every
// aggregator: an out-of-domain Add or AddCounts panics, and the recovered
// aggregator marshals to the bytes it held before — no report total or
// label count ahead of the sign counts. AddCounts on a valid cell is n Adds.
func TestAggregatorPanicsLeaveNoTrace(t *testing.T) {
	for name, h := range meanHalves(t, 3, 1, 0.5) {
		agg, byAdd := h.NewAggregator(), h.NewAggregator()
		agg.AddCounts(1, Plus, 3)
		agg.AddCounts(2, Minus, 0)
		for i := 0; i < 3; i++ {
			byAdd.Add(Report{Label: 1, Symbol: Plus})
		}
		before, err := agg.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := byAdd.MarshalBinary(); !reflect.DeepEqual(before, want) {
			t.Errorf("%s: AddCounts(1, Plus, 3) and three Adds left different states", name)
		}
		for what, bad := range map[string]func(){
			"bad symbol":      func() { agg.Add(Report{Label: 1, Symbol: h.Symbols}) },
			"negative symbol": func() { agg.Add(Report{Label: 1, Symbol: -1}) },
			"label too big":   func() { agg.Add(Report{Label: 3, Symbol: Plus}) },
			"negative label":  func() { agg.AddCounts(-1, Plus, 2) },
			"counted symbol":  func() { agg.AddCounts(0, h.Symbols, 2) },
			"negative count":  func() { agg.AddCounts(0, Plus, -1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", name, what)
					}
				}()
				bad()
			}()
			after, err := agg.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, before) || agg.N() != 3 {
				t.Errorf("%s: recovered %s changed the aggregate (N=%d)", name, what, agg.N())
			}
		}
	}
}
