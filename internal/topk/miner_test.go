package topk

import (
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// skewedItems builds a user stream over domain d where item i is held by
// weight(i) users, strongly skewed so the true top-k is unambiguous.
func skewedItems(d, n int, r *xrand.Rand) ([]int, []int) {
	counts := make([]float64, d)
	items := make([]int, 0, n)
	for u := 0; u < n; u++ {
		// 60% of users hold one of the top 8 items, the rest uniform.
		var it int
		if r.Bernoulli(0.6) {
			it = r.Intn(8)
		} else {
			it = r.Intn(d)
		}
		items = append(items, it)
		counts[it]++
	}
	return items, metrics.TopK(counts, 8)
}

func TestMineSingleShuffledVP(t *testing.T) {
	r := xrand.New(30)
	items, truth := skewedItems(256, 120000, r)
	got, err := mineSingle(items, singleConfig{
		domain: 256, buckets: 32, keep: 16, limit: 8,
		eps: 5, shuffling: true, vp: true,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	f1 := metrics.F1(got, truth)
	if f1 < 0.6 {
		t.Fatalf("shuffled+VP F1 %v too low (mined %v, truth %v)", f1, got, truth)
	}
}

func TestMineSinglePEMBaseline(t *testing.T) {
	r := xrand.New(31)
	items, truth := skewedItems(256, 120000, r)
	got, err := mineSingle(items, singleConfig{
		domain: 256, buckets: 32, keep: 16, limit: 8,
		eps: 5, shuffling: false, vp: false,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	f1 := metrics.F1(got, truth)
	if f1 < 0.3 {
		t.Fatalf("PEM baseline F1 %v too low", f1)
	}
}

// TestMineSingleInvalidUsers verifies that a large invalid population does
// not break mining under VP (they flag themselves out).
func TestMineSingleInvalidUsers(t *testing.T) {
	r := xrand.New(32)
	items, truth := skewedItems(128, 60000, r)
	// Add 50% invalid users.
	for i := 0; i < 30000; i++ {
		items = append(items, core.Invalid)
	}
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	got, err := mineSingle(items, singleConfig{
		domain: 128, buckets: 32, keep: 16, limit: 8,
		eps: 5, shuffling: true, vp: true,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	if f1 := metrics.F1(got, truth); f1 < 0.5 {
		t.Fatalf("F1 with invalid users %v", f1)
	}
}

// TestMineSingleBaselineHandlesInvalid checks the random-substitution path.
func TestMineSingleBaselineHandlesInvalid(t *testing.T) {
	r := xrand.New(33)
	items, _ := skewedItems(64, 20000, r)
	for i := 0; i < 5000; i++ {
		items = append(items, core.Invalid)
	}
	_, err := mineSingle(items, singleConfig{
		domain: 64, buckets: 16, keep: 8, limit: 4,
		eps: 3, shuffling: false, vp: false,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMineSingleTinyDomain(t *testing.T) {
	r := xrand.New(34)
	items := make([]int, 5000)
	for i := range items {
		items[i] = i % 3 // item 0,1,2 equally; domain 8
	}
	got, err := mineSingle(items, singleConfig{
		domain: 8, buckets: 16, keep: 8, limit: 3,
		eps: 6, shuffling: true, vp: true,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("mined %v", got)
	}
}

func TestMineSingleRejectsDegenerateDomain(t *testing.T) {
	if _, err := mineSingle(nil, singleConfig{domain: 1, buckets: 4, keep: 2, limit: 1, eps: 1}, xrand.New(1)); err == nil {
		t.Fatal("domain 1 accepted")
	}
}

func TestRoundAggVPDropsFlagged(t *testing.T) {
	vp, err := core.NewVP(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	round := singleRound(0, 8, true)
	r := xrand.New(35)
	for i := 0; i < 1000; i++ {
		if err := round.Absorb(RoundReport{Bits: vp.Perturb(core.Invalid, r).Ones()}); err != nil {
			t.Fatal(err)
		}
	}
	agg := &round.aggs[0]
	if agg.kept+agg.dropped != 1000 || agg.dropped == 0 {
		t.Fatalf("kept %d dropped %d of 1000 invalid reports", agg.kept, agg.dropped)
	}
	// With everything invalid, surviving counts are pure q(1−p) noise, far
	// below 1000.
	for b, v := range agg.scores() {
		if v > 300 {
			t.Fatalf("bucket %d score %v from pure-invalid stream", b, v)
		}
	}
}

func TestValidateBits(t *testing.T) {
	if err := validateBits([]int{0, 3, 7}, 8); err != nil {
		t.Fatal(err)
	}
	if err := validateBits(nil, 8); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]int{{-1}, {8}, {3, 3}, {4, 2}} {
		if validateBits(bad, 8) == nil {
			t.Errorf("bits %v accepted", bad)
		}
	}
}

func TestPruneKeep(t *testing.T) {
	r := xrand.New(36)
	s := newShuffleSpace(100, 8, r)
	if pruneKeep(s, 4) != 4 {
		t.Fatal("nominal keep not used when below half")
	}
	if pruneKeep(s, 100) != 4 {
		t.Fatal("keep not capped at half the buckets")
	}
	tiny := newShuffleSpace(2, 8, r)
	if pruneKeep(tiny, 10) != 1 {
		t.Fatal("keep floor missing")
	}
}
