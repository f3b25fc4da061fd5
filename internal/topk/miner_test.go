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

// mineSession plans a session over pairs (user u holds pairs[u]) and drives
// it to its result.
func mineSession(t *testing.T, fw string, c, d, k int, eps float64, opt Options, seed uint64, pairs []core.Pair) *Result {
	t.Helper()
	pl, err := NewSession(SessionParams{Framework: fw, Classes: c, Items: d, K: k, Eps: eps,
		Users: len(pairs), Seed: seed, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSession(pl, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mineOneClass runs the single-domain scheme over items: a one-class ptj
// session lays out 4k buckets, keeps the 2k best each round and ranks k
// items in the last.
func mineOneClass(t *testing.T, items []int, d, k int, eps float64, opt Options, seed uint64) []int {
	t.Helper()
	pairs := make([]core.Pair, len(items))
	for u, it := range items {
		pairs[u] = core.Pair{Item: it}
	}
	return mineSession(t, "ptj", 1, d, k, eps, opt, seed, pairs).PerClass[0]
}

// withInvalidUsers returns class-0 users holding items, plus invalid
// class-1 users holding uniform items, shuffled. In a two-class hec session
// the class-1 users that join group 0 are invalid for the whole run.
func withInvalidUsers(items []int, invalid, d int, r *xrand.Rand) []core.Pair {
	pairs := make([]core.Pair, 0, len(items)+invalid)
	for _, it := range items {
		pairs = append(pairs, core.Pair{Item: it})
	}
	for i := 0; i < invalid; i++ {
		pairs = append(pairs, core.Pair{Class: 1, Item: r.Intn(d)})
	}
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	return pairs
}

func TestMineSingleShuffledVP(t *testing.T) {
	r := xrand.New(30)
	items, truth := skewedItems(256, 120000, r)
	got := mineOneClass(t, items, 256, 8, 5, Options{Shuffling: true, VP: true}, r.Uint64())
	f1 := metrics.F1(got, truth)
	if f1 < 0.6 {
		t.Fatalf("shuffled+VP F1 %v too low (mined %v, truth %v)", f1, got, truth)
	}
}

func TestMineSinglePEMBaseline(t *testing.T) {
	r := xrand.New(31)
	items, truth := skewedItems(256, 120000, r)
	got := mineOneClass(t, items, 256, 8, 5, Options{}, r.Uint64())
	f1 := metrics.F1(got, truth)
	if f1 < 0.3 {
		t.Fatalf("PEM baseline F1 %v too low", f1)
	}
}

// TestMineSingleInvalidUsers verifies that a large invalid population does
// not break mining under VP (they flag themselves out). Group 0 of the hec
// session holds half of each class: 60,000 users, a third of them invalid.
func TestMineSingleInvalidUsers(t *testing.T) {
	r := xrand.New(32)
	items, truth := skewedItems(128, 120000, r)
	pairs := withInvalidUsers(items, 60000, 128, r)
	got := mineSession(t, "hec", 2, 128, 8, 5, Options{Shuffling: true, VP: true}, r.Uint64(), pairs).PerClass[0]
	if f1 := metrics.F1(got, truth); f1 < 0.5 {
		t.Fatalf("F1 with invalid users %v", f1)
	}
}

// TestMineSingleBaselineHandlesInvalid checks the random-substitution path.
func TestMineSingleBaselineHandlesInvalid(t *testing.T) {
	r := xrand.New(33)
	items, _ := skewedItems(64, 20000, r)
	pairs := withInvalidUsers(items, 5000, 64, r)
	mineSession(t, "hec", 2, 64, 4, 3, Options{}, r.Uint64(), pairs)
}

func TestMineSingleTinyDomain(t *testing.T) {
	items := make([]int, 5000)
	for i := range items {
		items[i] = i % 3 // item 0,1,2 equally; domain 8
	}
	got := mineOneClass(t, items, 8, 3, 6, Options{Shuffling: true, VP: true}, 34)
	if len(got) != 3 {
		t.Fatalf("mined %v", got)
	}
}

func TestMineSingleRejectsDegenerateDomain(t *testing.T) {
	if _, err := NewSession(SessionParams{Framework: "ptj", Classes: 1, Items: 1, K: 1, Eps: 1}); err == nil {
		t.Fatal("domain 1 accepted")
	}
}

func TestRoundAggVPDropsFlagged(t *testing.T) {
	vp, err := core.NewVP(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	round := NewRoundPartial(&RoundLayout{Classes: 1, Single: true, VP: true, Bits: []int{9}})
	r := xrand.New(35)
	for i := 0; i < 1000; i++ {
		if err := round.Absorb(RoundReport{Bits: vp.Perturb(core.Invalid, r).Ones()}); err != nil {
			t.Fatal(err)
		}
	}
	dropped := round.spaces[0].Cells[vp.FlagBit()]
	kept := round.spaces[0].N - dropped
	if kept+dropped != 1000 || dropped == 0 {
		t.Fatalf("kept %d dropped %d of 1000 invalid reports", kept, dropped)
	}
	// With everything invalid, surviving counts are pure q(1−p) noise, far
	// below 1000.
	for b, v := range round.scores(0) {
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
