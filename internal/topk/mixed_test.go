package topk

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/xrand"
)

// TestPTSPEMWithGlobal exercises the mixed schedule of the Table III
// "Global" ablation row: prefix-trie buckets with a global candidate phase
// forking into per-class tries.
func TestPTSPEMWithGlobal(t *testing.T) {
	r := xrand.New(70)
	data := topkDataset(3, 512, 150000, true, r)
	opt := Baseline()
	opt.Global = true
	res, err := NewPTS(opt).Mine(data, 8, 6, xrand.New(71))
	if err != nil {
		t.Fatal(err)
	}
	truth := truthTopK(data, 8)
	sum := 0.0
	for c := range truth {
		if len(res.PerClass[c]) == 0 {
			t.Fatalf("class %d mined nothing", c)
		}
		sum += metrics.F1(res.PerClass[c], truth[c])
	}
	if sum/3 < 0.2 {
		t.Fatalf("PEM+Global F1 %v", sum/3)
	}
}

// TestPTSVPOnly exercises validity perturbation without shuffling (PEM
// buckets + flag dropping), another ablation row.
func TestPTSVPOnly(t *testing.T) {
	r := xrand.New(72)
	data := topkDataset(3, 256, 120000, true, r)
	opt := Baseline()
	opt.VP = true
	res, err := NewPTS(opt).Mine(data, 8, 6, xrand.New(73))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerClass) != 3 {
		t.Fatal("wrong class count")
	}
}

// TestHECWithOptions runs HEC with the optimizations enabled — not a paper
// configuration, but the API permits it and it must behave.
func TestHECWithOptions(t *testing.T) {
	r := xrand.New(74)
	data := topkDataset(2, 256, 100000, false, r)
	opt := Options{Shuffling: true, VP: true}
	res, err := NewHEC(opt).Mine(data, 8, 6, xrand.New(75))
	if err != nil {
		t.Fatal(err)
	}
	truth := truthTopK(data, 8)
	if metrics.F1(res.PerClass[0], truth[0]) == 0 && metrics.F1(res.PerClass[1], truth[1]) == 0 {
		t.Fatal("HEC+opts mined nothing at high ε")
	}
}

// TestPTJBaselinePEMOnJointDomain checks the prefix walk over a non-power-
// of-two joint domain.
func TestPTJBaselinePEMOnJointDomain(t *testing.T) {
	r := xrand.New(76)
	data := topkDataset(3, 300, 90000, false, r) // c·d = 900, not a power of 2
	res, err := NewPTJ(Baseline()).Mine(data, 5, 6, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	for c, mined := range res.PerClass {
		for _, item := range mined {
			if item < 0 || item >= 300 {
				t.Fatalf("class %d mined out-of-domain item %d", c, item)
			}
		}
	}
}

// TestMineSingleDeterministic: same seed, same result.
func TestMineSingleDeterministic(t *testing.T) {
	r := xrand.New(78)
	items, _ := skewedItems(128, 30000, r)
	opt := Options{Shuffling: true, VP: true}
	a := mineOneClass(t, items, 128, 4, 4, opt, 5)
	b := mineOneClass(t, items, 128, 4, 4, opt, 5)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different rankings")
		}
	}
}
