package core

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/xrand"
)

func TestVPEncode(t *testing.T) {
	vp, err := NewVP(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := vp.Encode(3)
	if b.Len() != 6 {
		t.Fatalf("encoded length %d", b.Len())
	}
	if !b.Get(3) || b.OnesCount() != 1 {
		t.Fatalf("valid encoding wrong: %s", b)
	}
	inv := vp.Encode(Invalid)
	if !inv.Get(5) || inv.OnesCount() != 1 {
		t.Fatalf("invalid encoding wrong: %s", inv)
	}
}

func TestVPEncodeOutOfRangePanics(t *testing.T) {
	vp, _ := NewVP(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for item 5 in domain 5")
		}
	}()
	vp.Encode(5)
}

// TestPerturbAllocations pins the client's allocations per report: the
// perturbed vector and its words, nothing else — no encoded vector in
// between for VP or CP. A count is deterministic, so this catches what a
// timing threshold cannot.
func TestPerturbAllocations(t *testing.T) {
	cp, err := NewCP(4, 1000, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	for name, f := range map[string]func(){
		"UE.PerturbBits": func() { cp.item.ue.PerturbBits(17, r) },
		"VP.Perturb":     func() { cp.item.Perturb(Invalid, r) },
		"CP.Perturb":     func() { cp.Perturb(Pair{Class: 1, Item: 17}, r) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs > 2 {
			t.Errorf("%s: %v allocs a report, want ≤ 2", name, allocs)
		}
	}
}

func TestVPProbabilitiesAreOUE(t *testing.T) {
	vp, err := NewVP(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vp.P() != 0.5 {
		t.Fatalf("p = %v", vp.P())
	}
	if math.Abs(vp.Q()-1/(math.Exp(2)+1)) > 1e-12 {
		t.Fatalf("q = %v", vp.Q())
	}
	if vp.FlagBit() != 10 {
		t.Fatalf("flag bit %d", vp.FlagBit())
	}
}

// TestVPDropRule verifies the server-side flag rule: an invalid user's
// report survives with probability 1−p and a valid user's with 1−q.
func TestVPDropRule(t *testing.T) {
	vp, err := NewVP(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(200)
	const n = 100000
	acc := vp.NewAccumulator()
	for i := 0; i < n; i++ {
		acc.Add(vp.Perturb(Invalid, r))
	}
	kept := float64(acc.Kept())
	want := (1 - vp.P()) * n
	if math.Abs(kept-want) > 5*math.Sqrt(want) {
		t.Fatalf("invalid kept %v want %v", kept, want)
	}
	acc2 := vp.NewAccumulator()
	for i := 0; i < n; i++ {
		acc2.Add(vp.Perturb(3, r))
	}
	kept2 := float64(acc2.Kept())
	want2 := (1 - vp.Q()) * n
	if math.Abs(kept2-want2) > 5*math.Sqrt(want2) {
		t.Fatalf("valid kept %v want %v", kept2, want2)
	}
	if acc.Total() != n || acc.Kept()+acc.Dropped() != n {
		t.Fatal("kept/dropped bookkeeping inconsistent")
	}
}

// TestVPTheorem5Noise checks the empirical noise injected by invalid users
// into a valid item against the Theorem 5 closed form, and that it is
// strictly below the Theorem 4 noise of plain random substitution.
func TestVPTheorem5Noise(t *testing.T) {
	const d = 10
	const m = 40000
	vp, err := NewVP(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(201)
	acc := vp.NewAccumulator()
	for i := 0; i < m; i++ {
		acc.Add(vp.Perturb(Invalid, r))
	}
	th := analysis.InvalidNoiseVP(m, vp.P(), vp.Q())
	for v := 0; v < d; v++ {
		got := float64(acc.RawCount(v))
		if math.Abs(got-th.Mean) > 5*math.Sqrt(th.Variance) {
			t.Fatalf("item %d noise %v, Theorem 5 mean %v (σ=%v)",
				v, got, th.Mean, math.Sqrt(th.Variance))
		}
	}
	ldp := analysis.InvalidNoiseLDP(m, d, vp.P(), vp.Q())
	if th.Mean >= ldp.Mean {
		t.Fatalf("VP noise %v not below LDP noise %v", th.Mean, ldp.Mean)
	}
}

// TestVPTheorem7Expectation checks the raw kept-count expectation against
// Theorem 7 with a mixed population.
func TestVPTheorem7Expectation(t *testing.T) {
	const d = 6
	const n1, n2, m = 20000, 30000, 15000
	vp, err := NewVP(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(202)
	acc := vp.NewAccumulator()
	for i := 0; i < n1; i++ {
		acc.Add(vp.Perturb(0, r))
	}
	for i := 0; i < n2; i++ {
		acc.Add(vp.Perturb(1+i%(d-1), r))
	}
	for i := 0; i < m; i++ {
		acc.Add(vp.Perturb(Invalid, r))
	}
	th := analysis.TargetCountVP(n1, n2, m, vp.P(), vp.Q())
	got := float64(acc.RawCount(0))
	if math.Abs(got-th.Mean) > 5*math.Sqrt(th.Variance) {
		t.Fatalf("target count %v, Theorem 7 mean %v (σ=%v)", got, th.Mean, math.Sqrt(th.Variance))
	}
}

// TestVPEstimateUnbiasedWithoutInvalid verifies the calibrated estimate on a
// population with no invalid users.
func TestVPEstimateUnbiasedWithoutInvalid(t *testing.T) {
	const d = 8
	vp, err := NewVP(d, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{5000, 3000, 1000, 400, 200, 100, 50, 25}
	r := xrand.New(203)
	const trials = 60
	sums := make([]float64, d)
	for tr := 0; tr < trials; tr++ {
		acc := vp.NewAccumulator()
		for v, n := range counts {
			for i := 0; i < n; i++ {
				acc.Add(vp.Perturb(v, r))
			}
		}
		for v := 0; v < d; v++ {
			sums[v] += acc.Estimate(v)
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	p, q := vp.P(), vp.Q()
	// Loose σ from the OUE bound N·q(1−q)/(p−q)², scaled up for the extra
	// flag-drop randomness; 5σ/√trials keeps flakes out.
	sigma := 1.5 * math.Sqrt(float64(total)*q*(1-q)) / (p - q)
	for v, n := range counts {
		mean := sums[v] / trials
		if math.Abs(mean-float64(n)) > 5*sigma/math.Sqrt(trials) {
			t.Errorf("item %d mean %v truth %d", v, mean, n)
		}
	}
}

func TestVPAccumulatorMerge(t *testing.T) {
	vp, _ := NewVP(4, 1)
	r := xrand.New(204)
	a := vp.NewAccumulator()
	b := vp.NewAccumulator()
	whole := vp.NewAccumulator()
	for i := 0; i < 2000; i++ {
		rep := vp.Perturb(i%4, r)
		if i%2 == 0 {
			a.Add(rep)
		} else {
			b.Add(rep)
		}
		whole.Add(rep)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != whole.Total() || a.Kept() != whole.Kept() || a.Dropped() != whole.Dropped() {
		t.Fatal("merge bookkeeping mismatch")
	}
	for v := 0; v < 4; v++ {
		if a.RawCount(v) != whole.RawCount(v) {
			t.Fatal("merge counts mismatch")
		}
	}
	vp2, _ := NewVP(5, 1)
	if err := a.Merge(vp2.NewAccumulator()); err == nil {
		t.Fatal("cross-domain merge succeeded")
	}
}

func TestVPConstructorErrors(t *testing.T) {
	if _, err := NewVP(0, 1); err == nil {
		t.Fatal("NewVP(0,1) succeeded")
	}
	if _, err := NewVP(5, 0); err == nil {
		t.Fatal("NewVP(5,0) succeeded")
	}
}
