package fo

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// perturbDataset runs mech over a dataset where counts[v] users hold value
// v, and returns the accumulator.
func perturbDataset(t *testing.T, mech Mechanism, counts []int, r *xrand.Rand) Accumulator {
	t.Helper()
	acc := mech.NewAccumulator()
	for v, n := range counts {
		for i := 0; i < n; i++ {
			acc.Add(mech.Perturb(v, r))
		}
	}
	return acc
}

// checkUnbiased verifies |estimate − truth| ≤ z·σ for every value, with σ
// from the mechanism's closed-form variance — mechanism and theory check
// each other.
func checkUnbiased(t *testing.T, mech Mechanism, counts []int, r *xrand.Rand, z float64) {
	t.Helper()
	total := 0
	for _, n := range counts {
		total += n
	}
	acc := perturbDataset(t, mech, counts, r)
	if acc.N() != total {
		t.Fatalf("%s: accumulator N=%d want %d", mech.Name(), acc.N(), total)
	}
	est := acc.EstimateAll()
	for v, n := range counts {
		sigma := math.Sqrt(mech.EstimatorVariance(total, float64(n)))
		if diff := math.Abs(est[v] - float64(n)); diff > z*sigma {
			t.Errorf("%s: value %d estimate %.1f truth %d (|Δ|=%.1f > %.1f·σ, σ=%.1f)",
				mech.Name(), v, est[v], n, diff, z, sigma)
		}
	}
}

func TestGRRProbabilities(t *testing.T) {
	g, err := NewGRR(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := math.E
	if math.Abs(g.P()-e/(e+9)) > 1e-12 {
		t.Fatalf("p = %v", g.P())
	}
	if math.Abs(g.Q()-1/(e+9)) > 1e-12 {
		t.Fatalf("q = %v", g.Q())
	}
	// LDP constraint: p/q = e^ε.
	if math.Abs(g.P()/g.Q()-math.Exp(1)) > 1e-9 {
		t.Fatal("p/q != e^ε")
	}
}

func TestGRRPerturbDistribution(t *testing.T) {
	g, err := NewGRR(5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(100)
	const n = 200000
	counts := make([]float64, 5)
	for i := 0; i < n; i++ {
		counts[g.PerturbValue(2, r)]++
	}
	// Value 2 with probability p, each other with q.
	if math.Abs(counts[2]-g.P()*n) > 5*math.Sqrt(g.P()*(1-g.P())*n) {
		t.Fatalf("retention count %v want %v", counts[2], g.P()*n)
	}
	for v := 0; v < 5; v++ {
		if v == 2 {
			continue
		}
		if math.Abs(counts[v]-g.Q()*n) > 5*math.Sqrt(g.Q()*(1-g.Q())*n) {
			t.Fatalf("flip count[%d] %v want %v", v, counts[v], g.Q()*n)
		}
	}
}

func TestGRRUnbiased(t *testing.T) {
	g, err := NewGRR(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkUnbiased(t, g, []int{5000, 3000, 1000, 500, 250, 125, 75, 50}, xrand.New(101), 4.5)
}

func TestGRRDomainOne(t *testing.T) {
	g, err := NewGRR(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(102)
	for i := 0; i < 100; i++ {
		if g.PerturbValue(0, r) != 0 {
			t.Fatal("domain-1 GRR moved the value")
		}
	}
}

func TestOUEProbabilities(t *testing.T) {
	u, err := NewOUE(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.P() != 0.5 {
		t.Fatalf("OUE p = %v", u.P())
	}
	if math.Abs(u.Q()-1/(math.E+1)) > 1e-12 {
		t.Fatalf("OUE q = %v", u.Q())
	}
	// Theorem 1: ε = ln(p(1−q)/((1−p)q)).
	eps := math.Log(u.P() * (1 - u.Q()) / ((1 - u.P()) * u.Q()))
	if math.Abs(eps-1) > 1e-9 {
		t.Fatalf("OUE effective epsilon %v", eps)
	}
}

func TestSUEProbabilities(t *testing.T) {
	u, err := NewSUE(20, 2)
	if err != nil {
		t.Fatal(err)
	}
	e := math.Exp(1) // e^{ε/2}
	if math.Abs(u.P()-e/(e+1)) > 1e-12 || math.Abs(u.Q()-1/(e+1)) > 1e-12 {
		t.Fatalf("SUE p,q = %v,%v", u.P(), u.Q())
	}
	if math.Abs(u.P()+u.Q()-1) > 1e-12 {
		t.Fatal("SUE not symmetric")
	}
}

// TestUEPerturbBitsDistribution holds PerturbBits over d=1000 bits, with the
// 1 bit at lane 64, to the per-bit Bernoulli marginals — each bit and the
// sum of all 0-bits — across the q the word kernel treats differently: the
// finite expansions q = 1/2 and 1/4, the OUE q from ε = 0.5 to 8, and a
// q < 2⁻⁶⁴ whose expansion opens with more than a word of zeros.
func TestUEPerturbBitsDistribution(t *testing.T) {
	const d, v, n = 1000, 64, 20000
	var ues []*UE
	for _, pq := range [][2]float64{{0.75, 0.5}, {0.5, 0.25}, {0.5, 0x1p-70}} {
		u, err := NewUE(d, pq[0], pq[1])
		if err != nil {
			t.Fatal(err)
		}
		ues = append(ues, u)
	}
	for _, eps := range []float64{0.5, 1, 4, 8} {
		u, err := NewOUE(d, eps)
		if err != nil {
			t.Fatal(err)
		}
		ues = append(ues, u)
	}
	r := xrand.New(103)
	far := func(got, p, trials float64) bool {
		return math.Abs(got-p*trials) > 5*math.Sqrt(p*(1-p)*trials)
	}
	for _, u := range ues {
		ones := make([]float64, d)
		for i := 0; i < n; i++ {
			u.PerturbBits(v, r).ForEachSet(func(b int) { ones[b]++ })
		}
		if far(ones[v], u.P(), n) {
			t.Fatalf("q=%v: 1-bit frequency %v want %v", u.Q(), ones[v], u.P()*n)
		}
		zeros := 0.0
		for b, c := range ones {
			if b == v {
				continue
			}
			zeros += c
			if far(c, u.Q(), n) {
				t.Fatalf("q=%v: 0-bit %d frequency %v want %v", u.Q(), b, c, u.Q()*n)
			}
		}
		if far(zeros, u.Q(), n*(d-1)) {
			t.Fatalf("q=%v: %v 0-bits set, want %v", u.Q(), zeros, u.Q()*n*(d-1))
		}
	}
}

func TestOUEUnbiased(t *testing.T) {
	u, err := NewOUE(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 16)
	counts[0], counts[1], counts[5], counts[15] = 4000, 2000, 800, 100
	checkUnbiased(t, u, counts, xrand.New(104), 4.5)
}

func TestSUEUnbiased(t *testing.T) {
	u, err := NewSUE(12, 2)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 12)
	counts[3], counts[9] = 5000, 1500
	checkUnbiased(t, u, counts, xrand.New(105), 4.5)
}

func TestUECustomProbabilities(t *testing.T) {
	u, err := NewUE(10, 0.7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(0.7 * 0.8 / (0.3 * 0.2))
	if math.Abs(u.Epsilon()-want) > 1e-12 {
		t.Fatalf("epsilon %v want %v", u.Epsilon(), want)
	}
	for _, bad := range [][2]float64{{0.2, 0.7}, {0.5, 0.5}, {1, 0.1}, {0.5, 0}} {
		if _, err := NewUE(10, bad[0], bad[1]); err == nil {
			t.Fatalf("NewUE(%v,%v) succeeded", bad[0], bad[1])
		}
	}
}

func TestOLHUnbiased(t *testing.T) {
	o, err := NewOLH(12, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 12)
	counts[0], counts[4], counts[11] = 6000, 2000, 500
	checkUnbiased(t, o, counts, xrand.New(106), 4.5)
}

func TestOLHHashRange(t *testing.T) {
	o, err := NewOLH(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := int(math.Round(math.Exp(2))) + 1
	if o.G() != want {
		t.Fatalf("g = %d want %d", o.G(), want)
	}
	// Hash must be deterministic and in range.
	for v := 0; v < 100; v++ {
		h1 := o.hash(12345, v)
		h2 := o.hash(12345, v)
		if h1 != h2 || h1 < 0 || h1 >= o.G() {
			t.Fatalf("hash(%d) = %d,%d", v, h1, h2)
		}
	}
}

func TestOLHSupportProbability(t *testing.T) {
	// A non-held value should be supported with probability ~1/g.
	o, err := NewOLH(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(107)
	const n = 50000
	acc := o.NewAccumulator().(*accumulator)
	for i := 0; i < n; i++ {
		acc.Add(o.Perturb(0, r))
	}
	support := float64(acc.t.Row(0)[25]) // value 25 held by nobody
	want := float64(n) / float64(o.G())
	if math.Abs(support-want) > 5*math.Sqrt(want) {
		t.Fatalf("support %v want %v", support, want)
	}
}

func TestAdaptiveSelection(t *testing.T) {
	// d < 3e^ε+2 → GRR, else OUE.
	m, err := NewAdaptive(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "GRR" {
		t.Fatalf("small domain chose %s", m.Name())
	}
	m, err = NewAdaptive(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "OUE" {
		t.Fatalf("large domain chose %s", m.Name())
	}
	// Boundary: 3e^1+2 ≈ 10.15, so d=10 → GRR, d=11 → OUE.
	if !AdaptiveChoosesGRR(10, 1) {
		t.Fatal("d=10 ε=1 should choose GRR")
	}
	if AdaptiveChoosesGRR(11, 1) {
		t.Fatal("d=11 ε=1 should choose OUE")
	}
}

func TestMergeAccumulators(t *testing.T) {
	g, err := NewGRR(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(108)
	a := g.NewAccumulator()
	b := g.NewAccumulator()
	whole := g.NewAccumulator()
	for i := 0; i < 3000; i++ {
		rep := g.Perturb(i%6, r)
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
	if a.N() != whole.N() {
		t.Fatalf("merged N=%d want %d", a.N(), whole.N())
	}
	for v := 0; v < 6; v++ {
		if math.Abs(a.Estimate(v)-whole.Estimate(v)) > 1e-9 {
			t.Fatalf("merged estimate differs at %d", v)
		}
	}
}

func TestMergeTypeMismatch(t *testing.T) {
	g, _ := NewGRR(6, 1)
	u, _ := NewOUE(6, 1)
	if err := g.NewAccumulator().Merge(u.NewAccumulator()); err == nil {
		t.Fatal("cross-mechanism merge succeeded")
	}
	g2, _ := NewGRR(7, 1)
	if err := g.NewAccumulator().Merge(g2.NewAccumulator()); err == nil {
		t.Fatal("cross-domain merge succeeded")
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewGRR(0, 1); err == nil {
		t.Fatal("NewGRR(0,1) succeeded")
	}
	if _, err := NewGRR(5, 0); err == nil {
		t.Fatal("NewGRR(5,0) succeeded")
	}
	if _, err := NewOUE(5, -1); err == nil {
		t.Fatal("NewOUE(5,-1) succeeded")
	}
	if _, err := NewOLH(5, math.Inf(1)); err == nil {
		t.Fatal("NewOLH(5,Inf) succeeded")
	}
	if _, err := NewAdaptive(-1, 1); err == nil {
		t.Fatal("NewAdaptive(-1,1) succeeded")
	}
}

func TestPerturbOutOfDomainPanics(t *testing.T) {
	g, _ := NewGRR(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-domain value")
		}
	}()
	g.Perturb(4, xrand.New(1))
}

// TestEmpiricalVarianceMatchesTheory runs many small aggregations and
// compares the observed estimator variance against EstimatorVariance.
func TestEmpiricalVarianceMatchesTheory(t *testing.T) {
	mechs := []Mechanism{}
	if g, err := NewGRR(6, 1); err == nil {
		mechs = append(mechs, g)
	}
	if u, err := NewOUE(6, 1); err == nil {
		mechs = append(mechs, u)
	}
	if s, err := NewSUE(6, 1); err == nil {
		mechs = append(mechs, s)
	}
	r := xrand.New(109)
	const trials = 400
	const hold = 200 // users holding value 0
	const others = 300
	for _, mech := range mechs {
		ests := make([]float64, trials)
		for tr := 0; tr < trials; tr++ {
			acc := mech.NewAccumulator()
			for i := 0; i < hold; i++ {
				acc.Add(mech.Perturb(0, r))
			}
			for i := 0; i < others; i++ {
				acc.Add(mech.Perturb(1+i%5, r))
			}
			ests[tr] = acc.Estimate(0)
		}
		mean, varSum := 0.0, 0.0
		for _, e := range ests {
			mean += e
		}
		mean /= trials
		for _, e := range ests {
			varSum += (e - mean) * (e - mean)
		}
		empVar := varSum / trials
		theory := mech.EstimatorVariance(hold+others, hold)
		if empVar < theory*0.6 || empVar > theory*1.6 {
			t.Errorf("%s: empirical variance %.1f vs theory %.1f", mech.Name(), empVar, theory)
		}
	}
}
