package fo

import (
	"math"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/xrand"
)

func TestMechanismMetadata(t *testing.T) {
	g, _ := NewGRR(7, 1.5)
	if g.Epsilon() != 1.5 || g.DomainSize() != 7 {
		t.Fatal("GRR metadata")
	}
	o, _ := NewOLH(9, 2)
	if o.Name() != "OLH" || o.Epsilon() != 2 || o.DomainSize() != 9 {
		t.Fatal("OLH metadata")
	}
	if o.P() <= o.Q() {
		t.Fatal("OLH p ≤ q")
	}
	if math.Abs(o.Q()-1/float64(o.G())) > 1e-12 {
		t.Fatal("OLH q != 1/g")
	}
}

func TestOLHMerge(t *testing.T) {
	o, _ := NewOLH(6, 1)
	r := xrand.New(800)
	a := o.NewAccumulator()
	b := o.NewAccumulator()
	whole := o.NewAccumulator()
	for i := 0; i < 2000; i++ {
		rep := o.Perturb(i%6, r)
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
		t.Fatal("merged N mismatch")
	}
	for v := 0; v < 6; v++ {
		if math.Abs(a.Estimate(v)-whole.Estimate(v)) > 1e-9 {
			t.Fatal("merged estimate mismatch")
		}
	}
	g, _ := NewGRR(6, 1)
	if err := a.Merge(g.NewAccumulator()); err == nil {
		t.Fatal("cross-mechanism merge succeeded")
	}
	o2, _ := NewOLH(7, 1)
	if err := a.Merge(o2.NewAccumulator()); err == nil {
		t.Fatal("cross-domain merge succeeded")
	}
}

func TestOLHAddRejectsBadBucket(t *testing.T) {
	o, _ := NewOLH(6, 1)
	acc := o.NewAccumulator()
	defer func() {
		if recover() == nil {
			t.Fatal("bad bucket accepted")
		}
	}()
	acc.Add(Report{Value: o.G() + 5})
}

func TestUEMergeAndAddErrors(t *testing.T) {
	u, _ := NewOUE(5, 1)
	r := xrand.New(801)
	a := u.NewAccumulator()
	b := u.NewAccumulator()
	for i := 0; i < 200; i++ {
		a.Add(u.Perturb(i%5, r))
		b.Add(u.Perturb(i%5, r))
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != 400 {
		t.Fatalf("merged N %d", a.N())
	}
	u6, _ := NewOUE(6, 1)
	if err := a.Merge(u6.NewAccumulator()); err == nil {
		t.Fatal("cross-domain merge succeeded")
	}
	g, _ := NewGRR(5, 1)
	if err := a.Merge(g.NewAccumulator()); err == nil {
		t.Fatal("cross-mechanism merge succeeded")
	}
	// Add with missing or mis-sized bits must panic.
	for _, rep := range []Report{{}, {Bits: bitvec.New(4)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad UE report accepted")
				}
			}()
			a.Add(rep)
		}()
	}
}

func TestSUEErrorPath(t *testing.T) {
	if _, err := NewSUE(0, 1); err == nil {
		t.Fatal("NewSUE(0,1) succeeded")
	}
	if _, err := NewSUE(5, -2); err == nil {
		t.Fatal("NewSUE(5,-2) succeeded")
	}
}
