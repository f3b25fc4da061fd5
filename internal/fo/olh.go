package fo

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// OLH is Optimal Local Hashing: each user hashes their value into g =
// round(e^ε)+1 buckets with a personal public hash seed and reports the
// bucket under GRR(ε) over the g buckets. The server recovers support counts
// by re-hashing every candidate value under the report's seed as the report
// arrives — d hashes a report, O(N·d) in all, the communication/computation
// trade-off the paper cites when preferring OUE — and keeps only the counts.
type OLH struct {
	d   int
	eps float64
	g   int
	p   float64 // retention probability of GRR over g buckets
}

// NewOLH builds an OLH mechanism for domain size d and budget eps.
func NewOLH(d int, eps float64) (*OLH, error) {
	if err := validate(d, eps); err != nil {
		return nil, err
	}
	g := int(math.Round(math.Exp(eps))) + 1
	if g < 2 {
		g = 2
	}
	e := math.Exp(eps)
	return &OLH{d: d, eps: eps, g: g, p: e / (e + float64(g) - 1)}, nil
}

// Name implements Mechanism.
func (o *OLH) Name() string { return "OLH" }

// Epsilon implements Mechanism.
func (o *OLH) Epsilon() float64 { return o.eps }

// DomainSize implements Mechanism.
func (o *OLH) DomainSize() int { return o.d }

// G returns the hash range g.
func (o *OLH) G() int { return o.g }

// P returns the GRR retention probability over the g buckets.
func (o *OLH) P() float64 { return o.p }

// Q returns the effective support probability 1/g of a non-held value.
func (o *OLH) Q() float64 { return 1 / float64(o.g) }

// hash maps (seed, v) into [0, g) with a SplitMix64-style mixer. The seed is
// public: both client and server evaluate the same function.
func (o *OLH) hash(seed uint64, v int) int {
	x := seed ^ (uint64(v)+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(o.g))
}

// Perturb implements Mechanism.
func (o *OLH) Perturb(v int, r *xrand.Rand) Report {
	checkDomain(v, o.d)
	seed := r.Uint64()
	h := o.hash(seed, v)
	// GRR over the g buckets.
	out := h
	if !r.Bernoulli(o.p) {
		c := r.Intn(o.g - 1)
		if c >= h {
			c++
		}
		out = c
	}
	return Report{Value: out, Seed: seed}
}

// NewAccumulator implements Mechanism.
func (o *OLH) NewAccumulator() Accumulator { return newAccumulator(o, false) }

// fold implements Mechanism: an OLH report supports every value that its
// seed hashes into the reported bucket.
func (o *OLH) fold(row []int64, rep Report) {
	if rep.Value < 0 || rep.Value >= o.g {
		panic(fmt.Sprintf("fo: OLH report bucket %d outside [0,%d)", rep.Value, o.g))
	}
	row = row[:o.d]
	for v := range row {
		if o.hash(rep.Seed, v) == rep.Value {
			row[v]++
		}
	}
}

// EstimatorVariance implements Mechanism. For OLH the effective support
// probability of a non-held value is q* = 1/g regardless of the report, so
// Var = n·q*(1−q*)/(p−q*)² + f·(p(1−p) − q*(1−q*))/(p−q*)².
func (o *OLH) EstimatorVariance(n int, trueCount float64) float64 {
	q := 1 / float64(o.g)
	f := trueCount
	nf := float64(n) - f
	return (f*o.p*(1-o.p) + nf*q*(1-q)) / ((o.p - q) * (o.p - q))
}
