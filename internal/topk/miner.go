package topk

import (
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// Options toggles the paper's optimizations so the Table III ablation can
// exercise every combination. The zero value is the unoptimized baseline
// (PEM buckets, random-substitution for invalid items, no global phase, no
// correlated perturbation).
type Options struct {
	// Shuffling replaces PEM's prefix buckets with the seeded shuffled
	// partition of surviving candidates (Fig. 4).
	Shuffling bool `json:"shuffling"`
	// VP perturbs buckets with the validity perturbation mechanism instead
	// of substituting a random candidate for invalid items.
	VP bool `json:"vp"`
	// CP applies the correlated perturbation in the final iteration of the
	// PTS scheme (subject to the noise check with threshold B).
	CP bool `json:"cp"`
	// Global runs Algorithm 1: a sampled user group mines global candidates
	// for the first half of the iterations before per-class mining starts.
	// Only the PTS framework can exploit it.
	Global bool `json:"global"`
	// A is the sample fraction for the global phase (paper default 0.2).
	A float64 `json:"a,omitempty"`
	// B is the noise-level threshold of Algorithm 2 line 8 (paper default
	// 2): correlated perturbation is only applied when the routed user
	// count stays below B times the estimated class size.
	B float64 `json:"b,omitempty"`
	// Split is the label-budget fraction ε₁/ε (paper default 0.5).
	Split float64 `json:"split,omitempty"`
}

// Baseline returns the unoptimized configuration.
func Baseline() Options { return Options{A: 0.2, B: 2, Split: 0.5} }

// Optimized returns the paper's full configuration
// (PTS-Shuffling+VP+CP with global candidates, a=0.2, b=2, ε₁=ε₂=ε/2).
func Optimized() Options {
	return Options{Shuffling: true, VP: true, CP: true, Global: true, A: 0.2, B: 2, Split: 0.5}
}

// withDefaults fills unset numeric parameters with the paper's defaults.
func (o Options) withDefaults() Options {
	if o.A <= 0 || o.A >= 1 {
		o.A = 0.2
	}
	if o.B <= 0 {
		o.B = 2
	}
	if o.Split <= 0 || o.Split >= 1 {
		o.Split = 0.5
	}
	return o
}

// Result is the outcome of a multi-class top-k run.
type Result struct {
	// PerClass[c] is the mined ranking for class c, best first, at most k
	// items (fewer when the scheme could not resolve k items, e.g. PTJ on
	// data-starved classes).
	PerClass [][]int `json:"per_class"`
	// UsedCP[c] reports whether the final iteration used correlated
	// perturbation for class c (PTS only).
	UsedCP []bool `json:"used_cp"`
}

// halvings returns the number of ceil-halvings to bring pool within target.
func halvings(pool, target int) int {
	h := 0
	for p := pool; p > target; p = (p + 1) / 2 {
		h++
	}
	return h
}

// iterationsFor returns the total iteration count for a mining run over
// domain d: the paper's IT = log2(d/(4k)) + 1 with 4k generalized to the
// bucket count. The final iteration ranks singleton buckets.
func iterationsFor(d, buckets int, shuffling bool) int {
	if shuffling {
		return halvings(d, buckets) + 1
	}
	return prefixIterations(d, buckets)
}

// newSpace builds the initial candidate space for a mining run.
func newSpace(d, buckets int, shuffling bool, r *xrand.Rand) space {
	if shuffling {
		return newShuffleSpace(d, buckets, r)
	}
	return newPrefixSpace(d, buckets)
}

// groupBounds splits n users into it near-equal contiguous groups and
// returns the it+1 boundaries.
func groupBounds(n, it int) []int {
	b := make([]int, it+1)
	for i := 0; i <= it; i++ {
		b[i] = n * i / it
	}
	return b
}

// randomBucket picks the substitution bucket for an invalid user under the
// baseline scheme: a uniform random candidate's bucket, which for equal
// buckets is a uniform bucket (Section II-D deniability).
func randomBucket(sp space, r *xrand.Rand) int {
	return r.Intn(sp.Buckets())
}

// pruneKeep caps the paper's nominal keep count at half the actual bucket
// count, so the candidate pool keeps halving on schedule even when it has
// shrunk below the nominal bucket count (small pools lay out fewer,
// singleton buckets).
func pruneKeep(sp space, nominal int) int {
	half := sp.Buckets() / 2
	if half < 1 {
		half = 1
	}
	if nominal < half {
		return nominal
	}
	return half
}

// rankFinal converts the final singleton-bucket scores into a ranked item
// list, skipping padding candidates.
func rankFinal(sp space, scores []float64, limit int) []int {
	if !sp.Singleton() {
		panic("topk: final ranking on non-singleton space")
	}
	order := metrics.TopK(scores, len(scores))
	out := make([]int, 0, limit)
	for _, b := range order {
		v := sp.Candidate(b)
		if v < 0 {
			continue
		}
		out = append(out, v)
		if len(out) == limit {
			break
		}
	}
	return out
}
