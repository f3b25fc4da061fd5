// Package topk implements the paper's multi-class top-k item mining query
// (Section VI-B): the PEM prefix-trie baseline, the seeded shuffled-bucket
// candidate scheme that replaces it (Fig. 4), validity perturbation for
// pruned-candidate invalid data, Algorithm 1 (global candidate generation
// with per-class noise estimation) and Algorithm 2 (per-class mining with
// the correlated-perturbation final iteration), and the HEC / PTJ / PTS
// multi-class drivers with every optimization individually toggleable for
// the Table III ablation.
package topk

import (
	"fmt"
	"math/bits"

	"repro/internal/metrics"
	"repro/internal/xrand"
)

// space is a candidate set organized into buckets for one mining iteration.
// The two implementations are the PEM prefix trie (buckets are prefixes of
// the item's binary encoding) and the paper's shuffled partition (buckets
// are seeded random groups of surviving candidates).
type space interface {
	// Buckets returns the number of buckets in the current layout.
	Buckets() int
	// BucketOf returns the bucket holding item v, or -1 when v is not in
	// the current candidate set (an invalid item).
	BucketOf(v int) int
	// PoolSize returns the number of surviving candidates.
	PoolSize() int
	// Prune keeps the candidates in the `keep` highest-scoring buckets and
	// lays out the next iteration's buckets (re-shuffling or extending
	// prefixes). scores has Buckets() entries.
	Prune(scores []float64, keep int, r *xrand.Rand)
	// Singleton reports whether every bucket holds exactly one candidate,
	// i.e. bucket scores rank individual items.
	Singleton() bool
	// Candidate returns the item in bucket b; only valid when Singleton().
	// It returns -1 for padding candidates outside the real domain.
	Candidate(b int) int
	// Fork returns an independent copy of the surviving candidates laid out
	// with the given bucket count — the global-to-per-class hand-off.
	Fork(buckets int, r *xrand.Rand) space
	// Desc returns the wire description of the current layout, from which
	// spaceFromDesc rebuilds an identical space. It is what a mining
	// session broadcasts each round so clients compute their own bucket.
	Desc() SpaceDesc
}

// SpaceDesc is the serializable description of a candidate-space layout —
// the part of a round broadcast that lets a client locate its own item
// without the server learning anything. Exactly one of the two layouts is
// populated, selected by Kind.
type SpaceDesc struct {
	// Kind is SpaceShuffle or SpacePrefix.
	Kind string `json:"kind"`
	// Domain is the item domain size d the space indexes into.
	Domain int `json:"domain"`

	// Shuffled layout (the paper's scheme): the surviving candidates in
	// their current shuffled order, bucket j owning Pool[Starts[j]:Starts[j+1]].
	Pool   []int `json:"pool,omitempty"`
	Starts []int `json:"starts,omitempty"`

	// Prefix layout (PEM baseline): the candidate prefixes of the current
	// Length over TotalBits-bit items.
	TotalBits int   `json:"total_bits,omitempty"`
	Length    int   `json:"length,omitempty"`
	Prefixes  []int `json:"prefixes,omitempty"`
}

// Space layout kinds carried in SpaceDesc.Kind.
const (
	SpaceShuffle = "shuffle"
	SpacePrefix  = "prefix"
)

// MaxWireDomain caps the item domain a served mining session accepts.
// Reconstructing a shuffled space allocates an item→bucket table of Domain
// entries, so the cap bounds what an adversarial (or fuzzed) round config
// can make a client allocate. 2²² items is far beyond the paper's domains.
const MaxWireDomain = 1 << 22

// Buckets returns the number of buckets the description lays out.
func (sd *SpaceDesc) Buckets() int {
	if sd.Kind == SpaceShuffle {
		return len(sd.Starts) - 1
	}
	return len(sd.Prefixes)
}

// spaceFromDesc validates a wire description and rebuilds the space. Every
// structural invariant is checked — the bytes come from the network — so an
// accepted description behaves exactly like the space that produced it.
func spaceFromDesc(sd SpaceDesc) (space, error) {
	if sd.Domain < 1 || sd.Domain > MaxWireDomain {
		return nil, fmt.Errorf("topk: space domain %d outside [1,%d]", sd.Domain, MaxWireDomain)
	}
	switch sd.Kind {
	case SpaceShuffle:
		return shuffleFromDesc(sd)
	case SpacePrefix:
		return prefixFromDesc(sd)
	}
	return nil, fmt.Errorf("topk: unknown space kind %q", sd.Kind)
}

func shuffleFromDesc(sd SpaceDesc) (*shuffleSpace, error) {
	if len(sd.Prefixes) > 0 || sd.TotalBits != 0 || sd.Length != 0 {
		return nil, fmt.Errorf("topk: shuffle space carries prefix fields")
	}
	if len(sd.Pool) == 0 || len(sd.Pool) > sd.Domain {
		return nil, fmt.Errorf("topk: shuffle pool of %d candidates over domain %d", len(sd.Pool), sd.Domain)
	}
	if len(sd.Starts) < 2 || sd.Starts[0] != 0 || sd.Starts[len(sd.Starts)-1] != len(sd.Pool) {
		return nil, fmt.Errorf("topk: shuffle starts do not cover the pool")
	}
	s := &shuffleSpace{
		domain:   sd.Domain,
		pool:     append([]int(nil), sd.Pool...),
		starts:   append([]int(nil), sd.Starts...),
		bucketOf: make([]int32, sd.Domain),
	}
	for i := range s.bucketOf {
		s.bucketOf[i] = -1
	}
	for j := 0; j+1 < len(s.starts); j++ {
		if s.starts[j+1] <= s.starts[j] {
			return nil, fmt.Errorf("topk: empty or reversed bucket %d", j)
		}
		// The last start is the pool's length, but one before it may
		// overshoot and come back.
		if s.starts[j+1] > len(s.pool) {
			return nil, fmt.Errorf("topk: bucket %d ends beyond the pool", j)
		}
		for i := s.starts[j]; i < s.starts[j+1]; i++ {
			v := s.pool[i]
			if v < 0 || v >= sd.Domain {
				return nil, fmt.Errorf("topk: pool candidate %d outside [0,%d)", v, sd.Domain)
			}
			if s.bucketOf[v] != -1 {
				return nil, fmt.Errorf("topk: candidate %d appears twice in the pool", v)
			}
			s.bucketOf[v] = int32(j)
		}
	}
	return s, nil
}

func prefixFromDesc(sd SpaceDesc) (*prefixSpace, error) {
	if len(sd.Pool) > 0 || len(sd.Starts) > 0 {
		return nil, fmt.Errorf("topk: prefix space carries shuffle fields")
	}
	if sd.TotalBits != bitsFor(sd.Domain) {
		return nil, fmt.Errorf("topk: prefix total bits %d != %d for domain %d", sd.TotalBits, bitsFor(sd.Domain), sd.Domain)
	}
	if sd.Length < 1 || sd.Length > sd.TotalBits {
		return nil, fmt.Errorf("topk: prefix length %d outside [1,%d]", sd.Length, sd.TotalBits)
	}
	if len(sd.Prefixes) == 0 {
		return nil, fmt.Errorf("topk: empty prefix set")
	}
	s := &prefixSpace{
		totalBits: sd.TotalBits,
		length:    sd.Length,
		prefixes:  append([]int(nil), sd.Prefixes...),
		domain:    sd.Domain,
	}
	limit := 1 << uint(sd.Length)
	seen := make(map[int]struct{}, len(s.prefixes))
	for _, p := range s.prefixes {
		if p < 0 || p >= limit {
			return nil, fmt.Errorf("topk: prefix %d outside [0,%d)", p, limit)
		}
		if _, dup := seen[p]; dup {
			return nil, fmt.Errorf("topk: prefix %d appears twice", p)
		}
		seen[p] = struct{}{}
	}
	s.reindex()
	return s, nil
}

// iterations returns the paper's iteration count IT = log2(d/(4k)) + 1,
// computed as the number of pool halvings needed to go from d candidates to
// at most 4k, plus the final singleton-ranking iteration.
func iterations(d, k int) int {
	it := 1
	for pool := d; pool > 4*k; pool = (pool + 1) / 2 {
		it++
	}
	return it
}

// ---------------------------------------------------------------------------
// Shuffled candidate space (the paper's scheme, Fig. 4).
// ---------------------------------------------------------------------------

// shuffleSpace partitions the surviving candidates into equal buckets using
// a seeded shuffle. Decoupling sibling prefixes is what removes PEM's
// false-positive prefixes (Fig. 3): a frequent item's count is never diluted
// by fixed subtree membership because its bucket peers are re-randomized
// every iteration.
type shuffleSpace struct {
	domain   int
	pool     []int   // shuffled candidates; bucket j owns a contiguous slice
	bucketOf []int32 // item -> bucket, -1 outside the pool
	starts   []int   // bucket j = pool[starts[j]:starts[j+1]]
}

// newShuffleSpace builds the initial layout over the full item domain.
func newShuffleSpace(d, buckets int, r *xrand.Rand) *shuffleSpace {
	pool := make([]int, d)
	for i := range pool {
		pool[i] = i
	}
	s := &shuffleSpace{domain: d, pool: pool, bucketOf: make([]int32, d)}
	s.layout(buckets, r)
	return s
}

// layout shuffles the pool and splits it into at most want buckets of
// near-equal size (the first pool%want buckets get one extra candidate).
func (s *shuffleSpace) layout(want int, r *xrand.Rand) {
	r.Shuffle(len(s.pool), func(i, j int) { s.pool[i], s.pool[j] = s.pool[j], s.pool[i] })
	b := want
	if b > len(s.pool) {
		b = len(s.pool)
	}
	if b < 1 {
		b = 1
	}
	base := len(s.pool) / b
	extra := len(s.pool) % b
	s.starts = make([]int, b+1)
	for i := range s.bucketOf {
		s.bucketOf[i] = -1
	}
	pos := 0
	for j := 0; j < b; j++ {
		s.starts[j] = pos
		size := base
		if j < extra {
			size++
		}
		for i := pos; i < pos+size; i++ {
			s.bucketOf[s.pool[i]] = int32(j)
		}
		pos += size
	}
	s.starts[b] = pos
}

func (s *shuffleSpace) Buckets() int { return len(s.starts) - 1 }

func (s *shuffleSpace) BucketOf(v int) int {
	if v < 0 || v >= s.domain {
		return -1
	}
	return int(s.bucketOf[v])
}

func (s *shuffleSpace) PoolSize() int { return len(s.pool) }

// Prune keeps the top-scoring buckets' candidates, trimmed to exactly
// ceil(pool·keep/buckets) so the pool shrinks on the deterministic schedule
// iterationsFor assumes (the trimmed stragglers come from the lowest-ranked
// kept bucket, the least supported candidates anyway).
func (s *shuffleSpace) Prune(scores []float64, keep int, r *xrand.Rand) {
	if len(scores) != s.Buckets() {
		panic(fmt.Sprintf("topk: %d scores for %d buckets", len(scores), s.Buckets()))
	}
	top := metrics.TopK(scores, keep)
	target := len(s.pool)
	if keep < s.Buckets() {
		target = (len(s.pool)*keep + s.Buckets() - 1) / s.Buckets()
	}
	next := make([]int, 0, target)
	for _, b := range top {
		members := s.pool[s.starts[b]:s.starts[b+1]]
		room := target - len(next)
		if room <= 0 {
			break
		}
		if len(members) > room {
			members = members[:room]
		}
		next = append(next, members...)
	}
	want := s.Buckets()
	s.pool = next
	s.layout(want, r)
}

func (s *shuffleSpace) Singleton() bool { return len(s.pool) <= s.Buckets() }

func (s *shuffleSpace) Candidate(b int) int {
	if !s.Singleton() {
		panic("topk: Candidate on non-singleton shuffle space")
	}
	return s.pool[s.starts[b]]
}

// Desc implements space.
func (s *shuffleSpace) Desc() SpaceDesc {
	return SpaceDesc{
		Kind:   SpaceShuffle,
		Domain: s.domain,
		Pool:   append([]int(nil), s.pool...),
		Starts: append([]int(nil), s.starts...),
	}
}

// Fork returns an independent copy of the surviving pool laid out with the
// given bucket count — the hand-off from the global candidate phase to the
// per-class phase.
func (s *shuffleSpace) Fork(buckets int, r *xrand.Rand) space {
	c := &shuffleSpace{
		domain:   s.domain,
		pool:     append([]int(nil), s.pool...),
		bucketOf: make([]int32, s.domain),
	}
	c.layout(buckets, r)
	return c
}

// ---------------------------------------------------------------------------
// PEM prefix-trie space (the baseline, Wang et al. TDSC 2021).
// ---------------------------------------------------------------------------

// prefixSpace is the PEM candidate structure: items are L-bit strings and
// each bucket is one candidate prefix of the current length. Pruning keeps
// the top prefixes and extends each by one bit, walking the trie from
// length ceil(log2(4k)) down to the full item length.
type prefixSpace struct {
	totalBits int
	length    int
	prefixes  []int
	index     map[int]int
	domain    int // item domain size d, to reject padding items at the leaves
}

// newPrefixSpace builds the initial all-prefixes layout of length
// min(ceil(log2 buckets), L).
func newPrefixSpace(d, buckets int) *prefixSpace {
	l := bitsFor(d)
	l0 := bitsFor(buckets)
	if l0 > l {
		l0 = l
	}
	s := &prefixSpace{totalBits: l, length: l0, domain: d}
	s.prefixes = make([]int, 1<<l0)
	for i := range s.prefixes {
		s.prefixes[i] = i
	}
	s.reindex()
	return s
}

// bitsFor returns ceil(log2(n)) with a minimum of 1.
func bitsFor(n int) int {
	if n <= 2 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

func (s *prefixSpace) reindex() {
	s.index = make(map[int]int, len(s.prefixes))
	for i, p := range s.prefixes {
		s.index[p] = i
	}
}

func (s *prefixSpace) Buckets() int { return len(s.prefixes) }

func (s *prefixSpace) BucketOf(v int) int {
	p := v >> uint(s.totalBits-s.length)
	if b, ok := s.index[p]; ok {
		return b
	}
	return -1
}

// PoolSize counts the items covered by the current prefixes.
func (s *prefixSpace) PoolSize() int {
	width := 1 << uint(s.totalBits-s.length)
	return len(s.prefixes) * width
}

func (s *prefixSpace) Prune(scores []float64, keep int, _ *xrand.Rand) {
	if len(scores) != len(s.prefixes) {
		panic(fmt.Sprintf("topk: %d scores for %d prefixes", len(scores), len(s.prefixes)))
	}
	top := metrics.TopK(scores, keep)
	if s.length >= s.totalBits {
		// Leaf level: pruning keeps items without extension.
		next := make([]int, 0, len(top))
		for _, b := range top {
			next = append(next, s.prefixes[b])
		}
		s.prefixes = next
		s.reindex()
		return
	}
	next := make([]int, 0, 2*len(top))
	for _, b := range top {
		p := s.prefixes[b]
		next = append(next, p<<1, p<<1|1)
	}
	s.length++
	s.prefixes = next
	s.reindex()
}

func (s *prefixSpace) Singleton() bool { return s.length == s.totalBits }

func (s *prefixSpace) Candidate(b int) int {
	if !s.Singleton() {
		panic("topk: Candidate on non-leaf prefix space")
	}
	v := s.prefixes[b]
	if v >= s.domain {
		return -1 // padding leaf beyond the real domain
	}
	return v
}

// Desc implements space.
func (s *prefixSpace) Desc() SpaceDesc {
	return SpaceDesc{
		Kind:      SpacePrefix,
		Domain:    s.domain,
		TotalBits: s.totalBits,
		Length:    s.length,
		Prefixes:  append([]int(nil), s.prefixes...),
	}
}

// Fork returns an independent copy at the current prefix length. The bucket
// count is implied by the prefix set, so the argument is ignored; per-class
// phases diverge through their own subsequent prunes.
func (s *prefixSpace) Fork(_ int, _ *xrand.Rand) space {
	c := &prefixSpace{
		totalBits: s.totalBits,
		length:    s.length,
		prefixes:  append([]int(nil), s.prefixes...),
		domain:    s.domain,
	}
	c.reindex()
	return c
}

// prefixIterations returns PEM's iteration count: one per prefix length
// from the initial layout to the leaves.
func prefixIterations(d, buckets int) int {
	l := bitsFor(d)
	l0 := bitsFor(buckets)
	if l0 > l {
		l0 = l
	}
	return l - l0 + 1
}
