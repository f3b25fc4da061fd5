package collect

import (
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// This file is the versioned estimate cache behind GET /estimates and GET
// /mean/estimates. Every tier keys its rendered response on a version pair
// (gen, total): gen counts whole-state transitions (Restore/Drain swap in a
// new generation while holding the aggregate's lock), total the reports
// folded within the current generation. Within one generation the aggregate
// is append-only and total is advanced under that same lock, so two states
// with the same (gen, total) are bit-identical — a cached body can be
// replayed verbatim without taking the lock, which is what keeps read
// polling off the ingest path.
//
// Version read order matters: readers load total BEFORE gen, and the state
// transitions bump gen BEFORE storing the new total. Any torn read then
// mislabels a value under the OLD generation, and entries keyed on a stale
// generation can never be served again (gen is monotone) — torn reads
// produce dead cache entries, never wrong bodies.
//
// A cached body is served only at the exact current version, so responses
// are bit-identical to recompute-on-read, byte for byte. A body is rendered
// by the tier's appender (render.go), whose bytes are exactly those
// json.NewEncoder(w).Encode emits for the tier's Wire…Estimates value,
// trailing newline included, and which refuses NaN and ±Inf with
// encoding/json's error. Concurrent misses collapse: one leader recomputes,
// everyone else piggybacks on its result.

// cacheVersion is one tier's point-in-time aggregate identity.
type cacheVersion struct {
	gen   int64
	total int64
}

// cacheMetrics is the per-tier cache instrumentation.
type cacheMetrics struct {
	hit, miss *obs.Counter
}

func newCacheMetrics(reg *obs.Registry, tier string) *cacheMetrics {
	const (
		name = "mcim_estimate_cache_requests_total"
		help = "Estimate reads by tier and outcome: hit (served at the exact current version), miss (recomputed, including requests collapsed onto an in-flight recompute)."
	)
	return &cacheMetrics{
		hit:  reg.Counter(name, help, "tier", tier, "outcome", "hit"),
		miss: reg.Counter(name, help, "tier", tier, "outcome", "miss"),
	}
}

// cacheCall is one in-flight recompute; waiters block on done and piggyback
// on body/err.
type cacheCall struct {
	done chan struct{}
	body []byte
	err  error
}

// estimateCache is one tier's rendered-response cache.
type estimateCache struct {
	disabled bool
	m        *cacheMetrics

	mu       sync.Mutex
	ver      cacheVersion
	body     []byte // rendered JSON, as encoding/json would emit it; nil until first render
	inflight *cacheCall
}

// WithEstimateCacheDisabled turns the estimate cache off entirely: every
// read recomputes from the aggregate. Meant for benchmarking the uncached read
// path; production servers should keep the cache on.
func WithEstimateCacheDisabled() ServerOption {
	return func(s *Server) { s.cacheDisabled = true }
}

// serve answers one estimates request. cur is the tier's version read
// total-before-gen; render recomputes the body from a copy of the aggregate
// and returns the version it must be cached under (its gen read before the
// copy was taken, its total the copy's own report count).
func (c *estimateCache) serve(w http.ResponseWriter, cur cacheVersion, render func() (body []byte, ver cacheVersion, err error)) {
	if c.disabled {
		body, _, err := render()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSONBody(w, body)
		return
	}
	c.mu.Lock()
	if body := c.body; body != nil && c.ver == cur {
		c.mu.Unlock()
		c.m.hit.Inc()
		writeJSONBody(w, body)
		return
	}
	if call := c.inflight; call != nil {
		// Collapse onto the in-flight recompute: its leader read its version
		// while this request was pending, so piggybacking on its body is a
		// legal serving order for this request too.
		c.mu.Unlock()
		c.m.miss.Inc()
		<-call.done
		if call.err != nil {
			http.Error(w, call.err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSONBody(w, call.body)
		return
	}
	call := &cacheCall{done: make(chan struct{})}
	c.inflight = call
	c.mu.Unlock()

	body, ver, err := render()
	call.body, call.err = body, err
	c.mu.Lock()
	c.inflight = nil
	if err == nil {
		c.ver, c.body = ver, body
	}
	c.mu.Unlock()
	close(call.done)
	c.m.miss.Inc()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONBody(w, body)
}

// writeJSONBody writes a pre-rendered JSON body. Its length is known, so it
// is declared: net/http then frames the body by length, not in chunks.
func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
