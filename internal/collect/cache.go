package collect

import (
	"net/http"
	"strconv"
	"sync"
	"time"

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
// Exact mode (the default) serves a cached body only at the exact current
// version, so responses are bit-identical to recompute-on-read, byte for byte.
// Either way a body is rendered by the tier's appender (render.go), whose
// bytes are exactly those json.NewEncoder(w).Encode emits for the tier's
// Wire…Estimates value, trailing newline included, and which refuses NaN
// and ±Inf with encoding/json's error. The WithEstimateCache staleness knobs
// let operators trade freshness for read cost: a body within maxStaleReports
// reports (and maxStaleAge, when set) of the current version is served
// without recomputing. Concurrent misses collapse: one leader recomputes,
// everyone else piggybacks on its result.

// cacheVersion is one tier's point-in-time aggregate identity.
type cacheVersion struct {
	gen   int64
	total int64
}

// cacheMetrics is the per-tier cache instrumentation.
type cacheMetrics struct {
	hit, staleHit, miss *obs.Counter
	staleReports        *obs.Gauge
}

func newCacheMetrics(reg *obs.Registry, tier string) *cacheMetrics {
	const (
		name = "mcim_estimate_cache_requests_total"
		help = "Estimate reads by tier and outcome: hit (served at the exact current version), stale_hit (served within the configured staleness bound), miss (recomputed, including requests collapsed onto an in-flight recompute)."
	)
	return &cacheMetrics{
		hit:      reg.Counter(name, help, "tier", tier, "outcome", "hit"),
		staleHit: reg.Counter(name, help, "tier", tier, "outcome", "stale_hit"),
		miss:     reg.Counter(name, help, "tier", tier, "outcome", "miss"),
		staleReports: reg.Gauge("mcim_estimate_cache_stale_reports",
			"Reports the last served estimate body lagged the live aggregate by (0 on exact hits and recomputes), by tier.", "tier", tier),
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
	disabled        bool
	maxStaleReports int64
	maxStaleAge     time.Duration
	m               *cacheMetrics

	mu       sync.Mutex
	ver      cacheVersion
	at       time.Time
	body     []byte // rendered JSON, as encoding/json would emit it; nil until first render
	inflight *cacheCall
}

// WithEstimateCache bounds how stale a cached estimate body may be served:
// up to maxStaleReports reports behind the live aggregate (0 keeps the
// default exact mode, where only the byte-identical current version is
// served from cache), additionally no older than maxStaleAge when it is
// positive. The cache itself is always on — exact mode costs nothing in
// accuracy — so this option only relaxes it.
func WithEstimateCache(maxStaleReports int64, maxStaleAge time.Duration) ServerOption {
	return func(s *Server) {
		if maxStaleReports < 0 {
			maxStaleReports = 0
		}
		if maxStaleAge < 0 {
			maxStaleAge = 0
		}
		s.cacheStaleReports = maxStaleReports
		s.cacheStaleAge = maxStaleAge
	}
}

// WithEstimateCacheDisabled turns the estimate cache off entirely: every
// read recomputes from the aggregate. Meant for benchmarking the uncached read
// path; production servers should keep the cache on.
func WithEstimateCacheDisabled() ServerOption {
	return func(s *Server) { s.cacheDisabled = true }
}

// newEstimateCache builds one tier's cache from the server-wide knobs; m is
// the tier's registered metric handles.
func newEstimateCache(disabled bool, staleReports int64, staleAge time.Duration, m *cacheMetrics) *estimateCache {
	return &estimateCache{
		disabled:        disabled,
		maxStaleReports: staleReports,
		maxStaleAge:     staleAge,
		m:               m,
	}
}

// lookupLocked checks the cached body against the current version; stale
// reports how far behind the live aggregate the body is (0 = exact hit).
// Caller holds c.mu.
func (c *estimateCache) lookupLocked(cur cacheVersion) (body []byte, stale int64, ok bool) {
	if c.body == nil || c.ver.gen != cur.gen {
		return nil, 0, false
	}
	delta := cur.total - c.ver.total
	switch {
	case delta == 0:
		return c.body, 0, true
	case delta > 0 && delta <= c.maxStaleReports &&
		(c.maxStaleAge <= 0 || time.Since(c.at) <= c.maxStaleAge):
		return c.body, delta, true
	}
	return nil, 0, false
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
	if body, stale, ok := c.lookupLocked(cur); ok {
		c.mu.Unlock()
		if stale > 0 {
			c.m.staleHit.Inc()
		} else {
			c.m.hit.Inc()
		}
		c.m.staleReports.Set(float64(stale))
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
		c.m.staleReports.Set(0)
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
		c.ver, c.at, c.body = ver, time.Now(), body
	}
	c.mu.Unlock()
	close(call.done)
	c.m.miss.Inc()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.m.staleReports.Set(0)
	writeJSONBody(w, body)
}

// writeJSONBody writes a pre-rendered JSON body. Its length is known, so it
// is declared: net/http then frames the body by length, not in chunks.
func writeJSONBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
