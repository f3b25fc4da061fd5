package collect

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"
)

// This file is the server-side ingestion rate limiter: a token bucket over
// reports (not requests), shared by every report-accepting endpoint of a
// Server — frequency, mean and top-k round ingestion all draw from the one
// bucket, so a per-tenant Server enforces one reports/s contract across its
// tiers. Rejected batches are answered 429 with a Retry-After hint and are
// NOT write-ahead logged: a limited batch provably left no trace, so the
// client may simply resubmit after the hinted delay.

// RateLimitedError reports a batch refused by the server's ingestion rate
// limiter. RetryAfter is how long until the bucket admits work again.
type RateLimitedError struct {
	RetryAfter time.Duration
}

func (e *RateLimitedError) Error() string {
	return fmt.Sprintf("collect: ingestion rate limit exceeded; retry after %v", e.RetryAfter)
}

// rateLimiter is a debt-model token bucket: a batch is admitted whenever
// the bucket holds any credit, and debits its full report count — possibly
// driving the balance negative. That keeps batches atomic (a 512-report
// batch against a burst of 100 is admitted occasionally, never split) while
// still converging on the configured long-run rate: the debt must be paid
// off by refill before the next batch is admitted.
type rateLimiter struct {
	mu     sync.Mutex
	rate   float64 // tokens (reports) per second
	burst  float64 // token cap
	tokens float64
	last   time.Time
	now    func() time.Time // injectable for tests
}

func newRateLimiter(rps float64, burst int) *rateLimiter {
	if burst < 1 {
		// Default burst = one second of credit, so short spikes at the
		// configured rate are never refused.
		burst = int(math.Ceil(rps))
	}
	l := &rateLimiter{rate: rps, burst: float64(burst), now: time.Now}
	l.tokens = l.burst
	l.last = l.now()
	return l
}

// admit asks the bucket for n reports: nil when admitted, a
// *RateLimitedError with the time until credit returns otherwise. A nil
// limiter admits everything.
func (l *rateLimiter) admit(n int) error {
	if l == nil || n == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.tokens = math.Min(l.burst, l.tokens+now.Sub(l.last).Seconds()*l.rate)
	l.last = now
	if l.tokens > 0 {
		l.tokens -= float64(n)
		return nil
	}
	// Balance is zero or in debt: the caller must wait for the bucket to
	// cross back above zero.
	wait := time.Duration((-l.tokens/l.rate)*float64(time.Second)) + time.Millisecond
	return &RateLimitedError{RetryAfter: wait}
}

// refund returns the charge for n admitted reports the server then failed
// to ingest (its WAL append failed; nothing was applied).
func (l *rateLimiter) refund(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.tokens = math.Min(l.burst, l.tokens+float64(n))
	l.mu.Unlock()
}

// WithRateLimit caps sustained ingestion at rps reports per second across
// every report endpoint (frequency, mean, top-k rounds), admitting bursts
// of up to burst reports. Refused batches are answered 429 with a
// Retry-After header and are not logged or applied. burst < 1 defaults to
// one second of credit (ceil(rps)). rps <= 0 disables limiting (the
// default).
func WithRateLimit(rps float64, burst int) ServerOption {
	return func(s *Server) {
		if rps <= 0 {
			s.limit = nil
			return
		}
		s.limit = newRateLimiter(rps, burst)
	}
}

// writeIngestError maps an ingestion failure onto its HTTP shape: a rate
// limit refusal is 429 with Retry-After (whole seconds, rounded up), a
// write the tier has no headroom for (see maxTierReports) a 400, and any
// other failure — a WAL append the server could not complete — a 500 the
// client may retry.
func writeIngestError(w http.ResponseWriter, err error) {
	if rl, ok := err.(*RateLimitedError); ok {
		secs := int(math.Ceil(rl.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	if errors.Is(err, errNoHeadroom) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}
