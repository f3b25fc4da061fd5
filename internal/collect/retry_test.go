package collect

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// flakyHandler wraps a real server handler, answering the first fail
// submissions with the given status before letting traffic through.
type flakyHandler struct {
	inner    http.Handler
	status   int
	failures atomic.Int32
	fail     int32
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	submission := strings.HasSuffix(r.URL.Path, "/report") || strings.HasSuffix(r.URL.Path, "/reports")
	if submission && f.failures.Add(1) <= f.fail {
		http.Error(w, "synthetic outage", f.status)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// retryClient builds one tier's client against url with instant (recorded)
// sleeps.
func retryClient(t *testing.T, tc tierCase, url string, delays *[]time.Duration, opts ...ClientOption) tierClient {
	t.Helper()
	client, err := tc.newClient(url, nil, 7, opts...)
	if err != nil {
		t.Fatal(err)
	}
	client.setSleep(func(d time.Duration) { *delays = append(*delays, d) })
	return client
}

// TestClientRetries5xx checks the retry policy of both report clients:
// transient 5xx responses are absorbed by capped exponential backoff
// (branching on StatusCode), and the reports land exactly once.
func TestClientRetries5xx(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.newServer(t, 2)
			flaky := &flakyHandler{inner: srv.Handler(), status: http.StatusServiceUnavailable, fail: 3}
			ts := httptest.NewServer(flaky)
			defer ts.Close()

			var delays []time.Duration
			client := retryClient(t, tc, ts.URL, &delays, WithRetry(3, 10*time.Millisecond))
			if _, err := client.submitN(2); err != nil {
				t.Fatalf("batch through flaky server: %v", err)
			}
			if _, err := client.submitN(1); err != nil {
				t.Fatalf("second batch after outage: %v", err)
			}
			if got := tc.reports(srv); got != 3 {
				t.Fatalf("server holds %d reports, want 3 (no loss, no double-count)", got)
			}
			// Three 503s → three backoff sleeps, doubling from the base.
			want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
			if !reflect.DeepEqual(delays, want) {
				t.Fatalf("backoff sleeps %v, want %v", delays, want)
			}
		})
	}
}

// TestClientRetryGivesUp checks that a persistent outage surfaces as the
// 5xx statusError (StatusCode-visible) after the configured retries, and
// that the buffered-flush path keeps the chunk for a later retry.
func TestClientRetryGivesUp(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.newServer(t, 2)
			flaky := &flakyHandler{inner: srv.Handler(), status: http.StatusInternalServerError, fail: 1 << 30}
			ts := httptest.NewServer(flaky)
			defer ts.Close()

			var delays []time.Duration
			client := retryClient(t, tc, ts.URL, &delays, WithRetry(2, time.Millisecond))
			if err := client.bufferNth(0); err != nil {
				t.Fatal(err)
			}
			err := client.Flush()
			if err == nil {
				t.Fatal("flush through a dead server succeeded")
			}
			if code, ok := StatusCode(err); !ok || code != http.StatusInternalServerError {
				t.Fatalf("StatusCode(%v) = %d,%v; want 500,true", err, code, ok)
			}
			if len(delays) != 2 {
				t.Fatalf("retried %d times, want 2", len(delays))
			}
			if client.Pending() != 1 {
				t.Fatalf("chunk left the buffer on a 5xx (pending=%d)", client.Pending())
			}
		})
	}
}

// TestClientRetryBackoffCap checks the exponential delay stops doubling at
// 16× the base.
func TestClientRetryBackoffCap(t *testing.T) {
	srv, err := NewServer(mustProtocol(t, "ptscp", 2, 6, 3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyHandler{inner: srv.Handler(), status: http.StatusBadGateway, fail: 1 << 30}
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	var delays []time.Duration
	client := retryClient(t, tierCases[0], ts.URL, &delays, WithRetry(8, time.Millisecond)).(freqTestClient)
	if err := client.Submit(core.Pair{Class: 0, Item: 0}); err == nil {
		t.Fatal("submit through a dead server succeeded")
	}
	if len(delays) != 8 {
		t.Fatalf("retried %d times, want 8", len(delays))
	}
	max := delays[len(delays)-1]
	if max != maxRetryDelayFactor*time.Millisecond {
		t.Fatalf("final backoff %v, want cap %v", max, maxRetryDelayFactor*time.Millisecond)
	}
}

// TestClientDoesNotRetry4xx: client-side errors are never retried — the
// request must be fixed, not repeated.
func TestClientDoesNotRetry4xx(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.newServer(t, 2, WithMaxBodyBytes(64))
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			var delays []time.Duration
			client := retryClient(t, tc, ts.URL, &delays, WithRetry(5, time.Millisecond))
			_, err := client.submitN(50)
			if err == nil {
				t.Fatal("oversized batch accepted")
			}
			if code, ok := StatusCode(err); !ok || code != http.StatusRequestEntityTooLarge {
				t.Fatalf("StatusCode = %d,%v; want 413", code, ok)
			}
			if len(delays) != 0 {
				t.Fatalf("client slept %d times on a 413", len(delays))
			}
		})
	}
}
