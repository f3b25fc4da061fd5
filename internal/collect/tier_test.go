package collect

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
)

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// syncBuffer is a log sink safe to read while loggers still hold it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCloseWaitsForBackgroundCompaction: a graceful shutdown that lands
// while the threshold-triggered compaction is in flight must wait for it —
// closing the log under it fails its Roll/Seal with "log is closed" and
// logs a spurious error-level compaction failure — and the directory it
// leaves behind must replay bit-identically.
func TestCloseWaitsForBackgroundCompaction(t *testing.T) {
	const n = 2000
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.newServer(t, 2)
			tc.mustFeed(t, ref, 13, 0, n, 50)

			dir := t.TempDir()
			walOpts := WithWALOptions(wal.Options{Sync: wal.SyncNever, SegmentBytes: 2 << 10})
			var logs syncBuffer
			srv := tc.newServer(t, 2, WithWAL(dir), walOpts, WithCompactAfter(1<<10),
				WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
			// Every 50-report batch logs more than the 1 KiB threshold, so a
			// compaction is (re)started as soon as the previous one finishes:
			// Close lands on one in flight.
			tc.mustFeed(t, srv, 13, 0, n, 50)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			if out := logs.String(); strings.Contains(out, "compaction failed") {
				t.Fatalf("Close raced the background compaction:\n%s", out)
			}

			restarted := tc.newServer(t, 2, WithWAL(dir), walOpts)
			defer restarted.Close()
			if got := tc.reports(restarted); got != n {
				t.Fatalf("recovered %d reports, want %d", got, n)
			}
			if !reflect.DeepEqual(tc.estimates(restarted), tc.estimates(ref)) {
				t.Fatal("reopen after a mid-compaction Close not bit-identical")
			}
		})
	}
}

// TestRateLimitRefundedOnWALFailure: a batch the rate limiter admitted but
// the WAL then refused (500, nothing applied) must get its credit back. With
// the debt-model bucket, one unrefunded 100-report batch against a burst of
// 1 leaves the tenant 99 reports in debt, and the client's own 5xx retry is
// then answered 429 instead of the 500 that names the real fault.
func TestRateLimitRefundedOnWALFailure(t *testing.T) {
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.newServer(t, 2, WithWAL(t.TempDir()), WithRateLimit(1, 1))
			ts := newHTTPServer(t, srv)
			if err := tc.log(srv).Close(); err != nil { // every append now fails
				t.Fatal(err)
			}
			body := tc.stream(t, srv, 100, 3)
			for attempt := 1; attempt <= 2; attempt++ {
				resp, err := http.Post(ts.URL+tc.route+"/reports", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusInternalServerError {
					t.Fatalf("post %d answered %d, want 500 (an unrefunded debit turns the retry into a 429)",
						attempt, resp.StatusCode)
				}
			}
			if got := tc.reports(srv); got != 0 {
				t.Fatalf("%d reports applied past a failed append", got)
			}
		})
	}
}
