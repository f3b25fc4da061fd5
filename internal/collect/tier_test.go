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
	"time"

	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/wal"
)

// tierCase puts one report tier behind closures, so every tier-contract
// test — durability, compaction, concurrency, the buffered client's failure
// handling — is written once and runs through both codecs of the shared
// engine (tier.go) and the shared batch client (client.go).
type tierCase struct {
	name   string
	walSub string // the tier's log directory under WithWAL's dir (default layout)
	route  string // endpoint prefix: "" or "/mean"

	// newServer builds a server hosting only this tier, over a report domain
	// that grows with size (labels for both tiers, items too for freq).
	newServer func(t testing.TB, size int, opts ...ServerOption) *Server
	// stream is the tier's deterministic wire stream of n reports as a JSON
	// array (for raw posts); feed pushes reports [from, to) of the same
	// stream through the tier's ingest path in chunks of batch.
	stream func(t testing.TB, srv *Server, n int, seed uint64) []byte
	feed   func(t testing.TB, srv *Server, seed uint64, from, to, batch int) error

	reports   func(*Server) int
	estimates func(*Server) any // calibrated output of the merged aggregate
	compact   func(*Server) error
	snapshot  func(*Server) ([]byte, error)
	log       func(*Server) *wal.Log

	newClient func(url string, hc *http.Client, seed uint64, opts ...ClientOption) (tierClient, error)
}

// tierClient is the slice of Client / MeanClient the client-contract tests
// drive; bufferNth and submitN perturb a deterministic in-domain datum per
// index.
type tierClient interface {
	Flush() error
	Pending() int
	bufferNth(i int) error
	submitN(n int) (*WireBatchAck, error)
	// retarget re-points the client at another server (a misconfigured
	// client); setSleep replaces the retry backoff's sleep.
	retarget(url string)
	setSleep(func(time.Duration))
}

type freqTestClient struct{ *Client }

func (c freqTestClient) pair(i int) core.Pair {
	return core.Pair{Class: i % c.proto.Classes(), Item: i % c.proto.Items()}
}
func (c freqTestClient) bufferNth(i int) error { return c.Buffer(c.pair(i)) }
func (c freqTestClient) submitN(n int) (*WireBatchAck, error) {
	pairs := make([]core.Pair, n)
	for i := range pairs {
		pairs[i] = c.pair(i)
	}
	return c.SubmitBatch(pairs)
}
func (c freqTestClient) retarget(url string)            { c.base = url }
func (c freqTestClient) setSleep(f func(time.Duration)) { c.sleep = f }

type meanTestClient struct{ *MeanClient }

func (c meanTestClient) value(i int) mean.Value {
	return mean.Value{Class: i % c.proto.Classes(), X: float64(i%21)/10 - 1}
}
func (c meanTestClient) bufferNth(i int) error { return c.Buffer(i, c.value(i)) }
func (c meanTestClient) submitN(n int) (*WireBatchAck, error) {
	vs := make([]mean.Value, n)
	for i := range vs {
		vs[i] = c.value(i)
	}
	return c.SubmitBatch(0, vs)
}
func (c meanTestClient) retarget(url string)            { c.base = url }
func (c meanTestClient) setSleep(f func(time.Duration)) { c.sleep = f }

// tierCases is both instantiations of the report-tier engine.
var tierCases = []tierCase{
	{
		name: "freq", walSub: "", route: "",
		newServer: func(t testing.TB, size int, opts ...ServerOption) *Server {
			t.Helper()
			srv, err := NewServer(mustProtocol(t, "ptscp", size, 4*size, 2, 0.5), opts...)
			if err != nil {
				t.Fatal(err)
			}
			return srv
		},
		stream: func(t testing.TB, srv *Server, n int, seed uint64) []byte {
			return mustJSON(t, wireStream(t, srv.proto, n, seed))
		},
		feed: func(t testing.TB, srv *Server, seed uint64, from, to, batch int) error {
			return feedTier(srv.freq, wireStream(t, srv.proto, to, seed)[from:], batch)
		},
		reports: (*Server).Reports,
		estimates: func(srv *Server) any {
			acc := srv.freq.clone()
			freq, sizes := srv.proto.Calibrate(&acc)
			return []any{freq, sizes}
		},
		compact:  (*Server).Compact,
		snapshot: (*Server).Snapshot,
		log:      func(srv *Server) *wal.Log { return srv.freq.log },
		newClient: func(url string, hc *http.Client, seed uint64, opts ...ClientOption) (tierClient, error) {
			c, err := NewClient(url, hc, seed, opts...)
			return freqTestClient{c}, err
		},
	},
	{
		name: "mean", walSub: "mean", route: "/mean",
		newServer: func(t testing.TB, size int, opts ...ServerOption) *Server {
			t.Helper()
			return newMeanServer(t, "cpmean", size, 2, 0.5, opts...)
		},
		stream: func(t testing.TB, srv *Server, n int, seed uint64) []byte {
			return mustJSON(t, meanWireStream(t, srv.meanProto, n, seed))
		},
		feed: func(t testing.TB, srv *Server, seed uint64, from, to, batch int) error {
			return feedTier(srv.mean, meanWireStream(t, srv.meanProto, to, seed)[from:], batch)
		},
		reports: (*Server).MeanReports,
		estimates: func(srv *Server) any {
			acc := srv.mean.clone()
			means, sizes := srv.meanProto.Calibrate(&acc)
			return []any{means, sizes}
		},
		compact:  (*Server).CompactMean,
		snapshot: (*Server).SnapshotMean,
		log:      func(srv *Server) *wal.Log { return srv.mean.log },
		newClient: func(url string, hc *http.Client, seed uint64, opts ...ClientOption) (tierClient, error) {
			c, err := NewMeanClient(url, hc, seed, opts...)
			return meanTestClient{c}, err
		},
	},
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// mustFeed is tc.feed on the test goroutine.
func (tc tierCase) mustFeed(t testing.TB, srv *Server, seed uint64, from, to, batch int) {
	t.Helper()
	if err := tc.feed(t, srv, seed, from, to, batch); err != nil {
		t.Fatal(err)
	}
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
