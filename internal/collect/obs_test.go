package collect

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// scrapeMetrics fetches and parses base/metrics, failing on transport,
// status, content-type or parse problems.
func scrapeMetrics(t *testing.T, hc *http.Client, base string) *obs.Exposition {
	t.Helper()
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /metrics: status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content-type %q, want text/plain exposition", ct)
	}
	expo, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return expo
}

// TestMetricsExpositionGolden pins the exposed metric surface of an
// all-tier durable server (with the edge-push series registered alongside,
// as cmd/mcimedge runs): the exposition must parse, pass the strict lint,
// and expose exactly the golden family → type catalogue — a rename, a type
// change, or a silently dropped family fails here before it breaks
// dashboards.
func TestMetricsExpositionGolden(t *testing.T) {
	proto, err := core.NewProtocol("ptscp", 3, 32, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	np, err := core.NewNumericProtocol("cpmean", 3, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(proto,
		WithMean(np),
		WithTopKSessions(TopKOptions{}),
		WithWAL(t.TempDir()),
		WithWALTierLayout(),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	NewEdgeMetrics(srv.Metrics())
	ts := newHTTPServer(t, srv)

	expo := scrapeMetrics(t, ts.Client(), ts.URL)
	if probs := obs.Lint(expo); len(probs) > 0 {
		t.Fatalf("lint problems:\n%s", strings.Join(probs, "\n"))
	}

	golden := map[string]string{
		"mcim_ingest_reports_total":          "counter",
		"mcim_ingest_batches_total":          "counter",
		"mcim_ingest_bytes_total":            "counter",
		"mcim_ingest_rejected_total":         "counter",
		"mcim_ingest_latency_seconds":        "histogram",
		"mcim_merge_reports_total":           "counter",
		"mcim_tier_lock_wait_seconds":        "histogram",
		"mcim_tier_logged_records_total":     "counter",
		"mcim_wal_appends_total":             "counter",
		"mcim_wal_appended_bytes_total":      "counter",
		"mcim_wal_fsyncs_total":              "counter",
		"mcim_wal_sync_errors_total":         "counter",
		"mcim_wal_append_lock_wait_seconds":  "histogram",
		"mcim_wal_segment_rolls_total":       "counter",
		"mcim_wal_compactions_total":         "counter",
		"mcim_wal_torn_truncations_total":    "counter",
		"mcim_wal_torn_bytes_total":          "counter",
		"mcim_wal_replayed_records_total":    "counter",
		"mcim_wal_replayed_bytes_total":      "counter",
		"mcim_wal_replay_seconds":            "gauge",
		"mcim_estimate_cache_requests_total": "counter",
		"mcim_topk_rounds_advanced_total":    "counter",
		"mcim_topk_stale_batches_total":      "counter",
		"mcim_topk_sessions":                 "gauge",
		"mcim_topk_open_sessions":            "gauge",
		"mcim_edge_push_total":               "counter",
		"mcim_edge_drain_reports":            "histogram",
		"mcim_edge_unpushed_reports":         "gauge",
		"mcim_uptime_seconds":                "gauge",
		"mcim_build_info":                    "gauge",
	}
	for name, wantType := range golden {
		f := expo.Family(name)
		if f == nil {
			t.Errorf("family %s missing from exposition", name)
			continue
		}
		if f.Type != wantType {
			t.Errorf("family %s has type %s, want %s", name, f.Type, wantType)
		}
	}
	for _, f := range expo.Families {
		if _, ok := golden[f.Name]; !ok {
			t.Errorf("family %s exposed but not in the golden catalogue — add it here, to cmd/metricslint and to the README", f.Name)
		}
	}
}

// TestMetricsMatchStatsUnderLoad is the counting-discipline pin: after a
// concurrent hammer over every ingest wire (JSON and binary, frequency and
// mean tiers), the /metrics ingest counters must equal the /stats report
// totals exactly — not approximately — because both count in the HTTP
// handlers and nowhere else. Run under -race in CI, it also doubles as the
// data-race check on every hot-path handle.
func TestMetricsMatchStatsUnderLoad(t *testing.T) {
	const (
		classes, items = 3, 32
		workers        = 4
		batches        = 5
		perBatch       = 40
	)
	proto, err := core.NewProtocol("ptscp", classes, items, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	np, err := core.NewNumericProtocol("cpmean", classes, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(proto, WithMean(np))
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)

	var wg sync.WaitGroup
	errc := make(chan error, 2*workers)
	for w := 0; w < workers; w++ {
		binary := w%2 == 1
		wg.Add(2)
		go func(seed uint64, binary bool) {
			defer wg.Done()
			cl, err := NewClient(ts.URL, ts.Client(), seed, WithBinary(binary))
			if err != nil {
				errc <- err
				return
			}
			for b := 0; b < batches; b++ {
				pairs := testPairs(classes, items, perBatch, seed+uint64(b))
				if _, err := cl.SubmitBatch(pairs); err != nil {
					errc <- err
					return
				}
			}
		}(uint64(w+1), binary)
		go func(seed uint64, binary bool) {
			defer wg.Done()
			cl, err := NewMeanClient(ts.URL, ts.Client(), seed, WithBinary(binary))
			if err != nil {
				errc <- err
				return
			}
			r := xrand.New(seed)
			for b := 0; b < batches; b++ {
				values := make([]mean.Value, perBatch)
				for i := range values {
					values[i] = mean.Value{Class: r.Intn(classes), X: 2*r.Float64() - 1}
				}
				if _, err := cl.SubmitBatch(0, values); err != nil {
					errc <- err
					return
				}
			}
		}(uint64(100+w), binary)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// One deliberately malformed body per tier ticks the decode counters
	// (a truncated array fails the envelope decode, not per-item checks).
	for _, path := range []string{"/reports", "/mean/reports"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(`[{"label": 0,`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s garbage: status %d, want 400", path, resp.StatusCode)
		}
	}

	samples := scrapeMetrics(t, ts.Client(), ts.URL).Samples()
	var stats WireStats
	fetchStats(t, ts.Client(), ts.URL+"/stats", &stats)

	freqReports := samples[`mcim_ingest_reports_total{tier="freq",wire="json"}`] +
		samples[`mcim_ingest_reports_total{tier="freq",wire="binary"}`]
	if int(freqReports) != stats.Reports {
		t.Errorf("freq ingest counters %v != /stats reports %d", freqReports, stats.Reports)
	}
	if want := workers * batches * perBatch; stats.Reports != want {
		t.Errorf("/stats reports %d, want %d", stats.Reports, want)
	}
	meanReports := samples[`mcim_ingest_reports_total{tier="mean",wire="json"}`] +
		samples[`mcim_ingest_reports_total{tier="mean",wire="binary"}`]
	if stats.Mean == nil {
		t.Fatal("/stats has no mean tier")
	}
	if int(meanReports) != stats.Mean.Reports {
		t.Errorf("mean ingest counters %v != /stats mean reports %d", meanReports, stats.Mean.Reports)
	}
	// Both wires saw traffic on both tiers.
	for _, key := range []string{
		`mcim_ingest_reports_total{tier="freq",wire="json"}`,
		`mcim_ingest_reports_total{tier="freq",wire="binary"}`,
		`mcim_ingest_reports_total{tier="mean",wire="json"}`,
		`mcim_ingest_reports_total{tier="mean",wire="binary"}`,
	} {
		if samples[key] == 0 {
			t.Errorf("series %s is zero after the hammer", key)
		}
	}
	// Batch counters agree with the latency histogram: both count batch
	// requests in the same handlers.
	for _, tier := range []string{"freq", "mean"} {
		batchSum := samples[`mcim_ingest_batches_total{tier="`+tier+`",wire="json"}`] +
			samples[`mcim_ingest_batches_total{tier="`+tier+`",wire="binary"}`]
		latCount := samples[`mcim_ingest_latency_seconds_count{tier="`+tier+`"}`]
		if batchSum != latCount {
			t.Errorf("%s batches %v != latency observations %v", tier, batchSum, latCount)
		}
		// Every accepted batch took the aggregate's lock exactly once.
		if lw := samples[`mcim_tier_lock_wait_seconds_count{tier="`+tier+`"}`]; lw != batchSum {
			t.Errorf("%s lock-wait observations %v != batches %v", tier, lw, batchSum)
		}
	}
	for _, tier := range []string{"freq", "mean"} {
		if got := samples[`mcim_ingest_rejected_total{tier="`+tier+`",reason="decode"}`]; got != 1 {
			t.Errorf("%s decode rejections %v, want exactly 1", tier, got)
		}
	}
}

// TestTierLockWaitExcludesReplay: the lock-wait histogram observes served
// writes, one per batch, and WAL replay — which folds through the same lock —
// leaves it at zero, like the tier's ingest counters.
func TestTierLockWaitExcludesReplay(t *testing.T) {
	const n, batch = 600, 50
	dir := t.TempDir()
	proto := mustProtocol(t, "ptscp", 3, 10, 2, 0.5)
	srv, err := NewServer(proto, WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	ingestWires(t, srv, wireStream(t, proto, n, 5), batch)
	if got := srv.freq.lockWait.Count(); got != n/batch {
		t.Fatalf("%d lock-wait observations after %d batches", got, n/batch)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewServer(proto, WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if restarted.Reports() != n {
		t.Fatalf("recovered %d reports, want %d", restarted.Reports(), n)
	}
	if got := restarted.freq.lockWait.Count(); got != 0 {
		t.Fatalf("replay left %d lock-wait observations, want 0", got)
	}
}

// fetchStats decodes one JSON GET into out.
func fetchStats(t *testing.T, hc *http.Client, url string, out any) {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
