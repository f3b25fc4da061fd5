// Command metricslint is the CI gate for the /metrics surface: it builds an
// in-process deployment exercising every metric-producing layer — an
// all-tier durable collection server with edge-push series registered, plus
// a multi-tenant registry — scrapes both expositions, and validates them:
// the text must parse as Prometheus exposition format, every family must
// pass the naming and structure lint (HELP+TYPE present, counters end in
// _total, histograms carry a +Inf bucket with consistent _sum/_count), and
// the catalog of required families must be present. Any problem prints and
// exits non-zero, so a renamed or structurally broken series fails CI at
// registration time — no load generation needed, since every series is
// created (at zero) when its handle is registered.
package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tenant"
)

// requiredFamilies is the stable metric catalog: a build in which any of
// these is missing from the all-tier scrape has silently dropped coverage.
var requiredFamilies = []string{
	"mcim_ingest_reports_total",
	"mcim_ingest_batches_total",
	"mcim_ingest_bytes_total",
	"mcim_ingest_rejected_total",
	"mcim_ingest_latency_seconds",
	"mcim_merge_reports_total",
	"mcim_tier_lock_wait_seconds",
	"mcim_wal_appends_total",
	"mcim_wal_appended_bytes_total",
	"mcim_wal_fsyncs_total",
	"mcim_wal_sync_errors_total",
	"mcim_wal_append_lock_wait_seconds",
	"mcim_wal_segment_rolls_total",
	"mcim_wal_compactions_total",
	"mcim_wal_torn_truncations_total",
	"mcim_wal_replayed_records_total",
	"mcim_wal_replayed_bytes_total",
	"mcim_wal_replay_seconds",
	"mcim_wal_replay_workers",
	"mcim_estimate_cache_requests_total",
	"mcim_estimate_cache_stale_reports",
	"mcim_topk_rounds_advanced_total",
	"mcim_topk_stale_batches_total",
	"mcim_topk_sessions",
	"mcim_topk_open_sessions",
	"mcim_edge_push_total",
	"mcim_edge_drain_reports",
	"mcim_edge_unpushed_reports",
	"mcim_uptime_seconds",
	"mcim_build_info",
}

// requiredRegistryFamilies must additionally appear on the tenant
// registry's roll-up exposition.
var requiredRegistryFamilies = []string{
	"mcim_tenants",
	"mcim_admin_auth_failures_total",
	"mcim_tenant_auth_failures_total",
}

func main() {
	problems := 0
	report := func(surface string, probs []string) {
		for _, p := range probs {
			fmt.Fprintf(os.Stderr, "metricslint: %s: %s\n", surface, p)
		}
		problems += len(probs)
	}

	report("collect", lintCollect())
	report("registry", lintRegistry())

	if problems > 0 {
		fmt.Fprintf(os.Stderr, "metricslint: %d problem(s)\n", problems)
		os.Exit(1)
	}
	fmt.Println("metricslint: ok")
}

// lintCollect scrapes a durable all-tier server (frequency + mean + topk,
// WAL-backed so the wal series register) with the edge-push series on the
// same registry, exactly as cmd/mcimedge runs it.
func lintCollect() []string {
	dir, err := os.MkdirTemp("", "metricslint-*")
	if err != nil {
		return []string{err.Error()}
	}
	defer os.RemoveAll(dir)

	proto, err := core.NewProtocol("ptscp", 3, 64, 2, 0.5)
	if err != nil {
		return []string{err.Error()}
	}
	np, err := core.NewNumericProtocol("cpmean", 3, 2, 0.5)
	if err != nil {
		return []string{err.Error()}
	}
	srv, err := collect.NewServer(proto,
		collect.WithMean(np),
		collect.WithTopKSessions(collect.TopKOptions{}),
		collect.WithWAL(dir),
		collect.WithWALTierLayout(),
	)
	if err != nil {
		return []string{err.Error()}
	}
	defer srv.Close()
	collect.NewEdgeMetrics(srv.Metrics())

	return lintHandler(srv.Handler(), "/metrics", requiredFamilies)
}

// lintRegistry scrapes a multi-tenant registry's roll-up view.
func lintRegistry() []string {
	reg, err := tenant.New(tenant.Options{})
	if err != nil {
		return []string{err.Error()}
	}
	defer reg.Close()
	if err := reg.Create(tenant.Spec{
		Name:  "default",
		Token: "t0k3n",
		Freq:  &tenant.FreqSpec{Protocol: "pts", Classes: 2, Items: 16, Epsilon: 1, Split: 0.5},
	}); err != nil {
		return []string{err.Error()}
	}
	return lintHandler(reg.Handler(), "/metrics", requiredRegistryFamilies)
}

// lintHandler scrapes one exposition through the real HTTP surface and
// returns every problem found.
func lintHandler(h http.Handler, path string, required []string) []string {
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return []string{err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return []string{fmt.Sprintf("GET %s status %s", path, resp.Status)}
	}
	expo, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return []string{"parse: " + err.Error()}
	}
	probs := obs.Lint(expo)
	for _, name := range required {
		if expo.Family(name) == nil {
			probs = append(probs, fmt.Sprintf("required family %s missing", name))
		}
	}
	return probs
}
