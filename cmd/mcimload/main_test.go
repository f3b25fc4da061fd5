package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tenant"
)

const (
	testClasses, testItems = 3, 24
	testUsers              = 600
)

// newTestServer hosts all three tiers over one small domain, behind wrap
// when it is not nil.
func newTestServer(t *testing.T, wrap func(http.Handler) http.Handler) (*collect.Server, *httptest.Server) {
	t.Helper()
	proto, err := core.NewProtocol("ptscp", testClasses, testItems, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	meanProto, err := core.NewNumericProtocol("cpmean", testClasses, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collect.NewServer(proto, collect.WithMean(meanProto), collect.WithTopKSessions(collect.TopKOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return srv, ts
}

// runJSON runs the command in -json mode against url and decodes its summary,
// both as the struct and as the raw object (to see which keys are present).
func runJSON(t *testing.T, url string, args ...string) (summary, map[string]any) {
	t.Helper()
	var stdout bytes.Buffer
	args = append([]string{"-url", url, "-json", "-log-level", "error", "-users", fmt.Sprint(testUsers), "-clients", "3", "-batch", "64", "-k", "4"}, args...)
	if err := run(args, &stdout); err != nil {
		t.Fatalf("mcimload %v: %v", args, err)
	}
	var sum summary
	var keys map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &sum); err != nil {
		t.Fatalf("summary %q: %v", stdout.String(), err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	return sum, keys
}

// ingested reads the server's own count of reports accepted on one tier
// over one wire format.
func ingested(t *testing.T, srv *collect.Server, tier, wire string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	expo, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return int(expo.Samples()[fmt.Sprintf(`mcim_ingest_reports_total{tier=%q,wire=%q}`, tier, wire)])
}

// TestTiers pins what every mode does over both wires: the run succeeds,
// the server holds exactly the population (sent in the format the summary
// names), and the tier's accuracy fields are in the summary — unless the
// server's aggregate already held reports, when its estimates no longer
// describe this run's population alone and the fields must be left out
// instead of reporting a class-size error of ~1.0. A mining session is its
// own aggregate, so top-k is scored on a reused server too.
func TestTiers(t *testing.T) {
	accuracy := map[string][]string{
		"freq": {"rmse", "class_size_rel_err"},
		"mean": {"mean_mae", "class_size_rel_err"},
		"topk": {"ncr", "f1"},
	}
	cases := []struct {
		mode, wire string
		reused     bool // a first run already fed the server
	}{
		{"freq", "json", false}, {"freq", "binary", false},
		{"mean", "json", false}, {"mean", "binary", false},
		{"topk", "json", false}, {"topk", "binary", false},
		{"freq", "json", true}, {"mean", "binary", true}, {"topk", "binary", true},
	}
	for _, tc := range cases {
		name := tc.mode + "/" + tc.wire
		if tc.reused {
			name += "/reused"
		}
		t.Run(name, func(t *testing.T) {
			srv, ts := newTestServer(t, nil)
			want := testUsers
			if tc.reused {
				runJSON(t, ts.URL, "-mode", tc.mode, "-wire", tc.wire)
				want = 2 * testUsers
			}
			sum, keys := runJSON(t, ts.URL, "-mode", tc.mode, "-wire", tc.wire)

			if got := ingested(t, srv, tc.mode, tc.wire); got != want {
				t.Errorf("server ingested %d %s reports over %s, want %d", got, tc.mode, tc.wire, want)
			}
			held := map[string]int{"freq": srv.Reports(), "mean": srv.MeanReports()}
			if n, ok := held[tc.mode]; ok && n != want {
				t.Errorf("server holds %d reports, want %d", n, want)
			}
			if sum.Mode != tc.mode || sum.Wire != tc.wire || sum.Users != testUsers || sum.Clients != 3 || sum.Batch != 64 {
				t.Errorf("summary does not describe the run: %+v", sum)
			}
			if sum.Requests < testUsers/64 || sum.ReportsSec <= 0 || sum.MaxMicros < sum.P50Micros {
				t.Errorf("summary timing: %+v", sum)
			}
			scored := !tc.reused || tc.mode == "topk"
			for mode, fields := range accuracy {
				for _, f := range fields {
					wantKey := scored && mode == tc.mode
					if f == "class_size_rel_err" { // shared by freq and mean
						wantKey = scored && tc.mode != "topk"
					}
					if _, ok := keys[f]; ok != wantKey {
						t.Errorf("%s in the summary = %v, want %v", f, ok, wantKey)
					}
				}
			}
			if tc.mode == "topk" {
				if sum.K != 4 || sum.Rounds < 1 {
					t.Errorf("top-k summary: k=%d rounds=%d", sum.K, sum.Rounds)
				}
				if st := srv.StatsSnapshot(); st.TopK == nil || st.TopK.Sessions != 0 {
					t.Errorf("session left on the server: %+v", st.TopK)
				}
			} else if _, ok := keys["rounds"]; ok || sum.K != 0 {
				t.Errorf("top-k fields in a %s summary: %v", tc.mode, keys)
			}
			for _, gone := range []string{"tenants", "per_tenant", "read_ratio", "queries", "queries_per_sec", "query_p50_us", "query_p99_us", "scrape"} {
				if _, ok := keys[gone]; ok {
					t.Errorf("summary still carries %q", gone)
				}
			}
		})
	}
}

// TestTopKSessionsAreDeleted is the session-leak pin: the server caps
// tracked sessions at collect.DefaultMaxTopKSessions, so a run that leaves
// its session behind makes a later one fail with 429.
func TestTopKSessionsAreDeleted(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for i := 0; i < collect.DefaultMaxTopKSessions+6; i++ {
		var stdout bytes.Buffer
		err := run([]string{"-url", ts.URL, "-mode", "topk", "-wire", "binary", "-users", "200", "-clients", "2", "-k", "2", "-json", "-log-level", "error"}, &stdout)
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
	}
}

// TestTenantTargeting drives one tenant of a registry through -tenant and
// -token, and is refused without the token.
func TestTenantTargeting(t *testing.T) {
	reg, err := tenant.New(tenant.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	err = reg.Create(tenant.Spec{
		Name:  "acme",
		Token: "s3cret",
		Freq:  &tenant.FreqSpec{Protocol: "ptscp", Classes: testClasses, Items: testItems, Epsilon: 4, Split: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()

	sum, _ := runJSON(t, ts.URL, "-tenant", "acme", "-token", "s3cret", "-wire", "binary")
	if got := reg.Tenant("acme").Reports(); got != testUsers || sum.RMSE == nil {
		t.Fatalf("tenant holds %d reports, want %d; summary %+v", got, testUsers, sum)
	}
	var stdout bytes.Buffer
	if err := run([]string{"-url", ts.URL, "-tenant", "acme", "-users", "10", "-log-level", "error"}, &stdout); err == nil {
		t.Fatal("run without the tenant's token succeeded")
	}
	if got := reg.Tenant("acme").Reports(); got != testUsers {
		t.Fatalf("unauthorized run changed the tenant: %d reports", got)
	}
}

// TestRemovedSurfaceRefused: the flags and the mode that benchmark/
// superseded are errors, found before anything is sent.
func TestRemovedSurfaceRefused(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	for _, args := range [][]string{
		{"-ndjson"},
		{"-read-ratio", "0.5"},
		{"-tenants", "2"},
		{"-admin-token", "x"},
		{"-scrape", "1s"},
		{"-mode", "query"},
	} {
		var stdout bytes.Buffer
		err := run(append([]string{"-url", ts.URL, "-users", "10", "-log-level", "error"}, args...), &stdout)
		if err == nil {
			t.Errorf("mcimload %v: accepted", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("mcimload %v printed %q", args, stdout.String())
		}
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("%d requests reached the server", n)
	}
}

// TestFailuresComeBackAsErrors: a request a worker goroutine cannot get
// accepted fails the run with an error naming it — it does not exit the
// process — and a top-k run still deletes its session on the way out.
func TestFailuresComeBackAsErrors(t *testing.T) {
	srv, ts := newTestServer(t, func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/reports") {
				http.Error(w, "refused by the test", http.StatusBadRequest)
				return
			}
			inner.ServeHTTP(w, r)
		})
	})
	for _, mode := range []string{"freq", "mean", "topk"} {
		var stdout bytes.Buffer
		err := run([]string{"-url", ts.URL, "-mode", mode, "-users", "300", "-clients", "3", "-batch", "50", "-log-level", "error"}, &stdout)
		if err == nil || !strings.Contains(err.Error(), "worker") || !strings.Contains(err.Error(), "400") {
			t.Errorf("-mode %s against a refusing server: err = %v", mode, err)
		}
		if strings.Contains(stdout.String(), "accuracy") || strings.Contains(stdout.String(), "quality") {
			t.Errorf("-mode %s scored a failed run: %q", mode, stdout.String())
		}
	}
	if st := srv.StatsSnapshot(); st.TopK.Sessions != 0 {
		t.Errorf("failed top-k run left %d sessions", st.TopK.Sessions)
	}
	if err := run([]string{"-url", "http://127.0.0.1:1", "-users", "10", "-log-level", "error"}, new(bytes.Buffer)); err == nil {
		t.Error("run against a closed port succeeded")
	}
}
