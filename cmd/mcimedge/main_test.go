package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/xrand"
)

const freqReports, meanReports = 300, 200

// newServer is a collection server hosting both report tiers (ptscp and
// cpmean over three classes) at budget eps.
func newServer(t *testing.T, eps float64) *collect.Server {
	t.Helper()
	p, err := core.NewProtocol("ptscp", 3, 8, eps, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	np, err := core.NewNumericProtocol("cpmean", 3, eps, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := collect.NewServer(p, collect.WithMean(np))
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// postJSON posts v to srv's path in process.
func postJSON(t *testing.T, srv *collect.Server, path string, v any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body)
	}
}

// newEdge is an edge holding freqReports and meanReports reports, with a
// pusher aimed at upstream.
func newEdge(t *testing.T, upstream string) (*collect.Server, *pusher) {
	t.Helper()
	edge := newServer(t, 2)
	p, np, r := edge.Protocol(), edge.MeanProtocol(), xrand.New(1)
	wires := make([]collect.WireReport, freqReports)
	for i := range wires {
		wires[i] = p.EncodeReport(p.Encoder().Encode(core.Pair{Class: i % 3, Item: i % 8}, r))
	}
	postJSON(t, edge, "/reports", wires)
	meanWires := make([]collect.WireMeanReport, meanReports)
	for i := range meanWires {
		meanWires[i] = np.EncodeMeanReport(np.Encoder().Encode(mean.Value{Class: i % 3, X: 0.5}, i, r))
	}
	postJSON(t, edge, "/mean/reports", meanWires)
	return edge, &pusher{srv: edge, upstream: upstream, hc: http.DefaultClient,
		metrics: collect.NewEdgeMetrics(edge.Metrics())}
}

// TestPushVerdicts drives one push of both tiers per upstream verdict: an
// ingested push empties the edge into the root, a 5xx merges the drained
// envelopes back so the edge still holds every report, and a 409 drops them
// and counts a permanent refusal per tier.
func TestPushVerdicts(t *testing.T) {
	t.Run("200 ingested", func(t *testing.T) {
		root := newServer(t, 2)
		ts := httptest.NewServer(root.Handler())
		defer ts.Close()
		edge, p := newEdge(t, ts.URL)
		p.push()
		if edge.Reports() != 0 || edge.MeanReports() != 0 || p.unpushed != 0 {
			t.Fatalf("edge holds %d+%d reports after an ingested push", edge.Reports(), edge.MeanReports())
		}
		if root.Reports() != freqReports || root.MeanReports() != meanReports {
			t.Fatalf("root holds %d+%d reports, want %d+%d", root.Reports(), root.MeanReports(), freqReports, meanReports)
		}
		if got := p.metrics.PushOK.Value(); got != 2 {
			t.Fatalf("%d ok pushes counted, want 2", got)
		}
	})
	t.Run("503 held for retry", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
		}))
		defer ts.Close()
		edge, p := newEdge(t, ts.URL)
		p.push()
		if edge.Reports() != freqReports || edge.MeanReports() != meanReports || p.unpushed != freqReports+meanReports {
			t.Fatalf("edge holds %d+%d reports after a 503, want all %d+%d back", edge.Reports(), edge.MeanReports(), freqReports, meanReports)
		}
		if got := p.metrics.PushRetriable.Value(); got != 2 {
			t.Fatalf("%d retriable pushes counted, want 2", got)
		}
	})
	t.Run("409 dropped", func(t *testing.T) {
		root := newServer(t, 1) // another budget: neither envelope is the root's
		ts := httptest.NewServer(root.Handler())
		defer ts.Close()
		edge, p := newEdge(t, ts.URL)
		p.push()
		if edge.Reports() != 0 || edge.MeanReports() != 0 || root.Reports() != 0 || root.MeanReports() != 0 {
			t.Fatalf("after a 409 the edge holds %d+%d and the root %d+%d reports, want none",
				edge.Reports(), edge.MeanReports(), root.Reports(), root.MeanReports())
		}
		if got := p.metrics.PushPermanent.Value(); got != 2 {
			t.Fatalf("%d permanent refusals counted, want 2", got)
		}
	})
}
