package collect

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/state"
)

// TestFederatedMergeEqualsCentralized pins acceptance criterion (c): for
// every framework, E edge collectors ingesting disjoint slices of a report
// stream and pushing their drained state through the root's POST /merge
// produce estimates bit-identical to one centralized server ingesting the
// whole stream itself.
func TestFederatedMergeEqualsCentralized(t *testing.T) {
	const c, d, n, edges = 3, 10, 1500, 4
	for _, name := range snapshotFrameworks {
		t.Run(name, func(t *testing.T) {
			proto := mustProtocol(t, name, c, d, 2, 0.5)
			wires := wireStream(t, proto, n, 29)

			central, err := NewServer(mustProtocol(t, name, c, d, 2, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			ingestWires(t, central, wires, 64)

			root, err := NewServer(mustProtocol(t, name, c, d, 2, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(root.Handler())
			defer ts.Close()

			// Deal the stream round-robin over the edges, then push each
			// edge's drained aggregate upstream over HTTP.
			for e := 0; e < edges; e++ {
				edge, err := NewServer(mustProtocol(t, name, c, d, 2, 0.5))
				if err != nil {
					t.Fatal(err)
				}
				var slice []WireReport
				for i := e; i < n; i += edges {
					slice = append(slice, wires[i])
				}
				ingestWires(t, edge, slice, 64)
				env, _, err := edge.Drain()
				if err != nil {
					t.Fatal(err)
				}
				if edge.Reports() != 0 {
					t.Fatalf("edge %d holds %d reports after drain", e, edge.Reports())
				}
				resp, err := http.Post(ts.URL+"/merge", "application/octet-stream", bytes.NewReader(env))
				if err != nil {
					t.Fatal(err)
				}
				var ack WireMergeAck
				if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("edge %d push status %d", e, resp.StatusCode)
				}
				if ack.Merged != len(slice) {
					t.Fatalf("edge %d merged %d reports, want %d", e, ack.Merged, len(slice))
				}
			}

			if root.Reports() != n {
				t.Fatalf("root holds %d reports, want %d", root.Reports(), n)
			}
			rootAgg, centralAgg := freqAgg(t, root), freqAgg(t, central)
			if !reflect.DeepEqual(rootAgg.Estimates(), centralAgg.Estimates()) {
				t.Fatal("federated estimates not bit-identical to centralized ingestion")
			}
			if !reflect.DeepEqual(rootAgg.ClassSizes(), centralAgg.ClassSizes()) {
				t.Fatal("federated class sizes not bit-identical to centralized ingestion")
			}
		})
	}
}

// TestMergeEndpointRejects checks the /merge failure modes: a fingerprint
// mismatch is a 409 (the envelope is valid, just not ours), corrupt bytes
// are a 400, and neither touches the aggregate.
func TestMergeEndpointRejects(t *testing.T) {
	root, ts := newTestServer(t, 2, 6, 3)
	defer ts.Close()

	// An envelope from a different round (other ε) of the same framework.
	foreign, err := NewServer(mustProtocol(t, "ptscp", 2, 6, 1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ingestWires(t, foreign, wireStream(t, foreign.proto, 10, 2), 10)
	env, err := foreign.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		body []byte
		want int
	}{
		"fingerprint mismatch": {env, http.StatusConflict},
		"corrupt envelope":     {[]byte("garbage"), http.StatusBadRequest},
		"empty body":           {nil, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/merge", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
	if root.Reports() != 0 {
		t.Fatalf("rejected merges changed the aggregate (%d reports)", root.Reports())
	}

	// A compatible envelope still merges over the same endpoint.
	peer, err := NewServer(mustProtocol(t, "ptscp", 2, 6, 3, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ingestWires(t, peer, wireStream(t, peer.proto, 25, 3), 10)
	good, err := peer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/merge", "application/octet-stream", bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compatible merge status %d", resp.StatusCode)
	}
	if root.Reports() != 25 {
		t.Fatalf("root reports %d after merge, want 25", root.Reports())
	}
}

// TestMergeRefusesEnvelopeWithoutHeadroom: an envelope that would take a
// tier past maxTierReports is refused with a 400 before the WAL sees it.
// Logged, it would fail Table.Merge's overflow check on every replay, and
// the server could never restart from its directory.
func TestMergeRefusesEnvelopeWithoutHeadroom(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		t.Helper()
		srv, err := NewServer(mustProtocol(t, "ptscp", 2, 6, 2, 0.5), WithWAL(dir))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	env, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fp, payload, err := state.Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := state.DecodeTable(payload)
	if err != nil {
		t.Fatal(err)
	}
	// 2⁶² reports, all routed to label 0 with no item bit kept: a valid table.
	tab.N, tab.Cells[0] = 1<<62, 1<<62
	blob, _ := tab.MarshalBinary()
	huge := state.Encode(fp, blob)
	if rec := serve(srv, "POST", "/merge", huge); rec.Code != http.StatusOK {
		t.Fatalf("first 2⁶²-report envelope answered %d: %s", rec.Code, rec.Body)
	}
	logged := srv.freq.log.BytesSinceSeal()
	if rec := serve(srv, "POST", "/merge", huge); rec.Code/100 != 4 {
		t.Fatalf("second 2⁶²-report envelope answered %d, want a 4xx", rec.Code)
	}
	if got := srv.freq.log.BytesSinceSeal(); got != logged {
		t.Fatalf("the refused envelope reached the WAL (%d → %d bytes)", logged, got)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := open()
	defer reopened.Close()
	if got := reopened.Reports(); got != 1<<62 {
		t.Fatalf("reopened server holds %d reports, want 2⁶²", got)
	}
}

// zeroReader is an endless body of zero bytes.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestMergeOverCapAnswers413: a /merge body one byte over the endpoint's
// fixed cap is answered 413 and merges nothing. The body is streamed to the
// handler in process; the server still buffers up to the cap, so -short
// skips it.
func TestMergeOverCapAnswers413(t *testing.T) {
	if testing.Short() {
		t.Skip("buffers DefaultMergeMaxBodyBytes")
	}
	root, ts := newTestServer(t, 2, 6, 3)
	ts.Close()
	ingestWires(t, root, wireStream(t, root.proto, 5, 4), 5)
	req := httptest.NewRequest(http.MethodPost, "/merge", io.LimitReader(zeroReader{}, DefaultMergeMaxBodyBytes+1))
	rec := httptest.NewRecorder()
	root.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap merge answered %d, want 413", rec.Code)
	}
	if root.Reports() != 5 {
		t.Fatalf("over-cap merge changed the aggregate (%d reports, want 5)", root.Reports())
	}
}

// TestDrainPushFailureRemerge documents the edge collector's retry loop:
// when an upstream push fails, MergeState folds the drained envelope back
// in, and the next drain carries those reports again — nothing is lost or
// double-counted.
func TestDrainPushFailureRemerge(t *testing.T) {
	edge, err := NewServer(mustProtocol(t, "pts", 2, 6, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	wires := wireStream(t, edge.proto, 40, 4)
	ingestWires(t, edge, wires[:30], 10)
	env, _, err := edge.Drain()
	if err != nil {
		t.Fatal(err)
	}
	// "Push failed": put it back, ingest more, drain again.
	if _, err := edge.MergeState(env); err != nil {
		t.Fatal(err)
	}
	ingestWires(t, edge, wires[30:], 10)
	if edge.Reports() != 40 {
		t.Fatalf("edge reports %d, want 40", edge.Reports())
	}
	reEnv, _, err := edge.Drain()
	if err != nil {
		t.Fatal(err)
	}
	retaken := mustOpen(t, edge.proto.UnmarshalAggregator, reEnv)
	if retaken.N() != 40 {
		t.Fatalf("second drain carries %d reports, want all 40", retaken.N())
	}

	// The retried aggregate equals direct ingestion of the same stream.
	direct, err := NewServer(mustProtocol(t, "pts", 2, 6, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ingestWires(t, direct, wires, 10)
	if !reflect.DeepEqual(retaken.Estimates(), freqAgg(t, direct).Estimates()) {
		t.Fatal("re-merged drain not bit-identical to direct ingestion")
	}
}
