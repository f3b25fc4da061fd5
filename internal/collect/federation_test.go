package collect

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/state"
)

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
