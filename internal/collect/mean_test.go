package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/xrand"
)

func mustNumericProtocol(t testing.TB, name string, classes int, eps, split float64) *core.NumericProtocol {
	t.Helper()
	p, err := core.NewNumericProtocol(name, classes, eps, split)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newMeanServer builds a mean-only collection server (nil frequency
// protocol) for the given numeric framework.
func newMeanServer(t testing.TB, name string, classes int, eps, split float64, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := NewServer(nil, append([]ServerOption{WithMean(mustNumericProtocol(t, name, classes, eps, split))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// meanWireStream deterministically encodes n reports for proto, with the
// canonical user index running over the stream.
func meanWireStream(t testing.TB, proto *core.NumericProtocol, n int, seed uint64) []WireMeanReport {
	t.Helper()
	enc, r := proto.Encoder(), xrand.New(seed)
	out := make([]WireMeanReport, n)
	for i := range out {
		v := mean.Value{Class: i % proto.Classes(), X: float64(i%21)/10 - 1}
		out[i] = proto.EncodeMeanReport(enc.Encode(v, i, r))
	}
	return out
}

// TestMergeRoutesBothTiers checks the shared federation endpoint on a
// server hosting both tiers: envelopes land in the tier whose fingerprint
// they carry, and an envelope matching neither is a 409.
func TestMergeRoutesBothTiers(t *testing.T) {
	freq := mustProtocol(t, "ptscp", 2, 6, 2, 0.5)
	srv, err := NewServer(freq, WithMean(mustNumericProtocol(t, "cpmean", 2, 2, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A frequency envelope.
	freqPeer, err := NewServer(mustProtocol(t, "ptscp", 2, 6, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ingestWires(t, freqPeer, wireStream(t, freqPeer.proto, 30, 3), 10)
	freqEnv, err := freqPeer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A mean envelope.
	meanPeer := newMeanServer(t, "cpmean", 2, 2, 0.5)
	ingestTier(t, meanPeer.mean, meanWireStream(t, meanPeer.meanProto, 40, 4), 10)
	meanEnv, err := meanPeer.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}

	// post returns the status and, on a 200, the ack's post-merge total.
	post := func(env []byte) (code, reports int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/merge", "application/octet-stream", bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack WireMergeAck
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, ack.Reports
	}
	if code, reports := post(freqEnv); code != http.StatusOK || reports != 30 {
		t.Fatalf("frequency envelope status %d, ack reports %d (want 200, 30)", code, reports)
	}
	// The ack's total is the tier that took the envelope's, not both tiers'.
	if code, reports := post(meanEnv); code != http.StatusOK || reports != 40 {
		t.Fatalf("mean envelope status %d, ack reports %d (want 200, 40)", code, reports)
	}
	if srv.Reports() != 30 {
		t.Fatalf("frequency tier holds %d reports, want 30", srv.Reports())
	}
	if srv.MeanReports() != 40 {
		t.Fatalf("mean tier holds %d reports, want 40", srv.MeanReports())
	}
	// Wrong-budget mean envelope: valid, just not ours → 409.
	foreign := newMeanServer(t, "cpmean", 2, 1, 0.5)
	ingestTier(t, foreign.mean, meanWireStream(t, foreign.meanProto, 10, 5), 10)
	foreignEnv, err := foreign.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := post(foreignEnv); code != http.StatusConflict {
		t.Fatalf("foreign mean envelope status %d, want 409", code)
	}
	if code, _ := post([]byte("garbage")); code != http.StatusBadRequest {
		t.Fatal("corrupt envelope not a 400")
	}
	// MergeState (the programmatic form mcimedge's re-merge uses) routes
	// identically.
	if _, err := srv.MergeState(foreignEnv); !errors.Is(err, core.ErrIncompatibleState) {
		t.Fatalf("MergeState foreign envelope err=%v, want ErrIncompatibleState", err)
	}
	n, err := srv.MergeState(meanEnv)
	if err != nil || n != 40 {
		t.Fatalf("MergeState mean envelope = %d, %v", n, err)
	}
	if srv.MeanReports() != 80 {
		t.Fatalf("mean tier holds %d reports after re-merge, want 80", srv.MeanReports())
	}
}

// TestMeanEndpointValidation covers the batch machinery reused by the mean
// tier: per-item rejections with itemized errors, the 413 body cap, the
// single-report endpoint, /mean/config and the /stats mean block.
func TestMeanEndpointValidation(t *testing.T) {
	srv := newMeanServer(t, "cpmean", 2, 2, 0.5, WithMaxBodyBytes(1024))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Mixed batch: valid, bad label, bad symbol.
	body := `[{"label":0,"symbol":1},{"label":9,"symbol":0},{"label":1,"symbol":7},{"label":1,"symbol":2}]`
	resp, err := http.Post(ts.URL+"/mean/reports", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack WireBatchAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted != 2 || ack.Rejected != 2 || len(ack.Errors) != 2 {
		t.Fatalf("ack %+v, want 2 accepted / 2 itemized rejections", ack)
	}
	if ack.Errors[0].Index != 1 || ack.Errors[1].Index != 2 {
		t.Fatalf("rejection indices %+v", ack.Errors)
	}

	// NDJSON path.
	resp, err = http.Post(ts.URL+"/mean/reports", NDJSONContentType,
		strings.NewReader("{\"label\":0,\"symbol\":0}\n{\"label\":1,\"symbol\":1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted != 2 || ack.Rejected != 0 {
		t.Fatalf("ndjson ack %+v", ack)
	}

	// Oversized body → 413.
	big := bytes.Repeat([]byte(`{"label":0,"symbol":0} `), 200)
	resp, err = http.Post(ts.URL+"/mean/reports", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413", resp.StatusCode)
	}

	// Single-report endpoint.
	resp, err = http.Post(ts.URL+"/mean/report", "application/json", strings.NewReader(`{"label":1,"symbol":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single report status %d", resp.StatusCode)
	}
	if srv.MeanReports() != 5 {
		t.Fatalf("server holds %d mean reports, want 5", srv.MeanReports())
	}

	// /mean/config and /stats.
	var cfg WireMeanConfig
	resp, err = http.Get(ts.URL + "/mean/config")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cfg.Protocol != "cpmean" || cfg.Classes != 2 || cfg.MaxBodyBytes != 1024 {
		t.Fatalf("config %+v", cfg)
	}
	var st WireStats
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Mean == nil || st.Mean.Reports != 5 || st.Mean.Protocol != "cpmean" {
		t.Fatalf("stats mean block %+v", st.Mean)
	}
	// A mean-only server mounts no frequency endpoints.
	resp, err = http.Get(ts.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/config on a mean-only server: status %d, want 404", resp.StatusCode)
	}
}
