package collect

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// mustProtocol builds a canonical protocol or fails the test.
func mustProtocol(t testing.TB, name string, c, d int, eps, split float64) *core.Protocol {
	t.Helper()
	p, err := core.NewProtocol(name, c, d, eps, split)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newProtoServer starts a collection server for the named protocol over
// httptest.
func newProtoServer(t *testing.T, name string, c, d int, eps float64, opts ...ServerOption) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(mustProtocol(t, name, c, d, eps, 0.5), opts...)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// newTestServer starts a ptscp collection server, the historical default.
func newTestServer(t *testing.T, c, d int, eps float64) (*Server, *httptest.Server) {
	t.Helper()
	return newProtoServer(t, "ptscp", c, d, eps)
}

func TestEndToEndRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, 2, 6, 4)
	client, err := NewClient(ts.URL, ts.Client(), 99)
	if err != nil {
		t.Fatal(err)
	}
	// 3000 users: class 0 concentrated on item 1, class 1 on item 4.
	r := xrand.New(7)
	const n = 3000
	for i := 0; i < n; i++ {
		pair := core.Pair{Class: 0, Item: 1}
		if r.Bernoulli(0.4) {
			pair = core.Pair{Class: 1, Item: 4}
		}
		if err := client.Submit(pair); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Reports() != n {
		t.Fatalf("server saw %d reports", srv.Reports())
	}
	est, err := client.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	if est.Reports != n {
		t.Fatalf("estimates report count %d", est.Reports)
	}
	// The dominant cells should be recovered within coarse noise bounds.
	if math.Abs(est.Frequencies[0][1]-1800) > 600 {
		t.Fatalf("f(0,1) estimate %v want ≈1800", est.Frequencies[0][1])
	}
	if math.Abs(est.Frequencies[1][4]-1200) > 600 {
		t.Fatalf("f(1,4) estimate %v want ≈1200", est.Frequencies[1][4])
	}
	// Off cells near zero.
	if math.Abs(est.Frequencies[0][5]) > 500 {
		t.Fatalf("f(0,5) estimate %v want ≈0", est.Frequencies[0][5])
	}
	if math.Abs(est.ClassSizes[0]-1800) > 400 {
		t.Fatalf("class 0 size %v want ≈1800", est.ClassSizes[0])
	}
}

func TestServerRejectsBadReports(t *testing.T) {
	_, ts := newTestServer(t, 2, 4, 1)
	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/report", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"label": 5, "bits": []}`); code != http.StatusBadRequest {
		t.Fatalf("bad label accepted: %d", code)
	}
	if code := post(`{"label": 0, "bits": [99]}`); code != http.StatusBadRequest {
		t.Fatalf("bad bit accepted: %d", code)
	}
	if code := post(`{not json`); code != http.StatusBadRequest {
		t.Fatalf("bad json accepted: %d", code)
	}
	if code := post(`{"label": 0, "bits": [0, 4]}`); code != http.StatusOK {
		t.Fatalf("valid report rejected: %d", code)
	}
}

func TestServerConfigEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 3, 10, 2)
	client, err := NewClient(ts.URL, ts.Client(), 1)
	if err != nil {
		t.Fatal(err)
	}
	p := client.Protocol()
	if p.Name() != "ptscp" {
		t.Fatalf("client protocol %q", p.Name())
	}
	if p.Classes() != 3 || p.Items() != 10 {
		t.Fatalf("client configured c=%d d=%d", p.Classes(), p.Items())
	}
	if math.Abs(p.Epsilon()-2) > 1e-12 {
		t.Fatalf("client epsilon %v", p.Epsilon())
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, 2, 4, 1)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestStats(t *testing.T) {
	_, ts := newProtoServer(t, "ptj", 2, 4, 1)
	client, err := NewClient(ts.URL, ts.Client(), 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := client.Submit(core.Pair{Class: i % 2, Item: i % 4}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Protocol != "ptj" {
		t.Fatalf("stats protocol %q, want ptj", st.Protocol)
	}
	if st.Reports != 7 {
		t.Fatalf("stats reports %d, want 7", st.Reports)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("nil protocol accepted")
	}
	if _, err := core.NewProtocol("ptscp", 0, 4, 1, 0.5); err == nil {
		t.Fatal("zero classes accepted")
	}
	if _, err := core.NewProtocol("ptscp", 2, 4, 0, 0.5); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestClientAgainstDownServer(t *testing.T) {
	if _, err := NewClient("http://127.0.0.1:1", nil, 1); err == nil {
		t.Fatal("client connected to nothing")
	}
}

// TestWireSparsity documents the wire-format advantage: at ε=4 a report
// over 1000 items carries ~19 set bits, not 1001.
func TestWireSparsity(t *testing.T) {
	cp, err := core.NewCP(2, 1000, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(11)
	total := 0
	const n = 200
	for i := 0; i < n; i++ {
		rep := cp.Perturb(core.Pair{Class: 0, Item: 5}, r)
		total += len(rep.Bits.Ones())
	}
	mean := float64(total) / n
	// Expected ≈ (d+1)·q₂ + 1 ≈ 1001/(e²+1) + 0.5 ≈ 120 at ε₂=2.
	if mean < 60 || mean > 220 {
		t.Fatalf("mean set bits %v outside expected sparse range", mean)
	}
}
