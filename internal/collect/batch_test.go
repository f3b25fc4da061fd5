package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// newHTTPServer exposes an already-constructed Server over httptest.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postBatchRaw posts a raw batch body and decodes the acknowledgement.
func postBatchRaw(t *testing.T, url, contentType, body string) (*WireBatchAck, int) {
	t.Helper()
	resp, err := http.Post(url+"/reports", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var ack WireBatchAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return &ack, resp.StatusCode
}

// postNDJSON perturbs pairs with c and posts them to c's server as a
// hand-built NDJSON stream — a shape the server parses and no client option
// produces. It reports failures as errors so worker goroutines can call it.
func postNDJSON(hc *http.Client, c *Client, pairs []core.Pair) (*WireBatchAck, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, p := range pairs {
		if err := enc.Encode(c.perturb(p)); err != nil {
			return nil, err
		}
	}
	resp, err := hc.Post(c.base+"/reports", NDJSONContentType, &body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("ndjson batch status %s", resp.Status)
	}
	var ack WireBatchAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

func TestBatchEndpointHappyPath(t *testing.T) {
	srv, ts := newTestServer(t, 2, 6, 4)
	client, err := NewClient(ts.URL, ts.Client(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]core.Pair, 500)
	r := xrand.New(8)
	for i := range pairs {
		pairs[i] = core.Pair{Class: r.Intn(2), Item: r.Intn(6)}
	}
	ack, err := client.SubmitBatch(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 500 || ack.Rejected != 0 {
		t.Fatalf("ack %+v, want 500 accepted", ack)
	}
	if ack.Reports != 500 {
		t.Fatalf("ack total %d, want 500", ack.Reports)
	}
	if srv.Reports() != 500 {
		t.Fatalf("server saw %d reports", srv.Reports())
	}
}

func TestBatchEndpointNDJSON(t *testing.T) {
	srv, ts := newTestServer(t, 2, 6, 4)
	client, err := NewClient(ts.URL, ts.Client(), 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]core.Pair, 200)
	for i := range pairs {
		pairs[i] = core.Pair{Class: i % 2, Item: i % 6}
	}
	ack, err := postNDJSON(ts.Client(), client, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 200 || ack.Rejected != 0 {
		t.Fatalf("ack %+v, want 200 accepted", ack)
	}
	if srv.Reports() != 200 {
		t.Fatalf("server saw %d reports", srv.Reports())
	}
}

func TestBatchEndpointInvalidMidBatch(t *testing.T) {
	srv, ts := newTestServer(t, 2, 4, 1)
	// Items 1 and 3 are invalid: label out of range, bit out of range. The
	// valid items around them must still be ingested, each rejection
	// attributed to its batch index.
	body := `[
		{"label": 0, "bits": [0]},
		{"label": 9, "bits": [0]},
		{"label": 1, "bits": [2]},
		{"label": 1, "bits": [99]},
		{"label": 1, "bits": [4]}
	]`
	ack, code := postBatchRaw(t, ts.URL, "application/json", body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ack.Accepted != 3 || ack.Rejected != 2 {
		t.Fatalf("ack %+v, want 3 accepted 2 rejected", ack)
	}
	if len(ack.Errors) != 2 || ack.Errors[0].Index != 1 || ack.Errors[1].Index != 3 {
		t.Fatalf("errors %+v, want indices 1 and 3", ack.Errors)
	}
	if srv.Reports() != 3 {
		t.Fatalf("server saw %d reports, want 3", srv.Reports())
	}
}

func TestBatchEndpointNDJSONMalformedRecord(t *testing.T) {
	srv, ts := newTestServer(t, 2, 4, 1)
	// A malformed record truncates the stream: the record before it lands,
	// the records at and after it do not.
	body := `{"label": 0, "bits": [0]}
{"label": oops}
{"label": 1, "bits": [1]}
`
	ack, code := postBatchRaw(t, ts.URL, NDJSONContentType, body)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Rejected covers the malformed record AND the dropped tail record, so
	// accepted+rejected accounts for all 3 submitted records.
	if ack.Accepted != 1 || ack.Rejected != 2 {
		t.Fatalf("ack %+v, want 1 accepted 2 rejected", ack)
	}
	if len(ack.Errors) != 1 || ack.Errors[0].Index != 1 {
		t.Fatalf("errors %+v, want one error at index 1", ack.Errors)
	}
	if srv.Reports() != 1 {
		t.Fatalf("server saw %d reports, want 1", srv.Reports())
	}
}

func TestBatchEndpointMalformedEnvelope(t *testing.T) {
	_, ts := newTestServer(t, 2, 4, 1)
	if _, code := postBatchRaw(t, ts.URL, "application/json", `[{"label": 0,`); code != http.StatusBadRequest {
		t.Fatalf("truncated array status %d, want 400", code)
	}
	if _, code := postBatchRaw(t, ts.URL, "application/json", ``); code != http.StatusBadRequest {
		t.Fatalf("empty body status %d, want 400", code)
	}
}

func TestBatchEndpointOversizedBody(t *testing.T) {
	srv, err := NewServer(mustProtocol(t, "ptscp", 2, 4, 1, 0.5), WithMaxBodyBytes(256))
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	var big bytes.Buffer
	big.WriteByte('[')
	for i := 0; i < 100; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `{"label": 0, "bits": [0, 2]}`)
	}
	big.WriteByte(']')
	if _, code := postBatchRaw(t, ts.URL, "application/json", big.String()); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413", code)
	}
	// A batch under the cap still lands.
	if _, code := postBatchRaw(t, ts.URL, "application/json", `[{"label": 0, "bits": [0]}]`); code != http.StatusOK {
		t.Fatalf("small batch status %d, want 200", code)
	}
	if srv.Reports() != 1 {
		t.Fatalf("server saw %d reports, want 1", srv.Reports())
	}
}

func TestBatchEndpointErrorListCapped(t *testing.T) {
	_, ts := newTestServer(t, 2, 4, 1)
	var body bytes.Buffer
	body.WriteByte('[')
	for i := 0; i < maxBatchErrors+10; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"label": 99, "bits": []}`)
	}
	body.WriteByte(']')
	ack, code := postBatchRaw(t, ts.URL, "application/json", body.String())
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ack.Rejected != maxBatchErrors+10 {
		t.Fatalf("rejected %d, want %d", ack.Rejected, maxBatchErrors+10)
	}
	if len(ack.Errors) != maxBatchErrors || !ack.ErrorsTruncated {
		t.Fatalf("errors len %d truncated %v, want capped list", len(ack.Errors), ack.ErrorsTruncated)
	}
}

func TestBufferedClientFlush(t *testing.T) {
	srv, ts := newTestServer(t, 2, 6, 2)
	client, err := NewClient(ts.URL, ts.Client(), 4, WithBatchSize(64))
	if err != nil {
		t.Fatal(err)
	}
	const n = 150 // 2 auto-flushes of 64 plus a 22-report remainder
	r := xrand.New(2)
	for i := 0; i < n; i++ {
		if err := client.Buffer(core.Pair{Class: r.Intn(2), Item: r.Intn(6)}); err != nil {
			t.Fatal(err)
		}
	}
	if client.Pending() != n-2*64 {
		t.Fatalf("pending %d, want %d", client.Pending(), n-2*64)
	}
	if srv.Reports() != 2*64 {
		t.Fatalf("pre-flush server total %d, want %d", srv.Reports(), 2*64)
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if client.Pending() != 0 {
		t.Fatalf("post-flush pending %d", client.Pending())
	}
	if srv.Reports() != n {
		t.Fatalf("server total %d, want %d", srv.Reports(), n)
	}
	// Idempotent on empty buffer.
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentBatchIngest hammers the batch ingestion path from many
// goroutines; run with -race. Nothing may be lost or double-counted,
// and the estimates must stay well-formed.
func TestConcurrentBatchIngest(t *testing.T) {
	srv, err := NewServer(mustProtocol(t, "ptscp", 3, 16, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	const (
		workers   = 16
		batches   = 10
		batchSize = 50
		wantTotal = workers * batches * batchSize
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := NewClient(ts.URL, ts.Client(), uint64(w+1))
			if err != nil {
				errs <- err
				return
			}
			r := xrand.New(uint64(100 + w))
			for b := 0; b < batches; b++ {
				pairs := make([]core.Pair, batchSize)
				for i := range pairs {
					pairs[i] = core.Pair{Class: r.Intn(3), Item: r.Intn(16)}
				}
				// Even workers stream NDJSON, odd ones post JSON arrays.
				submit := client.SubmitBatch
				if w%2 == 0 {
					submit = func(pairs []core.Pair) (*WireBatchAck, error) { return postNDJSON(ts.Client(), client, pairs) }
				}
				ack, err := submit(pairs)
				if err != nil {
					errs <- err
					return
				}
				if ack.Rejected != 0 {
					errs <- fmt.Errorf("worker %d: %d rejected", w, ack.Rejected)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.Reports(); got != wantTotal {
		t.Fatalf("server saw %d reports, want %d", got, wantTotal)
	}
	acc := freqAgg(t, srv)
	total := 0.0
	for _, sz := range acc.ClassSizes() {
		total += sz
	}
	// Class-size estimates are unbiased and sum (up to calibration noise)
	// to the population.
	if math.Abs(total-wantTotal) > 0.35*wantTotal {
		t.Fatalf("summed class sizes %v far from %d", total, wantTotal)
	}
}
