package collect

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// postMixedConcurrently splits wires into chunks and posts them to path from
// several goroutines at once, even chunks as JSON arrays and odd ones as
// binary frames, so the tier's one aggregate is reached in an arbitrary
// order over both wires. Every chunk must be accepted whole.
func postMixedConcurrently[W any](t *testing.T, ts *httptest.Server, path string, wires []W, frame func([]byte, []W) ([]byte, error)) {
	t.Helper()
	const posters, chunk = 8, 125
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := p; k*chunk < len(wires); k += posters {
				part := wires[k*chunk : min((k+1)*chunk, len(wires))]
				body, contentType := mustJSON(t, part), "application/json"
				if k%2 == 1 {
					var err error
					if body, err = frame(nil, part); err != nil {
						t.Error(err)
						return
					}
					contentType = BinaryContentType
				}
				resp, err := ts.Client().Post(ts.URL+path, contentType, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var ack WireBatchAck
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || ack.Accepted != len(part) {
					t.Errorf("chunk %d (%s): status %d, ack %+v, err %v", k, contentType, resp.StatusCode, ack, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// sameCounts fails unless two aggregates marshal to the same bytes — the
// count tables themselves, before any calibration.
func sameCounts(t *testing.T, served, offline interface{ MarshalBinary() ([]byte, error) }) {
	t.Helper()
	got, err := served.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("served counts differ from the offline aggregator's")
	}
}

// TestShardedMatchesSingleAccumulator is the pin under the whole serving
// design (its name predates the single aggregate): whatever order
// concurrent requests reach a tier's aggregate in, over either wire, the
// server holds exactly the counts — and serves exactly the estimates — of
// one offline aggregator fed the same reports in sequence. Every canonical
// frequency framework, then every mean framework.
func TestShardedMatchesSingleAccumulator(t *testing.T) {
	const c, d, n = 3, 12, 4000
	for _, name := range core.ProtocolNames() {
		t.Run(name, func(t *testing.T) {
			srv, ts := newProtoServer(t, name, c, d, 2)
			proto := srv.Protocol()
			wires := wireStream(t, proto, n, 6)
			offline := proto.NewAggregator()
			for _, w := range wires {
				rep, err := proto.DecodeReport(w)
				if err != nil {
					t.Fatal(err)
				}
				offline.Add(rep)
			}
			postMixedConcurrently(t, ts, "/reports", wires, proto.AppendBinaryBatch)
			served := freqAgg(t, srv)
			if served.N() != n {
				t.Fatalf("server holds %d reports, want %d", served.N(), n)
			}
			sameCounts(t, served, offline)
			if !reflect.DeepEqual(served.Estimates(), offline.Estimates()) ||
				!reflect.DeepEqual(served.ClassSizes(), offline.ClassSizes()) {
				t.Fatal("served estimates differ from the offline aggregator's")
			}
		})
	}
	for _, name := range core.NumericProtocolNames() {
		t.Run(name, func(t *testing.T) {
			srv := newMeanServer(t, name, c, 2, 0.5)
			ts := newHTTPServer(t, srv)
			np := srv.MeanProtocol()
			wires := meanWireStream(t, np, n, 6)
			offline := np.NewAggregator()
			for _, w := range wires {
				rep, err := np.DecodeMeanReport(w)
				if err != nil {
					t.Fatal(err)
				}
				offline.Add(rep)
			}
			postMixedConcurrently(t, ts, "/mean/reports", wires, np.AppendBinaryMeanBatch)
			served := meanAgg(t, srv)
			if served.N() != n {
				t.Fatalf("server holds %d reports, want %d", served.N(), n)
			}
			sameCounts(t, served, offline)
			if !reflect.DeepEqual(served.Means(), offline.Means()) ||
				!reflect.DeepEqual(served.ClassSizes(), offline.ClassSizes()) {
				t.Fatal("served means differ from the offline aggregator's")
			}
		})
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
