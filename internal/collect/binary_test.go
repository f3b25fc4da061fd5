package collect

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// testPairs draws a deterministic skewed population over (c, d).
func testPairs(c, d, n int, seed uint64) []core.Pair {
	r := xrand.New(seed)
	pairs := make([]core.Pair, n)
	for i := range pairs {
		pairs[i] = core.Pair{Class: r.Intn(c), Item: r.Intn(d)}
	}
	return pairs
}

// TestBinaryJSONClientsInterleave checks mixed-wire deployments: JSON and
// binary clients feeding the same server interleaved produce the
// aggregate an all-JSON pair of clients produces — the wire format is
// invisible to the aggregate.
func TestBinaryJSONClientsInterleave(t *testing.T) {
	const (
		c, d  = 2, 65 // straddles a word boundary on the CP bit vector
		n     = 400
		chunk = 50
	)
	pairs := testPairs(c, d, n, 9)
	build := func(t *testing.T, url string, hc *http.Client, binarySecond bool) {
		a, err := NewClient(url, hc, 1)
		if err != nil {
			t.Fatal(err)
		}
		var bOpts []ClientOption
		if binarySecond {
			bOpts = append(bOpts, WithBinary(true))
		}
		b, err := NewClient(url, hc, 2, bOpts...)
		if err != nil {
			t.Fatal(err)
		}
		// Alternate chunks between the two clients: a takes even chunks,
		// b odd ones, so the aggregate sees genuinely interleaved wires.
		for lo := 0; lo < n; lo += chunk {
			cl := a
			if (lo/chunk)%2 == 1 {
				cl = b
			}
			ack, err := cl.SubmitBatch(pairs[lo:min(lo+chunk, n)])
			if err != nil {
				t.Fatal(err)
			}
			if ack.Rejected != 0 {
				t.Fatalf("rejected %d", ack.Rejected)
			}
		}
	}
	_, tsMixed := newProtoServer(t, "ptscp", c, d, 2)
	_, tsJSON := newProtoServer(t, "ptscp", c, d, 2)
	build(t, tsMixed.URL, tsMixed.Client(), true)
	build(t, tsJSON.URL, tsJSON.Client(), false)
	probeMixed, err := NewClient(tsMixed.URL, tsMixed.Client(), 7)
	if err != nil {
		t.Fatal(err)
	}
	probeJSON, err := NewClient(tsJSON.URL, tsJSON.Client(), 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := probeMixed.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	want, err := probeJSON.Estimates()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-wire estimates diverge from all-JSON:\nmixed %+v\njson  %+v", got, want)
	}
}

// TestBinaryEndpointRejectsBadFrames drives the endpoint's all-or-nothing
// contract: truncated and CRC-corrupt frames are 400s naming the problem,
// and nothing from the rejected frame reaches the aggregate — not even the
// records before the corruption point.
func TestBinaryEndpointRejectsBadFrames(t *testing.T) {
	const (
		c, d = 3, 17
		n    = 64
	)
	srv, ts := newProtoServer(t, "ptscp", c, d, 2)
	p := mustProtocol(t, "ptscp", c, d, 2, 0.5)
	enc := p.Encoder()
	r := xrand.New(3)
	wires := make([]WireReport, n)
	for i, pair := range testPairs(c, d, n, 13) {
		wires[i] = p.EncodeReport(enc.Encode(pair, r))
	}
	frame, err := p.AppendBinaryBatch(nil, wires)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) (int, string) {
		resp, err := http.Post(ts.URL+"/reports", BinaryContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}
	truncated := frame[:len(frame)-7]
	if code, msg := post(truncated); code != http.StatusBadRequest {
		t.Fatalf("truncated frame: status %d (%q), want 400", code, msg)
	}
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)/2] ^= 0x01 // payload flip: the CRC must catch it
	if code, msg := post(corrupt); code != http.StatusBadRequest {
		t.Fatalf("corrupt frame: status %d (%q), want 400", code, msg)
	}
	if got := srv.Reports(); got != 0 {
		t.Fatalf("rejected frames leaked %d reports into the aggregate", got)
	}
	if code, msg := post(frame); code != http.StatusOK {
		t.Fatalf("intact frame: status %d (%q)", code, msg)
	}
	if got := srv.Reports(); got != n {
		t.Fatalf("intact frame ingested %d reports, want %d", got, n)
	}
}

// TestWithBinaryRequiresAdvertisement pins backward compatibility: against
// a server whose config does not list "binary" (any server predating the
// wire field), requesting the binary wire is a constructor-time error, not
// a runtime 400.
func TestWithBinaryRequiresAdvertisement(t *testing.T) {
	// A stub speaking the pre-binary config schema: no "wire" field.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /config", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, WireConfig{Protocol: "ptscp", Classes: 2, Items: 8, Epsilon: 2, Split: 0.5})
	})
	mux.HandleFunc("GET /mean/config", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, WireMeanConfig{Protocol: "cpmean", Classes: 2, Epsilon: 2, Split: 0.5})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	if _, err := NewClient(ts.URL, ts.Client(), 1, WithBinary(true)); err == nil {
		t.Fatal("WithBinary accepted a server that does not advertise the binary wire")
	}
	if _, err := NewClient(ts.URL, ts.Client(), 1); err != nil {
		t.Fatalf("JSON client against a pre-binary server: %v", err)
	}
	if _, err := NewMeanClient(ts.URL, ts.Client(), 1, WithBinary(true)); err == nil {
		t.Fatal("WithBinary accepted a server that does not advertise the binary wire")
	}
	if _, err := NewMeanClient(ts.URL, ts.Client(), 1); err != nil {
		t.Fatalf("JSON mean client against a pre-binary server: %v", err)
	}
}
