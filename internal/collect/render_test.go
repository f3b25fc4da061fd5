package collect

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/xrand"
)

// encodeJSON is what writeJSON would send for v: json.Encoder's bytes, the
// trailing newline included.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// poisonedCodec is the frequency codec with one calibrated cell replaced by
// v before the body is rendered: no count table calibrates to NaN or ±Inf,
// so this is how a test puts one in front of the appender.
type poisonedCodec struct {
	freqCodec
	v float64
}

func (c poisonedCodec) appendEstimates(dst []byte, t *state.Table) ([]byte, error) {
	freq, sizes := c.Calibrate(t)
	freq[0][1] = c.v
	return appendFrequencies(dst, t.N, freq, sizes)
}

// TestEstimatesRenderMatchesEncodingJSON pins the served estimate bodies to
// encoding/json: for every report-tier protocol, GET /estimates (or
// /mean/estimates) must return exactly json.NewEncoder's encoding of the
// same table's Calibrate output. The cache pins compare the cache against
// the uncached render only, so they cannot see the renderer drift from
// encoding/json. A value encoding/json refuses must still answer 500 with
// encoding/json's error.
func TestEstimatesRenderMatchesEncodingJSON(t *testing.T) {
	const classes, items = 3, 64
	forRows(t, protocolRows, func(t *testing.T, row protocolRow) {
		srv := row.server(t, classes, items, 2)
		ts := newHTTPServer(t, srv)
		if _, err := mustNewClient(t, row, ts, 99).submitN(2000); err != nil {
			t.Fatal(err)
		}
		got := getBody(t, ts.Client(), ts.URL+row.route+"/estimates")
		want, err := encodeJSON(row.estimates(srv))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("served body diverges from encoding/json:\n%s\nvs\n%s", got, want)
		}
	})
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run("refuses "+strconv.FormatFloat(v, 'g', -1, 64), func(t *testing.T) {
			srv, ts := newProtoServer(t, "ptscp", classes, items, 2)
			cl, err := NewClient(ts.URL, ts.Client(), 99)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.SubmitBatch(testPairs(classes, items, 100, 7)); err != nil {
				t.Fatal(err)
			}
			poisoned := poisonedCodec{srv.freq.c.(freqCodec), v}
			srv.freq.c = poisoned
			acc := srv.freq.clone()
			freq, sizes := poisoned.Calibrate(&acc)
			freq[0][1] = v
			_, encErr := encodeJSON(WireEstimates{Reports: int(acc.N), Frequencies: freq, ClassSizes: sizes})
			if encErr == nil {
				t.Fatal("encoding/json accepted the poisoned estimates")
			}
			resp, err := ts.Client().Get(ts.URL + "/estimates")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError || string(body) != encErr.Error()+"\n" {
				t.Fatalf("status %d body %q, want 500 and %q", resp.StatusCode, body, encErr.Error()+"\n")
			}
		})
	}
}

// TestBinaryAckMatchesEncodingJSON pins the binary ingest ack to
// encoding/json's encoding of the same WireBatchAck, appended and as
// served, and checks that the served ack declares its length.
func TestBinaryAckMatchesEncodingJSON(t *testing.T) {
	for _, c := range [][2]int{{0, 0}, {1, 1}, {512, 4096}, {4096, 1 << 40}, {math.MaxInt, math.MaxInt}} {
		want, err := encodeJSON(WireBatchAck{Accepted: c[0], Reports: c[1]})
		if err != nil {
			t.Fatal(err)
		}
		if got := appendBinaryAck(nil, c[0], c[1]); !bytes.Equal(got, want) {
			t.Fatalf("ack %v: %q, want %q", c, got, want)
		}
	}

	const classes, items = 3, 16
	srv, ts := newProtoServer(t, "ptscp", classes, items, 2)
	p := srv.Protocol()
	r := xrand.New(3)
	for _, n := range []int{512, 1} {
		wires := make([]WireReport, n)
		for i, pair := range testPairs(classes, items, n, uint64(n)) {
			wires[i] = p.EncodeReport(p.Encoder().Encode(pair, r))
		}
		frame, err := p.AppendBinaryBatch(nil, wires)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Post(ts.URL+"/reports", BinaryContentType, bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want, _ := encodeJSON(WireBatchAck{Accepted: n, Reports: srv.Reports()})
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("status %d ack %q, want 200 and %q", resp.StatusCode, body, want)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("ack declared Content-Length %d, want %d", resp.ContentLength, len(body))
		}
	}
}

// FuzzEstimatesJSON holds the estimate appenders to encoding/json on
// arbitrary float64 bit patterns: data is read eight bytes a value and
// shaped into rows of 1 + width%16 values. Both encoders must produce the
// same bytes, or both must fail with the same error.
func FuzzEstimatesJSON(f *testing.F) {
	seed := func(width uint8, fs ...float64) {
		data := make([]byte, 8*len(fs))
		for i, v := range fs {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(v))
		}
		f.Add(int64(len(fs)), width, data)
	}
	seed(3, 0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308, 2.2250738585072014e-308)
	seed(2, 1e-7, -1e-7, 9.99e-7, 1e-6, -1e-6, 0.1)
	seed(1, 1e21, -1e21, 9.99e20, 1e20, 123456789012345678, math.MaxFloat64, -math.MaxFloat64)
	seed(0, 1, math.NaN())
	seed(4, 1, 2, math.Inf(1), 3)
	seed(15, math.Inf(-1))
	seed(0)
	// Twice as many distinct values as the memo has entries, each written
	// twice: the memo must collide, and a replaced entry must still render.
	repeats := make([]float64, 0, 4<<floatMemoBits)
	for i := 0; i < 2<<floatMemoBits; i++ {
		v := float64(i)/7 - 100
		repeats = append(repeats, v, v)
	}
	seed(255, repeats...)
	f.Fuzz(func(t *testing.T, reports int64, width uint8, data []byte) {
		var values []float64
		for len(data) >= 8 {
			values = append(values, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		var rows [][]float64
		for w, rest := 1+int(width%16), values; len(rest) > 0; rest = rest[min(w, len(rest)):] {
			rows = append(rows, rest[:min(w, len(rest))])
		}
		var sizes []float64
		if len(rows) > 0 {
			sizes = rows[len(rows)-1]
		}
		check := func(what string, got []byte, gotErr error, v any) {
			want, wantErr := encodeJSON(v)
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Fatalf("%s: appender error %v, encoding/json error %v", what, gotErr, wantErr)
			case gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%s: appender error %q, encoding/json error %q", what, gotErr, wantErr)
			case gotErr == nil && !bytes.Equal(got, want):
				t.Fatalf("%s:\n%s\nvs encoding/json\n%s", what, got, want)
			}
		}
		got, err := appendFrequencies(nil, reports, rows, sizes)
		check("frequencies", got, err, WireEstimates{Reports: int(reports), Frequencies: rows, ClassSizes: sizes})
		got, err = appendMeans([]byte("prefix"), reports, values, sizes)
		if err == nil {
			if !bytes.HasPrefix(got, []byte("prefix")) {
				t.Fatalf("appendMeans lost dst's prefix: %q", got)
			}
			got = got[len("prefix"):]
		}
		check("means", got, err, WireMeanEstimates{Reports: int(reports), Means: values, ClassSizes: sizes})
	})
}

// BenchmarkEstimateRender measures an /estimates miss inside the server —
// clone the table, calibrate it, render the body — at query_mixed's shape
// (ptscp, c = 10, d = 2,048, ε = 2) after 32,768 and 262,144 perturbed
// reports, and on a table whose every cell holds a different count, the
// float memo's worst case. distinct_share is the number of different values
// among the body's floats over the number of floats: about the share the
// renderer formats rather than copies.
func BenchmarkEstimateRender(b *testing.B) {
	const classes, items = 10, 2048
	p := mustProtocol(b, "ptscp", classes, items, 2, 0.5)
	srv, err := NewServer(p)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, tab state.Table) {
		srv.freq.swap(tab)
		freq, sizes := p.Calibrate(&tab)
		seen, all := map[uint64]bool{}, append([]float64(nil), sizes...)
		for _, row := range freq {
			all = append(all, row...)
		}
		for _, v := range all {
			seen[math.Float64bits(v)] = true
		}
		b.ReportAllocs()
		for b.Loop() {
			if _, _, err := srv.freq.renderEstimates(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(seen))/float64(len(all)), "distinct_share")
	}
	enc, r := p.Encoder(), xrand.New(1)
	tab := p.NewTable()
	for _, n := range []int64{32768, 262144} {
		for tab.N < n {
			pair := core.Pair{Class: r.Intn(classes), Item: r.Intn(1 + r.Intn(items))}
			p.Fold(&tab, enc.Encode(pair, r))
		}
		b.Run("reports="+strconv.FormatInt(n, 10), func(b *testing.B) { run(b, tab.Clone()) })
	}
	b.Run("all-distinct", func(b *testing.B) {
		distinct := tab.Clone()
		for i := range distinct.Cells {
			distinct.Cells[i] = int64(i)
		}
		run(b, distinct)
	})
}
