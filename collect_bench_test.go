// Ingestion benchmarks for the collection server: the seed single-report,
// one-request-per-report path versus the batched pipeline, over real
// HTTP on a loopback listener. Wire bodies are pre-perturbed and
// pre-marshalled outside the timer so the numbers isolate server-side
// ingestion (request handling, decode, validation, accumulation), not
// client-side perturbation cost.
//
// `make bench-json` snapshots these numbers (plus the perturbation
// micro-benchmarks) into BENCH_ingest.json.
package mcim_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// Ingestion benchmark shape: a telemetry-sized domain. Sparse wire reports
// carry ~(d+1)/(e^ε₂+1)+1 ≈ 18 set bits each at these parameters.
const (
	benchClasses   = 5
	benchItems     = 64
	benchEps       = 2.0
	benchBatchSize = 512
)

// benchProtocol builds the ptscp protocol at the benchmark shape.
func benchProtocol(b *testing.B) *core.Protocol {
	b.Helper()
	p, err := core.NewProtocol("ptscp", benchClasses, benchItems, benchEps, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchWireBodies pre-marshals nBodies request bodies of batchSize reports
// each (batchSize 1 marshals a bare WireReport, matching POST /report).
func benchWireBodies(b *testing.B, nBodies, batchSize int) [][]byte {
	b.Helper()
	proto := benchProtocol(b)
	enc := proto.Encoder()
	r := xrand.New(42)
	bodies := make([][]byte, nBodies)
	for i := range bodies {
		wires := make([]collect.WireReport, batchSize)
		for j := range wires {
			rep := enc.Encode(core.Pair{Class: r.Intn(benchClasses), Item: r.Intn(benchItems)}, r)
			wires[j] = proto.EncodeReport(rep)
		}
		var (
			blob []byte
			merr error
		)
		if batchSize == 1 {
			blob, merr = json.Marshal(wires[0])
		} else {
			blob, merr = json.Marshal(wires)
		}
		if merr != nil {
			b.Fatal(merr)
		}
		bodies[i] = blob
	}
	return bodies
}

// benchWireBinaryBodies pre-encodes nBodies binary batch frames of
// batchSize reports each — the same report stream benchWireBodies
// marshals as JSON, in the compact wire framing.
func benchWireBinaryBodies(b *testing.B, nBodies, batchSize int) [][]byte {
	b.Helper()
	return binaryBodies(b, benchProtocol(b), benchItems, nBodies, batchSize)
}

// binaryBodies pre-encodes nBodies binary frames of batchSize reports of
// proto, whose item domain is items.
func binaryBodies(b *testing.B, proto *core.Protocol, items, nBodies, batchSize int) [][]byte {
	b.Helper()
	enc := proto.Encoder()
	r := xrand.New(42)
	bodies := make([][]byte, nBodies)
	for i := range bodies {
		wires := make([]collect.WireReport, batchSize)
		for j := range wires {
			rep := enc.Encode(core.Pair{Class: r.Intn(benchClasses), Item: r.Intn(items)}, r)
			wires[j] = proto.EncodeReport(rep)
		}
		frame, err := proto.AppendBinaryBatch(nil, wires)
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = frame
	}
	return bodies
}

// benchServer starts a collection server with the given options on a
// loopback listener.
func benchServer(b *testing.B, opts ...collect.ServerOption) (*collect.Server, *httptest.Server) {
	b.Helper()
	srv, err := collect.NewServer(benchProtocol(b), opts...)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return srv, ts
}

func benchPost(b *testing.B, hc *http.Client, url string, body []byte) {
	b.Helper()
	benchPostType(b, hc, url, "application/json", body)
}

func benchPostType(b *testing.B, hc *http.Client, url, contentType string, body []byte) {
	b.Helper()
	resp, err := hc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %s", resp.Status)
	}
}

// BenchmarkCollectIngest measures sustained server-side ingestion. The
// comparable number across sub-benchmarks is the reports/s metric (ns/op is
// per request, and a batched request carries 512 reports).
//
//	single-mutex:    the seed path — one report per POST /report.
//	batched:         the pipeline path — 512 reports per POST /reports.
//	batched-binary:  the same pipeline fed binary wire frames — pooled body
//	                 buffers, CRC-checked frames, word-packed bit vectors
//	                 applied without materializing reports.
//	batched-binary-wal: the binary pipeline made durable — every frame
//	                 appended to the write-ahead log (interval fsync,
//	                 background compaction) before it is applied.
func BenchmarkCollectIngest(b *testing.B) {
	b.Run("single-mutex", func(b *testing.B) {
		srv, ts := benchServer(b)
		bodies := benchWireBodies(b, 1024, 1)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, hc, ts.URL+"/report", bodies[i%len(bodies)])
		}
		b.StopTimer()
		reportThroughput(b, srv, b.N)
	})
	b.Run("batched", func(b *testing.B) {
		srv, ts := benchServer(b)
		bodies := benchWireBodies(b, 16, benchBatchSize)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, hc, ts.URL+"/reports", bodies[i%len(bodies)])
		}
		b.StopTimer()
		reportThroughput(b, srv, b.N*benchBatchSize)
	})
	b.Run("batched-binary", func(b *testing.B) {
		srv, ts := benchServer(b)
		bodies := benchWireBinaryBodies(b, 16, benchBatchSize)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPostType(b, hc, ts.URL+"/reports", collect.BinaryContentType, bodies[i%len(bodies)])
		}
		b.StopTimer()
		reportThroughput(b, srv, b.N*benchBatchSize)
	})
	b.Run("batched-binary-wal", func(b *testing.B) {
		srv, ts := benchServer(b, collect.WithWAL(b.TempDir()))
		defer srv.Close()
		bodies := benchWireBinaryBodies(b, 16, benchBatchSize)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPostType(b, hc, ts.URL+"/reports", collect.BinaryContentType, bodies[i%len(bodies)])
		}
		b.StopTimer()
		reportThroughput(b, srv, b.N*benchBatchSize)
	})
}

// BenchmarkCollectIngestParallel is the concurrent-writer variant: one
// poster per proc, all into the one tier, so at -cpu 2 and up the requests
// decode and validate in parallel and meet at the lock around the tier's
// aggregate. This is the benchmark that shows what that lock costs — JSON
// batches spend their time in the decode outside it, binary frames are
// nearly all transport and fold — and lock-wait-ns/op is the server's own
// mcim_tier_lock_wait_seconds over the run, per request.
func BenchmarkCollectIngestParallel(b *testing.B) {
	for _, wire := range []struct {
		name, contentType string
		bodies            func(b *testing.B, n, batch int) [][]byte
	}{
		{"json", "application/json", benchWireBodies},
		{"binary", collect.BinaryContentType, benchWireBinaryBodies},
	} {
		b.Run(wire.name, func(b *testing.B) {
			srv, ts := benchServer(b)
			bodies := wire.bodies(b, 16, benchBatchSize)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				hc := ts.Client()
				i := 0
				for pb.Next() {
					benchPostType(b, hc, ts.URL+"/reports", wire.contentType, bodies[i%len(bodies)])
					i++
				}
			})
			b.StopTimer()
			reportThroughput(b, srv, b.N*benchBatchSize)
			wait := srv.Metrics().Histogram("mcim_tier_lock_wait_seconds", "", obs.LatencyBuckets, "tier", "freq")
			b.ReportMetric(wait.Sum()*1e9/float64(b.N), "lock-wait-ns/op")
		})
	}
}

// BenchmarkWriteSize is the report tier's two write paths at the server's
// default ptscp shape, c = 5, d = 1,000 (5,005 cells): the handler driven
// in process with no transport, one poster per proc, with and without a
// WAL. A write whose body is no longer than the cell count (json-1, bin-1,
// bin-16) folds straight into the table under the lock; a longer one
// (bin-512) folds into a pooled delta outside it and only merges under it.
// Run it at -cpu 1,2: lock-wait-ns/op is what a second poster waits.
func BenchmarkWriteSize(b *testing.B) {
	p, err := core.NewProtocol("ptscp", 5, 1000, benchEps, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	bodies := func(b *testing.B, n int, binary bool) [][]byte {
		enc, r := p.Encoder(), xrand.New(7)
		out := make([][]byte, 16)
		for i := range out {
			wires := make([]collect.WireReport, n)
			for j := range wires {
				wires[j] = p.EncodeReport(enc.Encode(core.Pair{Class: r.Intn(5), Item: r.Intn(1000)}, r))
			}
			var err error
			switch {
			case binary:
				out[i], err = p.AppendBinaryBatch(nil, wires)
			case n == 1:
				out[i], err = json.Marshal(wires[0])
			default:
				out[i], err = json.Marshal(wires)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name, path, contentType string
		reports                 int
	}{
		{"json-1", "/report", "application/json", 1},
		{"bin-1", "/reports", collect.BinaryContentType, 1},
		{"bin-16", "/reports", collect.BinaryContentType, 16},
		{"bin-512", "/reports", collect.BinaryContentType, 512},
	} {
		for _, durable := range []bool{false, true} {
			name := tc.name
			if durable {
				name += "-wal"
			}
			b.Run(name, func(b *testing.B) {
				var opts []collect.ServerOption
				if durable {
					opts = append(opts, collect.WithWAL(b.TempDir()))
				}
				srv, err := collect.NewServer(p, opts...)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				h := srv.Handler()
				bodies := bodies(b, tc.reports, tc.contentType == collect.BinaryContentType)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					for i := 0; pb.Next(); i++ {
						req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(bodies[i%len(bodies)]))
						req.Header.Set("Content-Type", tc.contentType)
						rec := httptest.NewRecorder()
						h.ServeHTTP(rec, req)
						if rec.Code != http.StatusOK {
							b.Fatalf("status %d: %s", rec.Code, rec.Body)
						}
					}
				})
				b.StopTimer()
				reportThroughput(b, srv, b.N*tc.reports)
				wait := srv.Metrics().Histogram("mcim_tier_lock_wait_seconds", "", obs.LatencyBuckets, "tier", "freq")
				b.ReportMetric(wait.Sum()*1e9/float64(b.N), "lock-wait-ns/op")
			})
		}
	}
}

// reportThroughput attaches the reports/s metric and sanity-checks that
// every submitted report was ingested.
func reportThroughput(b *testing.B, srv *collect.Server, reports int) {
	b.Helper()
	if got := srv.Reports(); got != reports {
		b.Fatalf("server ingested %d of %d reports", got, reports)
	}
	b.ReportMetric(float64(reports)/b.Elapsed().Seconds(), "reports/s")
}
