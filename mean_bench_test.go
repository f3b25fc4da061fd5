// Ingestion benchmark for the numeric mean tier, mirroring
// BenchmarkCollectIngest: wire bodies are pre-perturbed and pre-marshalled
// outside the timer, so the numbers isolate server-side ingestion over
// real loopback HTTP. Mean reports are tiny (label + symbol), so this path
// bounds the per-report fixed cost of the batch machinery.
//
// `make bench-json` snapshots these numbers into BENCH_ingest.json.
package mcim_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/xrand"
)

// benchMeanProtocol builds the cpmean protocol at the benchmark shape.
func benchMeanProtocol(b *testing.B) *core.NumericProtocol {
	b.Helper()
	p, err := core.NewNumericProtocol("cpmean", benchClasses, benchEps, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchMeanBodies pre-builds nBodies batch bodies of batchSize mean
// reports each for proto, in the given wire encoding.
func benchMeanBodies(b *testing.B, proto *core.NumericProtocol, nBodies, batchSize int, binary bool) [][]byte {
	b.Helper()
	enc := proto.Encoder()
	r := xrand.New(42)
	bodies := make([][]byte, nBodies)
	user := 0
	for i := range bodies {
		wires := make([]collect.WireMeanReport, batchSize)
		for j := range wires {
			v := mean.Value{Class: r.Intn(proto.Classes()), X: 2*r.Float64() - 1}
			wires[j] = proto.EncodeMeanReport(enc.Encode(v, user, r))
			user++
		}
		var (
			blob []byte
			err  error
		)
		if binary {
			blob, err = proto.AppendBinaryMeanBatch(nil, wires)
		} else {
			blob, err = json.Marshal(wires)
		}
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = blob
	}
	return bodies
}

// BenchmarkMeanIngest measures sustained server-side ingestion of the mean
// tier over POST /mean/reports. The comparable number is the reports/s
// metric. Mean reports are two uvarints on the binary wire, so the binary
// variant runs the batch machinery at maximal report density; it uses a
// larger batch (4096) because compact frames make big batches cheap — that
// is the operating point the format exists for.
func BenchmarkMeanIngest(b *testing.B) {
	run := func(b *testing.B, contentType string, batchSize int, bodies [][]byte) {
		srv, err := collect.NewServer(nil, collect.WithMean(benchMeanProtocol(b)))
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		b.Cleanup(ts.Close)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPostType(b, hc, ts.URL+"/mean/reports", contentType, bodies[i%len(bodies)])
		}
		b.StopTimer()
		if got := srv.MeanReports(); got != b.N*batchSize {
			b.Fatalf("server ingested %d of %d mean reports", got, b.N*batchSize)
		}
		b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "reports/s")
	}
	b.Run("json", func(b *testing.B) {
		run(b, "application/json", benchBatchSize, benchMeanBodies(b, benchMeanProtocol(b), 16, benchBatchSize, false))
	})
	b.Run("binary", func(b *testing.B) {
		const batchSize = 4096
		run(b, collect.BinaryContentType, batchSize, benchMeanBodies(b, benchMeanProtocol(b), 16, batchSize, true))
	})
}
