// Ingestion benchmarks for the interactive mining tier: batched round
// reports posted to a hosted top-k session over real HTTP, once per wire
// format. Reports are pre-perturbed and pre-marshalled (or pre-framed)
// outside the timer, so the numbers isolate server-side round ingestion —
// request handling, decode/validate against the live round, and the fold
// into the round's aggregate — the per-round hot path of a served mining
// session.
//
//	json:    512 topk.RoundReports as a JSON array.
//	binary:  the same 512 reports as one 'T' session frame (word-packed
//	         bit-vectors, absorbed without materializing report structs).
//
// `make bench-json` snapshots both alongside the frequency-ingestion
// numbers into BENCH_ingest.json; the binary lane's allocs/op is a hard
// budget under `make bench-check`.
package mcim_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/topk"
	"repro/internal/xrand"
)

const (
	topkBenchClasses = 5
	topkBenchItems   = 1024
	topkBenchK       = 8
	topkBenchBatch   = 512
)

// topkBenchSession stands up a session-serving server and a PTS session
// whose round-0 quota (an a/2-fraction of users in the global phase)
// dwarfs any realistic b.N × batch, so every request lands in one live
// round, and returns 16 pre-encoded round batches.
func topkBenchSession(b *testing.B) (*httptest.Server, *collect.TopKSession, *topk.RoundConfig, [][]topk.RoundReport) {
	b.Helper()
	proto, err := core.NewProtocol("ptscp", topkBenchClasses, topkBenchItems, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := collect.NewServer(proto, collect.WithTopKSessions(collect.TopKOptions{}))
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	b.Cleanup(hs.Close)
	const users = 1 << 28
	ts, err := collect.NewTopKSession(hs.URL, nil, topk.SessionParams{
		Framework: "pts", Classes: topkBenchClasses, Items: topkBenchItems,
		K: topkBenchK, Eps: 2, Users: users, Seed: 7, Opt: topk.Optimized(),
	})
	if err != nil {
		b.Fatal(err)
	}
	rd, err := ts.Round()
	if err != nil {
		b.Fatal(err)
	}
	if rd.Config.Quota < 1<<24 {
		b.Fatalf("round 0 quota %d too small for a stable benchmark", rd.Config.Quota)
	}
	enc, err := topk.NewRoundEncoder(rd.Config)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(99)
	batches := make([][]topk.RoundReport, 16)
	for i := range batches {
		reps := make([]topk.RoundReport, topkBenchBatch)
		for j := range reps {
			rep, err := enc.Encode(core.Pair{Class: r.Intn(topkBenchClasses), Item: r.Intn(topkBenchItems)}, r)
			if err != nil {
				b.Fatal(err)
			}
			reps[j] = rep
		}
		batches[i] = reps
	}
	return hs, ts, rd.Config, batches
}

// benchTopKPosts drives b.N pre-built request bodies and reports the
// comparable cross-wire number, reports/s (ns/op is per request).
func benchTopKPosts(b *testing.B, hs *httptest.Server, ts *collect.TopKSession, contentType string, bodies [][]byte) {
	hc := hs.Client()
	url := hs.URL + "/topk/sessions/" + ts.ID() + "/reports"
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		benchPostType(b, hc, url, contentType, bodies[i%len(bodies)])
	}
	b.StopTimer()
	elapsed := time.Since(start)
	if elapsed > 0 {
		b.ReportMetric(float64(b.N*topkBenchBatch)/elapsed.Seconds(), "reports/s")
	}
}

func BenchmarkTopKRoundIngest(b *testing.B) {
	b.Run("json", func(b *testing.B) {
		hs, ts, _, batches := topkBenchSession(b)
		bodies := make([][]byte, len(batches))
		for i, reps := range batches {
			var err error
			if bodies[i], err = json.Marshal(reps); err != nil {
				b.Fatal(err)
			}
		}
		benchTopKPosts(b, hs, ts, "application/json", bodies)
	})
	b.Run("binary", func(b *testing.B) {
		hs, ts, cfg, batches := topkBenchSession(b)
		benchTopKPosts(b, hs, ts, collect.BinaryContentType, topkBenchFrames(b, ts, cfg, batches))
	})
}

// topkBenchFrames packs each batch into one 'T' frame addressed to ts.
func topkBenchFrames(b *testing.B, ts *collect.TopKSession, cfg *topk.RoundConfig, batches [][]topk.RoundReport) [][]byte {
	b.Helper()
	layout, err := topk.LayoutOf(cfg)
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, len(batches))
	for i, reps := range batches {
		if bodies[i], err = topk.AppendRoundFrame(nil, ts.ID(), layout, reps); err != nil {
			b.Fatal(err)
		}
	}
	return bodies
}

// BenchmarkTopKRoundIngestParallel is the concurrent variant: every proc
// posts 512-report frames into ONE session, so the frames meet on that
// session's lock. A round offers a server no other parallelism (round t+1's
// candidate space is a function of round t's counts), which makes this the
// number that says what serialising a session's absorbs costs at -cpu 2.
func BenchmarkTopKRoundIngestParallel(b *testing.B) {
	b.Run("binary", func(b *testing.B) {
		hs, ts, cfg, batches := topkBenchSession(b)
		bodies := topkBenchFrames(b, ts, cfg, batches)
		url := hs.URL + "/topk/sessions/" + ts.ID() + "/reports"
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			hc := hs.Client()
			i := 0
			for pb.Next() {
				benchPostType(b, hc, url, collect.BinaryContentType, bodies[i%len(bodies)])
				i++
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N*topkBenchBatch)/b.Elapsed().Seconds(), "reports/s")
	})
}
