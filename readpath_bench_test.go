// Read-path and recovery benchmarks: GET /estimates with the versioned
// estimate cache on, off, and under concurrent ingest, and startup WAL
// replay sequential versus parallel. Like the ingestion benchmarks these
// run over real HTTP on a loopback listener; `make bench-json` snapshots
// them into BENCH_ingest.json (informational — new benchmarks gate only
// once a baseline holds them).
package mcim_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collect"
	"repro/internal/wal"
)

// benchGet fetches url and drains the body, failing on any non-200.
func benchGet(b *testing.B, hc *http.Client, url string) {
	b.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %s", resp.Status)
	}
}

// benchPreload posts batches reports into the server so the estimate body
// is non-trivial.
func benchPreload(b *testing.B, ts *httptest.Server, batches int) {
	b.Helper()
	bodies := benchWireBinaryBodies(b, batches, benchBatchSize)
	hc := ts.Client()
	for _, body := range bodies {
		benchPostType(b, hc, ts.URL+"/reports", collect.BinaryContentType, body)
	}
}

// BenchmarkEstimateRead measures GET /estimates — the poll every dashboard
// and mining loop sits in.
//
//	uncached:            every read clones the aggregate and re-renders
//	                     (WithEstimateCacheDisabled — the pre-cache path).
//	cached:              quiescent server; after the first render every
//	                     read is a version-checked replay of cached bytes.
//	cached-under-ingest: one background writer streams binary batches
//	                     while the reads poll — hits between writes,
//	                     recomputes only when the version moved.
func BenchmarkEstimateRead(b *testing.B) {
	const preloadBatches = 8
	b.Run("uncached", func(b *testing.B) {
		_, ts := benchServer(b, collect.WithEstimateCacheDisabled())
		benchPreload(b, ts, preloadBatches)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, hc, ts.URL+"/estimates")
		}
	})
	b.Run("cached", func(b *testing.B) {
		_, ts := benchServer(b)
		benchPreload(b, ts, preloadBatches)
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, hc, ts.URL+"/estimates")
		}
	})
	b.Run("cached-under-ingest", func(b *testing.B) {
		_, ts := benchServer(b)
		benchPreload(b, ts, preloadBatches)
		bodies := benchWireBinaryBodies(b, 16, benchBatchSize)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			hc := ts.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					benchPostType(b, hc, ts.URL+"/reports", collect.BinaryContentType, bodies[i%len(bodies)])
				}
			}
		}()
		hc := ts.Client()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, hc, ts.URL+"/estimates")
		}
		b.StopTimer()
		close(stop)
		<-done
	})
}

// BenchmarkWALReplay measures startup recovery: one multi-segment log of
// binary batch records is built once, then each iteration opens a fresh
// copy of it cold — NewServer replays snapshot + tail into the aggregate —
// and verifies the recovered report count. Each open seals one more
// (empty) active segment into the directory it runs on, so iterations
// replay a per-iteration clone rather than mutating the shared fixture and
// skewing the iterations after it. Replay is sequential; the sub-benchmark
// keeps its name so its BENCH_ingest.json row still compares.
func BenchmarkWALReplay(b *testing.B) {
	const fixtureBatches = 64
	fixtureDir := b.TempDir()
	walOpts := collect.WithWALOptions(wal.Options{Sync: wal.SyncNever, SegmentBytes: 64 << 10})
	srv, err := collect.NewServer(benchProtocol(b),
		collect.WithWAL(fixtureDir), walOpts, collect.WithCompactAfter(1<<40))
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	benchPreload(b, ts, fixtureBatches)
	ts.Close()
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	const want = fixtureBatches * benchBatchSize

	// The fixture files, held in memory so a per-iteration clone is two
	// writes per file instead of a disk-to-disk copy.
	fixture := map[string][]byte{}
	ents, err := os.ReadDir(fixtureDir)
	if err != nil {
		b.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(fixtureDir, ent.Name()))
		if err != nil {
			b.Fatal(err)
		}
		fixture[ent.Name()] = data
	}
	cloneFixture := func(b *testing.B) string {
		b.Helper()
		dir := b.TempDir()
		for name, data := range fixture {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		return dir
	}

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := cloneFixture(b)
			b.StartTimer()
			srv, err := collect.NewServer(benchProtocol(b),
				collect.WithWAL(dir), walOpts, collect.WithCompactAfter(1<<40))
			if err != nil {
				b.Fatal(err)
			}
			if got := srv.Reports(); got != want {
				b.Fatalf("replay recovered %d of %d reports", got, want)
			}
			b.StopTimer()
			if err := srv.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}
