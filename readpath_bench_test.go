// Read-path and recovery benchmarks: GET /estimates with the versioned
// estimate cache on, off, and under concurrent ingest, and startup WAL
// replay of one-byte and of two-byte deltas. Like the ingestion benchmarks
// these run over real HTTP on a loopback listener; `make bench-json`
// snapshots them into BENCH_ingest.json (informational — new benchmarks
// gate only once a baseline holds them).
package mcim_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/collect"
	"repro/internal/core"
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

// BenchmarkWALReplay measures startup recovery on a log of recover_wal's
// shape: ptscp at c = 5, d = 1,000, 524,288 reports, so replay — not
// NewServer's fixed set-up — is most of an open. The log is built once per
// sub-benchmark; each iteration then opens a fresh copy of it cold —
// NewServer replays snapshot + tail into the aggregate — and verifies the
// recovered report count. Each open seals one more (empty) active segment
// into the directory it runs on, so every iteration replays the fixture
// rewritten into the same directory rather than the directory the last one
// left. Replay is sequential. Both fixtures log every frame as its sealed
// delta: a 512-report frame's cells are one byte each, so replay sums them
// in 16-bit lanes, and a 2,048-report frame's route counts are two bytes,
// so replay adds them one table at a time. ns/record is the open's time
// over the records it replays. No sub-benchmark name ends in -<digits>,
// which benchsnap would read as a GOMAXPROCS suffix.
func BenchmarkWALReplay(b *testing.B) {
	for _, fx := range []struct {
		name          string
		frame, frames int
	}{{"sequential", benchBatchSize, 1024}, {"sequential-frame=2048", 2048, 256}} {
		var fixture map[string][]byte
		b.Run(fx.name, func(b *testing.B) {
			if fixture == nil {
				fixture = walReplayFixture(b, fx.frame, fx.frames)
			}
			benchWALReplay(b, fixture, fx.frame*fx.frames, fx.frames)
		})
	}
}

// walReplayProtocol is recover_wal's protocol: the process-to-process
// workloads' frequency shape, wider than the in-process benchmarks' d = 64.
func walReplayProtocol(b *testing.B) *core.Protocol {
	b.Helper()
	p, err := core.NewProtocol("ptscp", benchClasses, 1000, benchEps, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// walReplayOpts are the options a replay fixture is written and opened
// with: no fsync, and no compaction, so every frame stays in the log.
func walReplayOpts(dir string) []collect.ServerOption {
	return []collect.ServerOption{collect.WithWAL(dir),
		collect.WithWALOptions(wal.Options{Sync: wal.SyncNever}), collect.WithCompactAfter(1 << 40)}
}

// walReplayFixture posts frames frames of frame reports each — sixteen
// distinct frames, round robin, as recover_wal does — into a durable
// server and returns its log's files.
func walReplayFixture(b *testing.B, frame, frames int) map[string][]byte {
	b.Helper()
	dir := b.TempDir()
	p := walReplayProtocol(b)
	srv, err := collect.NewServer(p, walReplayOpts(dir)...)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	hc := ts.Client()
	bodies := binaryBodies(b, p, 1000, 16, frame)
	for i := 0; i < frames; i++ {
		benchPostType(b, hc, ts.URL+"/reports", collect.BinaryContentType, bodies[i%len(bodies)])
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		b.Fatal(err)
	}
	// Held in memory, so a per-iteration copy is one write per file instead
	// of a disk-to-disk copy.
	fixture := map[string][]byte{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			b.Fatal(err)
		}
		fixture[ent.Name()] = data
	}
	return fixture
}

// benchWALReplay times opening the fixture's log of records records, want
// reports in all.
func benchWALReplay(b *testing.B, fixture map[string][]byte, want, records int) {
	p := walReplayProtocol(b)
	dir := b.TempDir()
	rewrite := func() {
		ents, err := os.ReadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, ent := range ents {
			if err := os.Remove(filepath.Join(dir, ent.Name())); err != nil {
				b.Fatal(err)
			}
		}
		for name, data := range fixture {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rewrite()
		b.StartTimer()
		srv, err := collect.NewServer(p, walReplayOpts(dir)...)
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
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
