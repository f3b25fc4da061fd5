package collect

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// getBody fetches one URL and returns the raw response body — raw, because
// the cache contract under test is byte identity, not structural equality.
func getBody(t *testing.T, hc *http.Client, url string) []byte {
	t.Helper()
	resp, err := hc.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// TestEstimateBodiesDeclareLength pins the framing of an estimates response
// over a real listener: the body is rendered before the first byte is sent,
// so it goes out under a Content-Length and not chunked — on the miss that
// renders it, on the hit that replays it and with the cache off. The body is
// kept well over net/http's 2 KB sniff buffer, below which the server would
// have declared the length by itself.
func TestEstimateBodiesDeclareLength(t *testing.T) {
	const classes, items = 3, 512
	for _, opts := range [][]ServerOption{nil, {WithEstimateCacheDisabled()}} {
		proto, err := core.NewProtocol("ptscp", classes, items, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(proto, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ts := newHTTPServer(t, srv)
		cl, err := NewClient(ts.URL, ts.Client(), 99)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.SubmitBatch(testPairs(classes, items, 300, 7)); err != nil {
			t.Fatal(err)
		}
		for _, read := range []string{"miss", "hit"} {
			resp, err := ts.Client().Get(ts.URL + "/estimates")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(body) <= 4096 {
				t.Fatalf("%s: body of %d bytes is too small to tell the framings apart", read, len(body))
			}
			if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
				t.Fatalf("%s (opts %d): Transfer-Encoding %v, Content-Length %d, want none and %d",
					read, len(opts), resp.TransferEncoding, resp.ContentLength, len(body))
			}
		}
		if len(opts) == 0 {
			if hits := srv.freq.cache.m.hit.Value(); hits != 1 {
				t.Fatalf("second read recorded %d cache hits, want 1", hits)
			}
		}
	}
}

// TestEstimateCacheStaleness exercises the WithEstimateCache staleness
// bound: within maxStaleReports the old body is replayed verbatim; past it
// the cache must re-render.
func TestEstimateCacheStaleness(t *testing.T) {
	const classes, items = 3, 32
	proto, err := core.NewProtocol("ptscp", classes, items, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(proto, WithEstimateCache(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, srv)
	cl, err := NewClient(ts.URL, ts.Client(), 99)
	if err != nil {
		t.Fatal(err)
	}
	pairs := testPairs(classes, items, 230, 7)
	if _, err := cl.SubmitBatch(pairs[:200]); err != nil {
		t.Fatal(err)
	}
	rendered := getBody(t, ts.Client(), ts.URL+"/estimates")

	// 5 more reports: within the 10-report staleness budget, so the old
	// body is served unchanged.
	if _, err := cl.SubmitBatch(pairs[200:205]); err != nil {
		t.Fatal(err)
	}
	stale := getBody(t, ts.Client(), ts.URL+"/estimates")
	if !bytes.Equal(stale, rendered) {
		t.Fatal("read within the staleness budget did not replay the cached body")
	}
	if n := srv.freq.cache.m.staleHit.Value(); n < 1 {
		t.Fatalf("stale read recorded %d stale hits, want >= 1", n)
	}

	// 25 more: past the budget — the next read must re-render and reflect
	// every ingested report.
	if _, err := cl.SubmitBatch(pairs[205:230]); err != nil {
		t.Fatal(err)
	}
	fresh := getBody(t, ts.Client(), ts.URL+"/estimates")
	var est WireEstimates
	if err := json.Unmarshal(fresh, &est); err != nil {
		t.Fatal(err)
	}
	if est.Reports != 230 {
		t.Fatalf("re-rendered body reports %d, want 230", est.Reports)
	}
}

// TestEstimateReadsUnderConcurrentIngest is the read-path race hammer: both
// tiers ingest from concurrent writers while readers poll the cached
// estimate endpoints and /stats, and a churn goroutine drains and re-merges
// whole generations (the gen-bump transitions the cache versioning must
// survive). Run under -race in CI. Afterwards the cached bodies must be
// byte-identical to an uncached reference server fed the same report
// multiset — count-based aggregation is order-independent, so divergence
// means the cache served a wrong body.
func TestEstimateReadsUnderConcurrentIngest(t *testing.T) {
	const (
		classes, items = 3, 32
		workers        = 4
		batches        = 5
		perBatch       = 40
	)
	build := func(opts ...ServerOption) (*Server, *httptest.Server) {
		proto, err := core.NewProtocol("ptscp", classes, items, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		np, err := core.NewNumericProtocol("cpmean", classes, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(proto, append([]ServerOption{WithMean(np)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return srv, newHTTPServer(t, srv)
	}
	srv, ts := build()
	_, refTS := build(WithEstimateCacheDisabled())

	meanValues := func(seed uint64) []mean.Value {
		r := xrand.New(seed)
		out := make([]mean.Value, perBatch)
		for i := range out {
			out[i] = mean.Value{Class: r.Intn(classes), X: 2*r.Float64() - 1}
		}
		return out
	}

	var wg sync.WaitGroup
	errc := make(chan error, 2*workers+1)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(seed uint64) {
			defer wg.Done()
			cl, err := NewClient(ts.URL, ts.Client(), seed)
			if err != nil {
				errc <- err
				return
			}
			for b := 0; b < batches; b++ {
				if _, err := cl.SubmitBatch(testPairs(classes, items, perBatch, seed+uint64(b))); err != nil {
					errc <- err
					return
				}
			}
		}(uint64(w + 1))
		go func(seed uint64) {
			defer wg.Done()
			cl, err := NewMeanClient(ts.URL, ts.Client(), seed)
			if err != nil {
				errc <- err
				return
			}
			for b := 0; b < batches; b++ {
				if _, err := cl.SubmitBatch(b*perBatch, meanValues(seed+uint64(b))); err != nil {
					errc <- err
					return
				}
			}
		}(uint64(100 + w))
	}
	// Whole-state churn: drain a generation and merge it straight back, so
	// the totals are conserved but the cache sees gen bumps mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			env, n, err := srv.Drain()
			if err == nil && n > 0 {
				_, err = srv.MergeState(env)
			}
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	// Readers poll the cached endpoints until the writers finish.
	var readWG sync.WaitGroup
	for r := 0; r < 3; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			hc := ts.Client()
			for {
				select {
				case <-stop:
					return
				default:
					for _, path := range []string{"/estimates", "/mean/estimates", "/stats"} {
						resp, err := hc.Get(ts.URL + path)
						if err != nil {
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readWG.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Feed the reference server the identical multiset, sequentially.
	for w := 0; w < workers; w++ {
		cl, err := NewClient(refTS.URL, refTS.Client(), uint64(w+1))
		if err != nil {
			t.Fatal(err)
		}
		mcl, err := NewMeanClient(refTS.URL, refTS.Client(), uint64(100+w))
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batches; b++ {
			if _, err := cl.SubmitBatch(testPairs(classes, items, perBatch, uint64(w+1)+uint64(b))); err != nil {
				t.Fatal(err)
			}
			if _, err := mcl.SubmitBatch(b*perBatch, meanValues(uint64(100+w)+uint64(b))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, path := range []string{"/estimates", "/mean/estimates"} {
		got := getBody(t, ts.Client(), ts.URL+path)
		want := getBody(t, refTS.Client(), refTS.URL+path)
		if !bytes.Equal(got, want) {
			t.Fatalf("GET %s after the hammer diverges from the uncached reference:\n%s\nvs\n%s", path, got, want)
		}
	}
}

// tearNewestSegment appends a garbage half-frame to the newest WAL segment
// under dir, simulating a crash mid-write.
func tearNewestSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("glob %s: %v (%d segments)", dir, err, len(segs))
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// TestReplayMatchesLiveState pins recovery equivalence end to end: a WAL
// holding every record type (JSON batches, binary frames, a federation
// envelope, mean batches) across many small segments — with torn tails on
// both tiers' newest segments — must replay to state bit-identical to the
// state the server held live.
func TestReplayMatchesLiveState(t *testing.T) {
	const classes, items = 3, 32
	dir := t.TempDir()
	build := func() *Server {
		proto, err := core.NewProtocol("ptscp", classes, items, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		np, err := core.NewNumericProtocol("cpmean", classes, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(proto, WithMean(np),
			WithWAL(dir), WithWALTierLayout(),
			WithWALOptions(wal.Options{Sync: wal.SyncNever, SegmentBytes: 2 << 10}),
			WithCompactAfter(1<<40))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	// Populate the log through the real endpoints.
	srv := build()
	ts := httptest.NewServer(srv.Handler())
	for _, binary := range []bool{false, true} {
		cl, err := NewClient(ts.URL, ts.Client(), 11, WithBinary(binary))
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 4; b++ {
			if _, err := cl.SubmitBatch(testPairs(classes, items, 60, uint64(b+1))); err != nil {
				t.Fatal(err)
			}
		}
	}
	mcl, err := NewMeanClient(ts.URL, ts.Client(), 12)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(5)
	vals := make([]mean.Value, 120)
	for i := range vals {
		vals[i] = mean.Value{Class: r.Intn(classes), X: 2*r.Float64() - 1}
	}
	if _, err := mcl.SubmitBatch(0, vals); err != nil {
		t.Fatal(err)
	}
	// One envelope record, from a memory-only donor server's snapshot.
	donor, err := NewServer(srv.proto)
	if err != nil {
		t.Fatal(err)
	}
	donorTS := newHTTPServer(t, donor)
	dcl, err := NewClient(donorTS.URL, donorTS.Client(), 13)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dcl.SubmitBatch(testPairs(classes, items, 30, 9)); err != nil {
		t.Fatal(err)
	}
	env, err := donor.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.MergeState(env); err != nil {
		t.Fatal(err)
	}
	wantFreq, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wantMean, err := srv.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}
	wantReports, wantMeanReports := srv.Reports(), srv.MeanReports()
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	tearNewestSegment(t, filepath.Join(dir, "freq"))
	tearNewestSegment(t, filepath.Join(dir, "mean"))

	replayed := build()
	defer replayed.Close()
	if replayed.Reports() != wantReports || replayed.MeanReports() != wantMeanReports {
		t.Fatalf("replay recovered %d/%d reports, want %d/%d",
			replayed.Reports(), replayed.MeanReports(), wantReports, wantMeanReports)
	}
	gotFreq, err := replayed.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotMean, err := replayed.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotFreq, wantFreq) {
		t.Fatal("replayed frequency state diverges from the live state")
	}
	if !bytes.Equal(gotMean, wantMean) {
		t.Fatal("replayed mean state diverges from the live state")
	}
}
