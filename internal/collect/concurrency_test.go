package collect

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// TestConcurrentSubmissions hammers the server with parallel clients and
// checks nothing is lost or double-counted. Run with -race to exercise the
// accumulator locking.
func TestConcurrentSubmissions(t *testing.T) {
	srv, ts := newTestServer(t, 3, 8, 2)
	const (
		clients   = 8
		perClient = 150
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := NewClient(ts.URL, ts.Client(), uint64(c+1))
			if err != nil {
				errs <- err
				return
			}
			r := xrand.New(uint64(1000 + c))
			for i := 0; i < perClient; i++ {
				pair := core.Pair{Class: r.Intn(3), Item: r.Intn(8)}
				if err := client.Submit(pair); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := srv.Reports(); got != clients*perClient {
		t.Fatalf("server saw %d reports, want %d", got, clients*perClient)
	}
}

// TestConcurrentDurableIngestion hammers a WAL-backed server — each report
// tier in turn — with parallel ingestion, merges and compactions at once:
// the full writer-side locking surface (ingestMu read path, the aggregate lock,
// WAL mutex, compaction's exclusive quiesce). Run with -race. Afterwards a
// restart must recover every report.
func TestConcurrentDurableIngestion(t *testing.T) {
	const workers, perWorker = 6, 200
	for _, tc := range tierCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			newSrv := func() *Server {
				return tc.newServer(t, 2,
					WithWAL(dir),
					WithWALOptions(wal.Options{Sync: wal.SyncNever, SegmentBytes: 4 << 10}),
					WithCompactAfter(8<<10))
			}
			srv := newSrv()
			peer := tc.newServer(t, 2)
			tc.mustFeed(t, peer, 77, 0, 50, 10)
			env, err := tc.snapshot(peer)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					if err := tc.feed(t, srv, uint64(100+w), 0, perWorker, 10); err != nil {
						t.Error(err)
					}
				}(w)
			}
			// Concurrent merges and explicit compactions while ingestion runs.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					if _, err := srv.MergeState(env); err != nil {
						t.Error(err)
						return
					}
					if err := tc.compact(srv); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			wg.Wait()
			want := workers*perWorker + 5*50
			if got := tc.reports(srv); got != want {
				t.Fatalf("server saw %d reports, want %d", got, want)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			restarted := newSrv()
			defer restarted.Close()
			if got := tc.reports(restarted); got != want {
				t.Fatalf("recovered %d reports, want %d", got, want)
			}
		})
	}
}

// TestConcurrentReadsDuringWrites interleaves estimate fetches with
// submissions; estimates must always be well-formed.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	_, ts := newTestServer(t, 2, 4, 1)
	client, err := NewClient(ts.URL, ts.Client(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := xrand.New(9)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := client.Submit(core.Pair{Class: r.Intn(2), Item: r.Intn(4)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	reader, err := NewClient(ts.URL, ts.Client(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		est, err := reader.Estimates()
		if err != nil {
			t.Fatal(err)
		}
		if len(est.Frequencies) != 2 || len(est.Frequencies[0]) != 4 {
			t.Fatalf("malformed estimates %+v", est)
		}
	}
	close(stop)
	wg.Wait()
}
