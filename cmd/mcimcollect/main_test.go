package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

// parse runs the command's flag definitions over args, quietly.
func parse(t *testing.T, args ...string) (*config, error) {
	t.Helper()
	fs := flag.NewFlagSet("mcimcollect", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// TestServeFlagsReachTheServer pins the -serve flags → collect.Server
// mapping: which tiers are mounted, and over which domain.
func TestServeFlagsReachTheServer(t *testing.T) {
	c, err := parse(t, "-serve", "-framework", "none", "-mean", "cpmean", "-classes", "3", "-eps", "2")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := c.newServer()
	if err != nil {
		t.Fatal(err)
	}
	if srv.Protocol() != nil {
		t.Errorf("-framework none mounted the frequency tier (%s)", srv.Protocol().Name())
	}
	if np := srv.MeanProtocol(); np == nil || np.Name() != "cpmean" || np.Classes() != 3 || np.Epsilon() != 2 {
		t.Errorf("-mean cpmean -classes 3 -eps 2 built mean tier %+v", np)
	}
	if st := srv.StatsSnapshot(); st.TopK != nil {
		t.Errorf("mining sessions mounted without -topk: %+v", st.TopK)
	}

	c, err = parse(t, "-serve", "-topk", "-topk-max-sessions", "1", "-classes", "2", "-items", "8", "-maxbody", "128")
	if err != nil {
		t.Fatal(err)
	}
	srv, err = c.newServer()
	if err != nil {
		t.Fatal(err)
	}
	if p := srv.Protocol(); p == nil || p.Name() != "ptscp" || p.Classes() != 2 || p.Items() != 8 {
		t.Errorf("default framework over -classes 2 -items 8 built %+v", p)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	session := `{"framework":"pts","classes":2,"items":8,"k":2,"eps":2,"users":100}`
	for i, want := range []int{http.StatusOK, http.StatusTooManyRequests} { // -topk-max-sessions 1
		resp, err := http.Post(ts.URL+"/topk/sessions", "application/json", strings.NewReader(session))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("session create %d: status %d, want %d", i+1, resp.StatusCode, want)
		}
	}
	resp, err := http.Post(ts.URL+"/reports", "application/json", strings.NewReader(`[`+strings.Repeat(`{"label":0,"bits":[1]},`, 8)+`{"label":0,"bits":[1]}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge { // -maxbody 128
		t.Errorf("a body over -maxbody: status %d, want 413", resp.StatusCode)
	}
}

// TestWALFlagsReachTheLog: the four -wal-* tuning flags arrive in
// wal.Options and WithCompactAfter.
func TestWALFlagsReachTheLog(t *testing.T) {
	dir := t.TempDir()
	c, err := parse(t, "-serve", "-classes", "2", "-items", "8", "-wal-dir", dir,
		"-wal-sync", "always", "-wal-segment-bytes", "4096", "-wal-sync-every", "50ms", "-wal-compact-after", "1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.walOptions()
	if err != nil {
		t.Fatal(err)
	}
	if got.SegmentBytes != 4096 || got.Sync != wal.SyncAlways || got.SyncEvery != 50*time.Millisecond {
		t.Errorf("walOptions() = %+v, want 4096-byte segments, always, every 50ms", got)
	}

	// -wal-compact-after 1: the first logged batch is already past the
	// threshold, so the server snapshots in the background; Close waits
	// that compaction out and a reopen finds the snapshot.
	srv, err := c.newServer()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	resp, err := http.Post(ts.URL+"/reports", "application/json", strings.NewReader(`[{"label":0,"bits":[1]},{"label":1,"bits":[2]}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ts.Close()
	if resp.StatusCode != http.StatusOK || srv.Reports() != 2 {
		t.Fatalf("batch: status %d, server holds %d reports", resp.StatusCode, srv.Reports())
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err = c.newServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if st := srv.StatsSnapshot(); srv.Reports() != 2 || st.WAL == nil || st.WAL.LastSnapshot == "" {
		t.Errorf("reopened server: %d reports, wal stats %+v; want 2 reports recovered from a snapshot", srv.Reports(), st.WAL)
	}

	if c, err = parse(t, "-serve", "-wal-dir", dir, "-wal-sync", "sometimes"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.newServer(); err == nil || !strings.Contains(err.Error(), "sometimes") {
		t.Errorf("-wal-sync sometimes: err = %v", err)
	}
}

// TestSimulateFlagsAreGone: the client half of this command went to
// mcimload; its five flags are undefined, not ignored.
func TestSimulateFlagsAreGone(t *testing.T) {
	for _, name := range []string{"simulate", "url", "users", "batch", "seed"} {
		if _, err := parse(t, "-serve", "-"+name+"=1"); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("mcimcollect -%s: err = %v, want an undefined-flag error", name, err)
		}
	}
}
