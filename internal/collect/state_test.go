package collect

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/state"
	"repro/internal/wal"
)

// serve answers one request in-process.
func serve(srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// cpStateBeforeTables is the gob state PTS-CP aggregates had before count
// tables, field for field.
type cpStateBeforeTables struct {
	Classes, Items int
	Epsilon, Split float64
	ItemCounts     [][]int64
	LabelCounts    []int64
	Total          int
}

// TestParentWrittenWALReplays replays a WAL directory the previous state
// format left behind under kill -9 — per report tier, a gob compaction
// snapshot, then JSON 'B', binary 'W' and gob-envelope 'E' records and a
// torn last record — to the bytes the previous version's own restart
// served, and checks the next compaction writes count tables that restart
// to the same bytes.
func TestParentWrittenWALReplays(t *testing.T) {
	// Each tier's log lies under its name (WithWALTierLayout).
	pins := map[string]string{"freq": "wal.estimates.json", "mean": "wal.mean_estimates.json"}
	dir := t.TempDir()
	for _, tc := range tierCases {
		from := filepath.Join("testdata/state_parent/wal", tc.name)
		ents, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, tc.name), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if err := os.WriteFile(filepath.Join(dir, tc.name, e.Name()), mustRead(t, filepath.Join(from, e.Name())), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func() *Server {
		t.Helper()
		srv, err := NewServer(mustProtocol(t, "ptscp", 3, 10, 2, 0.5),
			WithMean(mustNumericProtocol(t, "cpmean", 3, 2, 0.5)), WithWAL(dir), WithWALTierLayout(),
			WithWALOptions(wal.Options{Sync: wal.SyncNever}))
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range tierCases {
			if got := tc.reports(srv); got != 900 {
				t.Fatalf("%s tier replayed %d reports, want 900", tc.name, got)
			}
			want := mustRead(t, filepath.Join("testdata/state_parent", pins[tc.name]))
			if got := serve(srv, "GET", tc.route+"/estimates", nil).Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s after replay serves\n%s\nthe previous version served\n%s", tc.route+"/estimates", got, want)
			}
		}
		return srv
	}
	srv := open()
	for _, tc := range tierCases {
		if err := tc.compact(srv); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range tierCases {
		l, err := wal.Open(filepath.Join(dir, tc.name), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var payload []byte
		err = l.Replay(func(snap []byte) error {
			_, payload, err = state.Decode(snap)
			return err
		}, func([]byte) error { return nil })
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := state.DecodeTable(payload); err != nil {
			t.Fatalf("%s compaction did not write a count table: %v", tc.name, err)
		}
	}
	if err := open().Close(); err != nil {
		t.Fatal(err)
	}
}
