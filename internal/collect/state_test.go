package collect

import (
	"bytes"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/wal"
)

// reportTierProtocols names every report-tier protocol: the frequency
// frameworks (PTS over each item mechanism) and the mean frameworks.
var reportTierProtocols = []string{"hec", "ptj", "pts", "pts+grr", "pts+olh", "ptscp", "hecmean", "ptsmean", "cpmean"}

// stateServer is a server for one report-tier protocol at the parameters
// of testdata/state_parent, and the calls that reach that tier's state.
type stateServer struct {
	*Server
	path     string // the tier's estimates endpoint
	restore  func([]byte) error
	snapshot func() ([]byte, error)
	reports  func() int
	// unmarshal is the protocol's UnmarshalAggregator, result dropped.
	unmarshal func([]byte) error
}

func newStateServer(t *testing.T, name string, opts ...ServerOption) stateServer {
	t.Helper()
	const c, d, eps, split = 3, 10, 2.0, 0.5
	if slices.Contains(core.NumericProtocolNames(), name) {
		np := mustNumericProtocol(t, name, c, eps, split)
		srv, err := NewServer(nil, append(opts, WithMean(np))...)
		if err != nil {
			t.Fatal(err)
		}
		unmarshal := func(b []byte) error { _, err := np.UnmarshalAggregator(b); return err }
		return stateServer{srv, "/mean/estimates", srv.RestoreMean, srv.SnapshotMean, srv.MeanReports, unmarshal}
	}
	p := mustProtocol(t, name, c, d, eps, split)
	srv, err := NewServer(p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	unmarshal := func(b []byte) error { _, err := p.UnmarshalAggregator(b); return err }
	return stateServer{srv, "/estimates", srv.Restore, srv.Snapshot, srv.Reports, unmarshal}
}

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

// TestImpossibleStateRefused: a CRC-valid envelope whose table no report
// stream could produce — a negative count, counts that do not sum to the
// reports, a cell above its row's reports — is refused by
// UnmarshalAggregator and answered 400 on POST /merge with nothing merged,
// for every report-tier protocol. So is the gob state of the one framework
// that used to accept it: PTS-CP label counts {-7, 3} over one report with
// an item counted 2⁴⁰ times.
func TestImpossibleStateRefused(t *testing.T) {
	impossible := []struct {
		name   string
		mutate func(*state.Table) bool // false: no such state for this shape
	}{
		{"negative count", func(tab *state.Table) bool { tab.Cells[len(tab.Cells)-1] = -1; return true }},
		// A unary-encoded report may set no bit, so only route counts and
		// one-hot rows pin N (PTJ over OUE has neither).
		{"wrong sum", func(tab *state.Table) bool { tab.N++; return tab.Routes > 0 || tab.OneHot }},
		{"cell above its row", func(tab *state.Table) bool {
			r := tab.Rows - 1
			tab.Row(r)[0] = tab.Route(r) + 1
			return true
		}},
	}
	var legacy bytes.Buffer
	err := gob.NewEncoder(&legacy).Encode(cpStateBeforeTables{
		Classes: 3, Items: 10, Epsilon: 2, Split: 0.5,
		ItemCounts:  [][]int64{{1 << 40, 0, 0, 0, 0, 0, 0, 0, 0, 0}, make([]int64, 10), make([]int64, 10)},
		LabelCounts: []int64{-7, 3, 5},
		Total:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range reportTierProtocols {
		t.Run(name, func(t *testing.T) {
			srv := newStateServer(t, name)
			if err := srv.restore(mustRead(t, filepath.Join("testdata/state_parent", name+".env"))); err != nil {
				t.Fatal(err)
			}
			env, err := srv.snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fp, payload, err := state.Decode(env)
			if err != nil {
				t.Fatal(err)
			}
			bad := map[string][]byte{}
			for _, c := range impossible {
				tab, err := state.DecodeTable(payload)
				if err != nil {
					t.Fatal(err)
				}
				if c.mutate(&tab) {
					blob, _ := tab.MarshalBinary()
					bad[c.name] = state.Encode(fp, blob)
				}
			}
			if name == "ptscp" {
				bad["gob state from before tables"] = state.Encode(fp, legacy.Bytes())
			}
			before, reports := serve(srv.Server, "GET", srv.path, nil).Body.Bytes(), srv.reports()
			for what, env := range bad {
				if err := srv.unmarshal(env); err == nil {
					t.Errorf("%s: UnmarshalAggregator accepted it", what)
				}
				if rec := serve(srv.Server, "POST", "/merge", env); rec.Code != http.StatusBadRequest {
					t.Errorf("%s: /merge answered %d, want 400", what, rec.Code)
				}
				if got := serve(srv.Server, "GET", srv.path, nil).Body.Bytes(); srv.reports() != reports || !bytes.Equal(got, before) {
					t.Fatalf("%s: a refused merge changed the aggregate", what)
				}
			}
		})
	}
}

// TestParentWrittenStateRestores restores, for every report-tier protocol,
// an envelope the previous state format wrote (gob payloads, before count
// tables) and holds what the server then serves to the bytes the previous
// version served from the same envelope (testdata/state_parent).
func TestParentWrittenStateRestores(t *testing.T) {
	for _, name := range reportTierProtocols {
		t.Run(name, func(t *testing.T) {
			srv := newStateServer(t, name)
			if err := srv.restore(mustRead(t, filepath.Join("testdata/state_parent", name+".env"))); err != nil {
				t.Fatal(err)
			}
			want := mustRead(t, filepath.Join("testdata/state_parent", name+".estimates.json"))
			if got := serve(srv.Server, "GET", srv.path, nil).Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("restored state serves\n%s\nthe previous version served\n%s", got, want)
			}
		})
	}
}

// TestParentWrittenWALReplays replays a WAL directory the previous state
// format left behind under kill -9 — per report tier, a gob compaction
// snapshot, then JSON 'B', binary 'W' and gob-envelope 'E' records and a
// torn last record — to the bytes the previous version's own restart
// served, and checks the next compaction writes count tables that restart
// to the same bytes.
func TestParentWrittenWALReplays(t *testing.T) {
	dir := t.TempDir()
	for _, tier := range []string{"freq", "mean"} {
		from := filepath.Join("testdata/state_parent/wal", tier)
		ents, err := os.ReadDir(from)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, tier), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if err := os.WriteFile(filepath.Join(dir, tier, e.Name()), mustRead(t, filepath.Join(from, e.Name())), 0o644); err != nil {
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
		if srv.Reports() != 900 || srv.MeanReports() != 900 {
			t.Fatalf("replayed %d/%d reports, want 900/900", srv.Reports(), srv.MeanReports())
		}
		for path, pin := range map[string]string{"/estimates": "wal.estimates.json", "/mean/estimates": "wal.mean_estimates.json"} {
			want := mustRead(t, filepath.Join("testdata/state_parent", pin))
			if got := serve(srv, "GET", path, nil).Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s after replay serves\n%s\nthe previous version served\n%s", path, got, want)
			}
		}
		return srv
	}
	srv := open()
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := srv.CompactMean(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{"freq", "mean"} {
		l, err := wal.Open(filepath.Join(dir, tier), wal.Options{})
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
			t.Fatalf("%s compaction did not write a count table: %v", tier, err)
		}
	}
	if err := open().Close(); err != nil {
		t.Fatal(err)
	}
}
