package collect

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fo"
	"repro/internal/mean"
	"repro/internal/state"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// This file is the report tiers' conformance table. Every estimator the
// server serves is a closed-form calibration of one integer count table,
// served through one engine (tier.go), so every report-tier property is
// written once, as a check over a protocolRow, and runs as one subtest per
// row of protocolRows: the six frequency protocols and the three mean
// protocols. A property that a row cannot have says why in the row.

// protocolRow is one report-tier protocol behind closures: how to build a
// server for it, its wire stream and offline reference, and the calls that
// reach its tier's state.
type protocolRow struct {
	name   string
	walSub string // the tier's log directory under WithWAL's dir (default layout)
	route  string // endpoint prefix: "" or "/mean"
	// items is false for the mean tier, whose reports carry a class and a
	// value and no item: a server built at another d is the same protocol.
	items bool

	// open builds a server hosting only this row's protocol over c classes
	// and d items at budget eps and split 0.5.
	open func(t testing.TB, c, d int, eps float64, opts ...ServerOption) (*Server, error)
	// wires is a deterministic stream of n wire reports for srv's protocol.
	wires func(t testing.TB, srv *Server, n int, seed uint64) wireSet
	// offline runs the row's offline batch estimator over the planted
	// population of n users (plantedPair, plantedValue) under seed: what a
	// client seeded alike must make srv serve. The frequency estimators
	// return no class sizes.
	offline func(t testing.TB, srv *Server, n int, seed uint64) servedEstimates
	// recovers checks estimates served for the planted population of n
	// users at ε = 4 against the population's truth.
	recovers func(t testing.TB, est servedEstimates, n int)

	reports   func(*Server) int
	estimates func(*Server) any // the tier's wire estimates, calibrated from a copy of its table
	compact   func(*Server) error
	snapshot  func(*Server) ([]byte, error)
	restore   func(*Server, []byte) error
	drain     func(*Server) ([]byte, int, error)
	unmarshal func(*Server, []byte) error // the protocol's UnmarshalAggregator, result dropped
	log       func(*Server) *wal.Log
	engine    func(*Server) engine
	newClient func(url string, hc *http.Client, seed uint64, opts ...ClientOption) (tierClient, error)
}

// protocolRows is every report-tier protocol, with the offline batch
// framework each must reproduce.
var protocolRows = []protocolRow{
	freqRow("hec", func(eps float64) (core.FrequencyEstimator, error) { return core.NewHEC(eps), nil }),
	freqRow("ptj", func(eps float64) (core.FrequencyEstimator, error) { return core.NewPTJ(eps), nil }),
	freqRow("pts", func(eps float64) (core.FrequencyEstimator, error) { return core.NewPTS(eps, 0.5) }),
	freqRow("pts+grr", func(eps float64) (core.FrequencyEstimator, error) {
		return core.NewPTSWithItem("pts+grr", eps, 0.5, func(d int, eps float64) (fo.Mechanism, error) { return fo.NewGRR(d, eps) })
	}),
	freqRow("pts+olh", func(eps float64) (core.FrequencyEstimator, error) {
		return core.NewPTSWithItem("pts+olh", eps, 0.5, func(d int, eps float64) (fo.Mechanism, error) { return fo.NewOLH(d, eps) })
	}),
	freqRow("ptscp", func(eps float64) (core.FrequencyEstimator, error) { return core.NewPTSCP(eps, 0.5) }),
	meanRow("hecmean", func(eps float64) (mean.Estimator, error) { return mean.NewHECMean(eps), nil }),
	meanRow("ptsmean", func(eps float64) (mean.Estimator, error) { return mean.NewPTSMean(eps, 0.5) }),
	meanRow("cpmean", func(eps float64) (mean.Estimator, error) { return mean.NewCPMeanEstimator(eps, 0.5) }),
}

// frequencyRows and meanRows are the table's two tiers.
var frequencyRows, meanRows = protocolRows[:6], protocolRows[6:]

// tierCases is one row per report tier, for the tier-contract tests —
// durability, compaction, concurrency, the buffered client's failure
// handling — which hold for a tier whatever its protocol.
var tierCases = []protocolRow{renamed(rowsNamed("ptscp")[0], "freq"), renamed(rowsNamed("cpmean")[0], "mean")}

func rowsNamed(names ...string) []protocolRow {
	var out []protocolRow
	for _, name := range names {
		for _, row := range protocolRows {
			if row.name == name {
				out = append(out, row)
			}
		}
	}
	return out
}

func renamed(row protocolRow, name string) protocolRow { row.name = name; return row }

// forRows runs check once per row, as a subtest named after the row.
func forRows(t *testing.T, rows []protocolRow, check func(*testing.T, protocolRow)) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { check(t, row) })
	}
}

// server is open on the test goroutine.
func (row protocolRow) server(t testing.TB, c, d int, eps float64, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := row.open(t, c, d, eps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// newServer builds the row's server over a report domain that grows with
// size: size classes and 4·size items at ε = 2.
func (row protocolRow) newServer(t testing.TB, size int, opts ...ServerOption) *Server {
	t.Helper()
	return row.server(t, size, 4*size, 2, opts...)
}

// stream is the row's deterministic stream of n reports as a JSON array.
func (row protocolRow) stream(t testing.TB, srv *Server, n int, seed uint64) []byte {
	return row.wires(t, srv, n, seed).json(0, n)
}

// feed pushes reports [from, to) of the row's stream through the tier's
// ingest path in chunks of batch.
func (row protocolRow) feed(t testing.TB, srv *Server, seed uint64, from, to, batch int) error {
	return row.wires(t, srv, to, seed).push(srv, from, to, batch)
}

// mustFeed is feed on the test goroutine.
func (row protocolRow) mustFeed(t testing.TB, srv *Server, seed uint64, from, to, batch int) {
	t.Helper()
	if err := row.feed(t, srv, seed, from, to, batch); err != nil {
		t.Fatal(err)
	}
}

// requireSame fails unless two servers' tiers hold the same reports, the
// same state envelope byte for byte and the same calibrated estimates.
func (row protocolRow) requireSame(t testing.TB, got, want *Server) {
	t.Helper()
	row.requireState(t, got, offlineState{row.reports(want), row.mustSnapshot(t, want), row.estimates(want)})
}

// requireState fails unless srv's tier holds exactly want.
func (row protocolRow) requireState(t testing.TB, srv *Server, want offlineState) {
	t.Helper()
	if got := row.reports(srv); got != want.n {
		t.Fatalf("holds %d reports, want %d", got, want.n)
	}
	if !bytes.Equal(row.mustSnapshot(t, srv), want.env) {
		t.Fatal("state envelope not byte-identical")
	}
	if got := row.estimates(srv); !reflect.DeepEqual(got, want.est) {
		t.Fatalf("estimates not bit-identical:\n%+v\nwant\n%+v", got, want.est)
	}
}

func (row protocolRow) mustSnapshot(t testing.TB, srv *Server) []byte {
	t.Helper()
	env, err := row.snapshot(srv)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// offlineState is an aggregate's report count, state envelope and
// calibrated estimates.
type offlineState struct {
	n   int
	env []byte
	est any
}

// wireSet is a row's deterministic stream of wire reports, whatever their
// type, and what the properties do with a range [lo, hi) of it.
type wireSet struct {
	t    testing.TB
	json func(lo, hi int) []byte // a JSON array body
	// frame is a binary frame body; it fails the test unless the frame
	// decodes to reports that frame back to the same bytes.
	frame func(lo, hi int) []byte
	// push feeds the range through srv's tier ingest path, batch reports
	// a call, as the batch endpoint would.
	push func(srv *Server, lo, hi, batch int) error
	// offline is an offline aggregator fed the range one decoded report at
	// a time (the protocol's DecodeReport and Aggregator.Add).
	offline func(lo, hi int) offlineState
}

// feed is push on the test goroutine.
func (ws wireSet) feed(srv *Server, lo, hi, batch int) {
	ws.t.Helper()
	if err := ws.push(srv, lo, hi, batch); err != nil {
		ws.t.Fatal(err)
	}
}

func newWireSet[W any](t testing.TB, wires []W, tierOf func(*Server) *tier[W],
	frame func([]byte, []W) ([]byte, error), decode func([]byte) ([]W, error),
	offline func([]W) offlineState) wireSet {
	return wireSet{
		t:    t,
		json: func(lo, hi int) []byte { return mustJSON(t, wires[lo:hi]) },
		frame: func(lo, hi int) []byte {
			t.Helper()
			b, err := frame(nil, wires[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := frame(nil, decoded); err != nil || !bytes.Equal(again, b) {
				t.Fatalf("a %d-report frame does not decode to its reports (%v)", hi-lo, err)
			}
			return b
		},
		push:    func(srv *Server, lo, hi, batch int) error { return feedTier(tierOf(srv), wires[lo:hi], batch) },
		offline: func(lo, hi int) offlineState { return offline(wires[lo:hi]) },
	}
}

// freqRow is a frequency-tier row; estimator builds its offline batch
// framework at a budget.
func freqRow(name string, estimator func(eps float64) (core.FrequencyEstimator, error)) protocolRow {
	return protocolRow{
		name: name, walSub: "", route: "", items: true,
		open: func(t testing.TB, c, d int, eps float64, opts ...ServerOption) (*Server, error) {
			return NewServer(mustProtocol(t, name, c, d, eps, 0.5), opts...)
		},
		wires: func(t testing.TB, srv *Server, n int, seed uint64) wireSet {
			p := srv.Protocol()
			return newWireSet(t, wireStream(t, p, n, seed), func(s *Server) *tier[WireReport] { return s.freq },
				p.AppendBinaryBatch, p.DecodeBinaryBatch, func(wires []WireReport) offlineState {
					agg := p.NewAggregator()
					for _, w := range wires {
						rep, err := p.DecodeReport(w)
						if err != nil {
							t.Fatal(err)
						}
						agg.Add(rep)
					}
					env, err := p.MarshalAggregator(agg)
					if err != nil {
						t.Fatal(err)
					}
					return offlineState{agg.N(), env, WireEstimates{Reports: agg.N(), Frequencies: agg.Estimates(), ClassSizes: agg.ClassSizes()}}
				})
		},
		offline: func(t testing.TB, srv *Server, n int, seed uint64) servedEstimates {
			p := srv.proto
			est, err := estimator(p.Epsilon())
			if err != nil {
				t.Fatal(err)
			}
			data := &core.Dataset{Classes: p.Classes(), Items: p.Items(), Name: "planted"}
			for i := 0; i < n; i++ {
				data.Pairs = append(data.Pairs, plantedPair(i))
			}
			freq, err := est.Estimate(data, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return servedEstimates{Reports: n, Frequencies: freq}
		},
		// The planted cells dominate; at ε = 4 every framework, the biased
		// HEC strawman included, recovers them within coarse bounds.
		recovers: func(t testing.TB, est servedEstimates, n int) {
			t.Helper()
			if got := est.Frequencies[0][1]; math.Abs(got-0.6*float64(n)) > 700 {
				t.Fatalf("f(0,1) estimate %v, want ≈%v", got, 0.6*float64(n))
			}
			if got := est.Frequencies[1][4]; math.Abs(got-0.4*float64(n)) > 700 {
				t.Fatalf("f(1,4) estimate %v, want ≈%v", got, 0.4*float64(n))
			}
		},
		reports: (*Server).Reports,
		estimates: func(srv *Server) any {
			acc := srv.freq.clone()
			freq, sizes := srv.proto.Calibrate(&acc)
			return WireEstimates{Reports: int(acc.N), Frequencies: freq, ClassSizes: sizes}
		},
		compact:   (*Server).Compact,
		snapshot:  (*Server).Snapshot,
		restore:   (*Server).Restore,
		drain:     (*Server).Drain,
		unmarshal: func(srv *Server, env []byte) error { _, err := srv.proto.UnmarshalAggregator(env); return err },
		log:       func(srv *Server) *wal.Log { return srv.freq.log },
		engine:    func(srv *Server) engine { return srv.freq },
		newClient: func(url string, hc *http.Client, seed uint64, opts ...ClientOption) (tierClient, error) {
			c, err := NewClient(url, hc, seed, opts...)
			return freqTestClient{c}, err
		},
	}
}

// meanRow is a mean-tier row; estimator builds its offline batch framework
// at a budget.
func meanRow(name string, estimator func(eps float64) (mean.Estimator, error)) protocolRow {
	return protocolRow{
		name: name, walSub: "mean", route: "/mean",
		open: func(t testing.TB, c, _ int, eps float64, opts ...ServerOption) (*Server, error) {
			return NewServer(nil, append([]ServerOption{WithMean(mustNumericProtocol(t, name, c, eps, 0.5))}, opts...)...)
		},
		wires: func(t testing.TB, srv *Server, n int, seed uint64) wireSet {
			np := srv.MeanProtocol()
			return newWireSet(t, meanWireStream(t, np, n, seed), func(s *Server) *tier[WireMeanReport] { return s.mean },
				np.AppendBinaryMeanBatch, np.DecodeBinaryMeanBatch, func(wires []WireMeanReport) offlineState {
					agg := np.NewAggregator()
					for _, w := range wires {
						rep, err := np.DecodeMeanReport(w)
						if err != nil {
							t.Fatal(err)
						}
						agg.Add(rep)
					}
					env, err := np.MarshalAggregator(agg)
					if err != nil {
						t.Fatal(err)
					}
					return offlineState{agg.N(), env, WireMeanEstimates{Reports: agg.N(), Means: agg.Means(), ClassSizes: agg.ClassSizes()}}
				})
		},
		offline: func(t testing.TB, srv *Server, n int, seed uint64) servedEstimates {
			np := srv.meanProto
			est, err := estimator(np.Epsilon())
			if err != nil {
				t.Fatal(err)
			}
			data := &mean.Dataset{Classes: np.Classes(), Name: "planted"}
			for i := 0; i < n; i++ {
				data.Values = append(data.Values, plantedValue(i))
			}
			out, err := est.Estimate(data, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			return servedEstimates{Reports: n, Means: out.Means, ClassSizes: out.ClassSizes}
		},
		// The HEC-Mean strawman shrinks each class's mean toward zero by the
		// class's share of the population, so the check is the gap the
		// planted means open (0.9), not the means themselves.
		recovers: func(t testing.TB, est servedEstimates, n int) {
			t.Helper()
			if gap := est.Means[1] - est.Means[0]; gap < 0.3 || gap > 1.5 {
				t.Fatalf("class means %v open a gap of %v, want ≈0.9", est.Means, gap)
			}
		},
		reports: (*Server).MeanReports,
		estimates: func(srv *Server) any {
			acc := srv.mean.clone()
			means, sizes := srv.meanProto.Calibrate(&acc)
			return WireMeanEstimates{Reports: int(acc.N), Means: means, ClassSizes: sizes}
		},
		compact:   (*Server).CompactMean,
		snapshot:  (*Server).SnapshotMean,
		restore:   (*Server).RestoreMean,
		drain:     (*Server).DrainMean,
		unmarshal: func(srv *Server, env []byte) error { _, err := srv.meanProto.UnmarshalAggregator(env); return err },
		log:       func(srv *Server) *wal.Log { return srv.mean.log },
		engine:    func(srv *Server) engine { return srv.mean },
		newClient: func(url string, hc *http.Client, seed uint64, opts ...ClientOption) (tierClient, error) {
			c, err := NewMeanClient(url, hc, seed, opts...)
			return meanTestClient{c}, err
		},
	}
}

// engine is a tier[W] with its wire type erased: the internals a property
// reaches past the HTTP surface for.
type engine interface {
	small(size int) bool
	tableCells() int
	checkFrame(frame []byte) (core.CheckedFrame, error)
	ingestBinary(frame []byte, f core.CheckedFrame) error
	logged() [4]int64
	cacheHits() int64
}

func (t *tier[W]) checkFrame(frame []byte) (core.CheckedFrame, error) {
	return t.c.validateBinary(frame)
}

// logged reads the tier's logged-records counters: delta, frame, batch,
// envelope.
func (t *tier[W]) logged() [4]int64 {
	m := t.m
	return [4]int64{m.loggedDelta.Value(), m.loggedFrame.Value(), m.loggedBatch.Value(), m.loggedEnvelope.Value()}
}

func (t *tier[W]) cacheHits() int64 { return t.cache.m.hit.Value() }

func (t *tier[W]) tableCells() int { tab := t.c.NewTable(); return len(tab.Cells) }

// tierClient is the slice of Client / MeanClient the properties drive;
// bufferNth and submitN perturb a deterministic in-domain datum per index,
// bufferPlanted the planted population's user i.
type tierClient interface {
	Flush() error
	Pending() int
	protocolName() string
	bufferNth(i int) error
	bufferPlanted(i int) error
	submitN(n int) (*WireBatchAck, error)
	estimates() (servedEstimates, error)
	// retarget re-points the client at another server (a misconfigured
	// client); setSleep replaces the retry backoff's sleep.
	retarget(url string)
	setSleep(func(time.Duration))
}

// servedEstimates is either tier's estimates: the frequency matrix or the
// means, and the class sizes.
type servedEstimates struct {
	Reports     int
	Frequencies [][]float64
	Means       []float64
	ClassSizes  []float64
}

// plantedPair and plantedValue are user i of the planted population: three
// users in five in class 0 (item 1, values near −0.5), the rest in class 1
// (item 4, values near 0.4).
func plantedPair(i int) core.Pair {
	if i%5 < 3 {
		return core.Pair{Class: 0, Item: 1}
	}
	return core.Pair{Class: 1, Item: 4}
}

var plantedMeans = []float64{-0.5, 0.4}

func plantedValue(i int) mean.Value {
	c := plantedPair(i).Class
	return mean.Value{Class: c, X: plantedMeans[c] + float64(i%11-5)/50}
}

type freqTestClient struct{ *Client }

func (c freqTestClient) pair(i int) core.Pair {
	return core.Pair{Class: i % c.proto.Classes(), Item: i % c.proto.Items()}
}
func (c freqTestClient) protocolName() string      { return c.Protocol().Name() }
func (c freqTestClient) bufferNth(i int) error     { return c.Buffer(c.pair(i)) }
func (c freqTestClient) bufferPlanted(i int) error { return c.Buffer(plantedPair(i)) }
func (c freqTestClient) submitN(n int) (*WireBatchAck, error) {
	pairs := make([]core.Pair, n)
	for i := range pairs {
		pairs[i] = c.pair(i)
	}
	return c.SubmitBatch(pairs)
}
func (c freqTestClient) estimates() (servedEstimates, error) {
	est, err := c.Estimates()
	if err != nil {
		return servedEstimates{}, err
	}
	return servedEstimates{Reports: est.Reports, Frequencies: est.Frequencies, ClassSizes: est.ClassSizes}, nil
}
func (c freqTestClient) retarget(url string)            { c.base = url }
func (c freqTestClient) setSleep(f func(time.Duration)) { c.sleep = f }

type meanTestClient struct{ *MeanClient }

func (c meanTestClient) value(i int) mean.Value {
	return mean.Value{Class: i % c.proto.Classes(), X: float64(i%21)/10 - 1}
}
func (c meanTestClient) protocolName() string      { return c.Protocol().Name() }
func (c meanTestClient) bufferNth(i int) error     { return c.Buffer(i, c.value(i)) }
func (c meanTestClient) bufferPlanted(i int) error { return c.Buffer(i, plantedValue(i)) }
func (c meanTestClient) submitN(n int) (*WireBatchAck, error) {
	vs := make([]mean.Value, n)
	for i := range vs {
		vs[i] = c.value(i)
	}
	return c.SubmitBatch(0, vs)
}
func (c meanTestClient) estimates() (servedEstimates, error) {
	est, err := c.Estimates()
	if err != nil {
		return servedEstimates{}, err
	}
	return servedEstimates{Reports: est.Reports, Means: est.Means, ClassSizes: est.ClassSizes}, nil
}
func (c meanTestClient) retarget(url string)            { c.base = url }
func (c meanTestClient) setSleep(f func(time.Duration)) { c.sleep = f }

func mustNewClient(t testing.TB, row protocolRow, ts *httptest.Server, seed uint64, opts ...ClientOption) tierClient {
	t.Helper()
	cl, err := row.newClient(ts.URL, ts.Client(), seed, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// ---------------------------------------------------------------------------
// The properties. Each Test function below runs its property on every row;
// the mean tier's names for the same properties follow at the end.
// ---------------------------------------------------------------------------

// TestEndToEndAllProtocols runs the full HTTP pipeline — config fetch,
// client-side encoding, buffered batch ingestion, served estimates — and
// holds the served estimates bit-identical to the row's offline batch
// framework run over the same population under the same seed; the
// estimates are finite and recover the planted cells.
func TestEndToEndAllProtocols(t *testing.T) { forRows(t, protocolRows, servedMatchesOffline) }

func servedMatchesOffline(t *testing.T, row protocolRow) {
	const n, seed = 3000, 42
	srv := row.server(t, 2, 6, 4)
	ts := newHTTPServer(t, srv)
	cl := mustNewClient(t, row, ts, seed, WithBatchSize(128))
	if got := cl.protocolName(); got != row.name {
		t.Fatalf("client negotiated %q, want %q", got, row.name)
	}
	for i := 0; i < n; i++ {
		if err := cl.bufferPlanted(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	served, err := cl.estimates()
	if err != nil {
		t.Fatal(err)
	}
	if served.Reports != n || row.reports(srv) != n {
		t.Fatalf("served %d reports and holds %d, want %d", served.Reports, row.reports(srv), n)
	}
	if len(served.ClassSizes) != 2 {
		t.Fatalf("malformed estimates %+v", served)
	}
	for _, r := range append(served.Frequencies, served.Means, served.ClassSizes) {
		for i, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite estimate %d: %v", i, v)
			}
		}
	}
	want := row.offline(t, srv, n, seed)
	if !reflect.DeepEqual(served.Frequencies, want.Frequencies) || !reflect.DeepEqual(served.Means, want.Means) {
		t.Fatalf("served estimates %+v not bit-identical to offline %+v", served, want)
	}
	if want.ClassSizes != nil && !reflect.DeepEqual(served.ClassSizes, want.ClassSizes) {
		t.Fatalf("served class sizes %v not bit-identical to offline %v", served.ClassSizes, want.ClassSizes)
	}
	row.recovers(t, served, n)
}

// TestConcurrentMixedWiresMatchOffline is the pin under the whole serving
// design: whatever order concurrent requests reach a tier's one table in,
// over either wire, the server holds exactly the counts — and serves
// exactly the estimates — of one offline aggregator fed the same reports
// in sequence.
func TestConcurrentMixedWiresMatchOffline(t *testing.T) {
	forRows(t, protocolRows, func(t *testing.T, row protocolRow) {
		const n = 4000
		srv := row.server(t, 3, 12, 2)
		ws := row.wires(t, srv, n, 6)
		postMixedConcurrently(t, newHTTPServer(t, srv), row.route+"/reports", ws, n)
		row.requireState(t, srv, ws.offline(0, n))
	})
}

// postMixedConcurrently splits n reports into chunks and posts them from
// several goroutines at once, even chunks as JSON arrays and odd ones as
// binary frames, so the tier's one table is reached in an arbitrary order
// over both wires. Every chunk must be accepted whole.
func postMixedConcurrently(t *testing.T, ts *httptest.Server, path string, ws wireSet, n int) {
	t.Helper()
	const posters, chunk = 8, 125
	type body struct {
		data        []byte
		contentType string
		reports     int
	}
	var bodies []body
	for k := 0; k*chunk < n; k++ {
		lo, hi := k*chunk, min((k+1)*chunk, n)
		if k%2 == 0 {
			bodies = append(bodies, body{ws.json(lo, hi), "application/json", hi - lo})
		} else {
			bodies = append(bodies, body{ws.frame(lo, hi), BinaryContentType, hi - lo})
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := p; k < len(bodies); k += posters {
				b := bodies[k]
				resp, err := ts.Client().Post(ts.URL+path, b.contentType, bytes.NewReader(b.data))
				if err != nil {
					t.Error(err)
					return
				}
				var ack WireBatchAck
				err = json.NewDecoder(resp.Body).Decode(&ack)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || ack.Accepted != b.reports {
					t.Errorf("chunk %d (%s): status %d, ack %+v, err %v", k, b.contentType, resp.StatusCode, ack, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestBinaryBatchMatchesJSONAllProtocols: a client submitting over the
// binary wire produces estimates bit-identical to the same client (same
// seed, same population) submitting JSON. The perturbation is client-side
// and seed-deterministic, so any divergence is a wire codec bug.
func TestBinaryBatchMatchesJSONAllProtocols(t *testing.T) {
	forRows(t, protocolRows, binaryMatchesJSON)
}

func binaryMatchesJSON(t *testing.T, row protocolRow) {
	const n = 600
	tsJSON, tsBin := newHTTPServer(t, row.server(t, 3, 17, 2)), newHTTPServer(t, row.server(t, 3, 17, 2))
	jsonClient := mustNewClient(t, row, tsJSON, 42)
	binClient := mustNewClient(t, row, tsBin, 42, WithBinary(true))
	for _, cl := range []tierClient{jsonClient, binClient} {
		ack, err := cl.submitN(n)
		if err != nil {
			t.Fatal(err)
		}
		if ack.Accepted != n || ack.Rejected != 0 {
			t.Fatalf("ack %+v, want %d accepted", ack, n)
		}
	}
	got, want := getBody(t, tsBin.Client(), tsBin.URL+row.route+"/estimates"), getBody(t, tsJSON.Client(), tsJSON.URL+row.route+"/estimates")
	if !bytes.Equal(got, want) {
		t.Fatalf("binary estimates diverge from JSON:\nbinary %s\njson   %s", got, want)
	}
}

// TestWALCrashRecoveryBitIdentical: ingest through a WAL-backed server,
// compact mid-stream, tear the process down SIGKILL-style (no Close, a
// torn record on disk), restart on the same directory, and the recovered
// state must be byte-identical to an uninterrupted run over the same
// reports — recovered from snapshot + tail, not raw records alone.
func TestWALCrashRecoveryBitIdentical(t *testing.T) { forRows(t, protocolRows, crashRecovery) }

func crashRecovery(t *testing.T, row protocolRow) {
	const n = 1200
	ref := row.server(t, 3, 10, 2)
	ws := row.wires(t, ref, n, 17)
	ws.feed(ref, 0, n, 64)
	// SyncAlways stands in for "the bytes reached the kernel before the
	// kill": the recovery guarantee is relative to what the fsync policy
	// persisted.
	dir := t.TempDir()
	opts := []ServerOption{WithWAL(dir), WithWALOptions(wal.Options{Sync: wal.SyncAlways, SegmentBytes: 8 << 10})}
	crashed := row.server(t, 3, 10, 2, opts...)
	ws.feed(crashed, 0, 600, 64)
	if err := row.compact(crashed); err != nil {
		t.Fatal(err)
	}
	ws.feed(crashed, 600, n, 64)
	// No crashed.Close(): the process is "killed", leaving a torn frame
	// behind as a mid-write kill would.
	tearLastSegment(t, dir+"/"+row.walSub)
	restarted := row.server(t, 3, 10, 2, opts...)
	defer restarted.Close()
	row.requireSame(t, restarted, ref)
}

// TestBinaryWALReplay holds a log of binary frames to the per-report path:
// frames from one report to 4,096, kept raw ('W') or as sealed deltas
// ('E'), many small segments and a torn tail must replay to state — and a
// served estimates body — byte-identical to one offline aggregator fed the
// same reports one decoded report at a time, at a domain whose mean frame
// counts fit the checked frame's inline table and at one beyond it. Rows
// run by tier.
func TestBinaryWALReplay(t *testing.T) {
	t.Run("frequency", func(t *testing.T) { forRows(t, frequencyRows, binaryReplay) })
	t.Run("mean", func(t *testing.T) { forRows(t, meanRows, binaryReplay) })
}

func binaryReplay(t *testing.T, row protocolRow) {
	sizes := []int{1, 64, 4096, 7, 500, 63, 1, 2048}
	domains := []int{5, 200}
	if row.items {
		domains = domains[:1] // a frequency frame carries no cell table to outgrow
	}
	for _, classes := range domains {
		t.Run(fmt.Sprintf("c=%d", classes), func(t *testing.T) {
			dir := t.TempDir()
			build := func() *Server {
				return row.server(t, classes, 10, 2, WithWAL(dir), WithCompactAfter(1<<40),
					WithWALOptions(wal.Options{Sync: wal.SyncNever, SegmentBytes: 2 << 10}))
			}
			srv := build()
			total := 0
			for _, n := range sizes {
				total += n
			}
			ws := row.wires(t, srv, total, 1)
			for lo, k := 0, 0; k < len(sizes); lo, k = lo+sizes[k], k+1 {
				if code := postBinary(srv, row.route+"/reports", ws.frame(lo, lo+sizes[k])); code != http.StatusOK {
					t.Fatalf("POST %d-report frame: status %d", sizes[k], code)
				}
			}
			want := ws.offline(0, total)
			row.requireState(t, srv, want)
			body := serve(srv, "GET", row.route+"/estimates", nil).Body.Bytes()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			tearLastSegment(t, dir+"/"+row.walSub)
			restarted := build()
			defer restarted.Close()
			row.requireState(t, restarted, want)
			if got := serve(restarted, "GET", row.route+"/estimates", nil).Body.Bytes(); !bytes.Equal(got, body) {
				t.Fatalf("replayed estimates diverge:\nafter restart %s\nbefore        %s", got, body)
			}
		})
	}
}

// TestServerCheckpointRestart simulates a restart mid-collection:
// snapshot, rebuild, restore, continue — state byte-identical to the
// snapshotted server and then to a server that never restarted.
func TestServerCheckpointRestart(t *testing.T) { forRows(t, protocolRows, checkpointRestart) }

func checkpointRestart(t *testing.T, row protocolRow) {
	whole := row.server(t, 2, 6, 3)
	ws := row.wires(t, whole, 600, 3)
	ws.feed(whole, 0, 600, 50)
	a := row.server(t, 2, 6, 3)
	ws.feed(a, 0, 300, 1) // single reports
	snap, err := row.snapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	b := row.server(t, 2, 6, 3) // "restart": the same configuration
	if err := row.restore(b, snap); err != nil {
		t.Fatal(err)
	}
	row.requireSame(t, b, a)
	ws.feed(b, 300, 600, 50)
	row.requireSame(t, b, whole)
}

// TestSnapshotRefusesMismatchedProtocol: a snapshot restores only into a
// server with the identical protocol fingerprint — any other row, another
// class count, item domain or budget is refused with
// core.ErrIncompatibleState and leaves the state untouched, and a corrupt
// snapshot is refused. A restart refuses a WAL whose compaction snapshot
// any other protocol of the tier wrote, or another budget.
func TestSnapshotRefusesMismatchedProtocol(t *testing.T) {
	forRows(t, protocolRows, foreignStateRefused)
}

func foreignStateRefused(t *testing.T, row protocolRow) {
	srv := row.server(t, 2, 6, 3)
	row.mustFeed(t, srv, 1, 0, 100, 10)
	snap, err := row.snapshot(srv)
	if err != nil {
		t.Fatal(err)
	}
	refuse := func(what string, o protocolRow, other *Server) {
		t.Helper()
		if err := o.restore(other, snap); !errors.Is(err, core.ErrIncompatibleState) {
			t.Fatalf("%s took the snapshot (err=%v)", what, err)
		}
		if o.reports(other) != 0 {
			t.Fatalf("%s: a refused restore changed the state", what)
		}
	}
	for _, o := range protocolRows {
		if o.name != row.name {
			refuse(o.name, o, o.server(t, 2, 6, 3))
		}
	}
	refuse("other classes", row, row.server(t, 3, 6, 3))
	refuse("other budget", row, row.server(t, 2, 6, 1))
	if row.items { // the mean tier has no item domain
		refuse("other items", row, row.server(t, 2, 7, 3))
	}
	if err := row.restore(srv, []byte("not an envelope")); err == nil || row.reports(srv) != 100 {
		t.Fatalf("corrupt snapshot: err=%v, %d reports held", err, row.reports(srv))
	}

	dir := t.TempDir()
	logged := row.server(t, 2, 6, 3, WithWAL(dir))
	row.mustFeed(t, logged, 1, 0, 50, 10)
	if err := row.compact(logged); err != nil { // leave a snapshot behind
		t.Fatal(err)
	}
	row.mustFeed(t, logged, 2, 0, 10, 10)
	if err := logged.Close(); err != nil {
		t.Fatal(err)
	}
	for _, o := range protocolRows {
		if o.name != row.name && o.route == row.route { // the tier's log
			if _, err := o.open(t, 2, 6, 3, WithWAL(dir)); err == nil {
				t.Fatalf("a %s server replayed a %s WAL", o.name, row.name)
			}
		}
	}
	if _, err := row.open(t, 2, 6, 1, WithWAL(dir)); err == nil {
		t.Fatal("a server at another budget replayed the WAL")
	}
}

// TestFederatedMergeEqualsCentralized: four edge collectors ingesting
// disjoint slices of a stream and pushing their drained state through the
// root's POST /merge leave the root byte-identical to one centralized
// server ingesting the whole stream itself. The first edge's first push
// fails: as mcimedge's retry loop does, MergeState folds the drained
// envelope back in, and the next drain carries those reports again —
// nothing lost or double-counted.
func TestFederatedMergeEqualsCentralized(t *testing.T) { forRows(t, protocolRows, federation) }

func federation(t *testing.T, row protocolRow) {
	const n, edges = 1500, 4
	central := row.server(t, 3, 10, 2)
	ws := row.wires(t, central, n, 29)
	ws.feed(central, 0, n, 64)
	root := row.server(t, 3, 10, 2)
	ts := newHTTPServer(t, root)
	for e := 0; e < edges; e++ {
		lo, hi := e*n/edges, (e+1)*n/edges
		edge := row.server(t, 3, 10, 2)
		if e == 0 { // "push failed": put it back, ingest the rest, drain again
			mid := (lo + hi) / 2
			ws.feed(edge, lo, mid, 64)
			env, _, err := row.drain(edge)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := edge.MergeState(env); err != nil || got != mid-lo {
				t.Fatalf("MergeState = %d, %v", got, err)
			}
			lo = mid
		}
		ws.feed(edge, lo, hi, 64)
		lo = e * n / edges
		env, drained, err := row.drain(edge)
		if err != nil || drained != hi-lo || row.reports(edge) != 0 {
			t.Fatalf("edge %d drained %d of %d reports and holds %d (%v)", e, drained, hi-lo, row.reports(edge), err)
		}
		resp, err := ts.Client().Post(ts.URL+"/merge", "application/octet-stream", bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		var ack WireMergeAck
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || ack.Merged != hi-lo {
			t.Fatalf("edge %d push: status %d, ack %+v, err %v", e, resp.StatusCode, ack, err)
		}
	}
	row.requireSame(t, root, central)
}

// TestEstimateCacheBitIdentical pins the cache's exact mode: a server with
// the cache on (the default) serves estimate bodies byte-identical to a
// server with it off, before and after new reports invalidate the cached
// entry, and the repeat read at an unchanged version is a hit.
func TestEstimateCacheBitIdentical(t *testing.T) { forRows(t, protocolRows, cacheMatchesRecompute) }

func cacheMatchesRecompute(t *testing.T, row protocolRow) {
	cached := row.server(t, 3, 32, 2)
	cachedTS, plainTS := newHTTPServer(t, cached), newHTTPServer(t, row.server(t, 3, 32, 2, WithEstimateCacheDisabled()))
	submit := func(n int) {
		for _, ts := range []*httptest.Server{cachedTS, plainTS} {
			if _, err := mustNewClient(t, row, ts, 99).submitN(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(ts *httptest.Server) []byte { return getBody(t, ts.Client(), ts.URL+row.route+"/estimates") }
	submit(300)
	first, again, plain := read(cachedTS), read(cachedTS), read(plainTS)
	if !bytes.Equal(first, plain) || !bytes.Equal(again, plain) {
		t.Fatalf("cached body diverges from uncached render:\n%s\n%s\nvs\n%s", first, again, plain)
	}
	if hits := row.engine(cached).cacheHits(); hits < 1 {
		t.Fatalf("repeat read at an unchanged version recorded %d hits, want >= 1", hits)
	}
	// New reports move the version: the cache must re-render, and the fresh
	// body must again match the uncached server exactly.
	submit(50)
	fresh := read(cachedTS)
	if !bytes.Equal(fresh, read(plainTS)) {
		t.Fatal("post-invalidation cached body diverges from uncached render")
	}
	if bytes.Equal(fresh, first) {
		t.Fatal("cache served the pre-ingest body after the version moved")
	}
}

// TestBinaryIngestAllocatesNothing pins a binary write: checking a frame,
// and then folding a large one into a pooled delta, sealing, logging and
// merging it, or logging a small one raw and folding it in under the lock,
// allocate nothing — with a log and without one, at a domain whose mean
// frame counts fit the checked frame's inline table.
func TestBinaryIngestAllocatesNothing(t *testing.T) { forRows(t, protocolRows, binaryIngestAllocs) }

func binaryIngestAllocs(t *testing.T, row protocolRow) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	const runs = 20 // AllocsPerRun applies each frame runs+1 times
	for _, durable := range []bool{false, true} {
		var opts []ServerOption
		if durable {
			opts = []ServerOption{WithWAL(t.TempDir()), WithWALOptions(wal.Options{Sync: wal.SyncNever}), WithCompactAfter(1 << 40)}
		}
		srv := row.server(t, 5, 100, 2, opts...)
		defer srv.Close()
		tr := row.engine(srv)
		ws := row.wires(t, srv, 513, 9)
		for _, frame := range [][]byte{ws.frame(0, 512), ws.frame(512, 513)} {
			f, err := tr.checkFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(runs, func() {
				if _, err := tr.checkFrame(frame); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("checking a %d-report frame allocated %v times", f.Count(), allocs)
			}
			before := tr.logged()
			if allocs := testing.AllocsPerRun(runs, func() {
				if err := tr.ingestBinary(frame, f); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Fatalf("durable=%v: a %d-report frame allocated %v times", durable, f.Count(), allocs)
			}
			// Each write logs one record: a small one (no longer than the
			// table has cells) the frame raw, a large one the smaller of its
			// sealed delta and the frame. A sealed delta is at most a varint
			// a cell and its envelope, so a longer frame logs the delta.
			cells := tr.tableCells()
			small, sealedWins := len(frame) <= cells, len(frame) > binary.MaxVarintLen64*cells+1024
			after := tr.logged()
			delta, raw := after[0]-before[0], after[1]-before[1]
			if want := map[bool]int64{false: 0, true: runs + 1}[durable]; tr.small(len(frame)) != small ||
				delta+raw != want || after[2] != before[2] || after[3] != before[3] ||
				small && delta != 0 || sealedWins && raw != 0 {
				t.Fatalf("durable=%v: %d-report frames of %d bytes logged %v → %v (small: %v)",
					durable, f.Count(), len(frame), before, after, small)
			}
		}
		if got := row.reports(srv); got != (runs+1)*513 {
			t.Fatalf("the tier holds %d reports, want %d", got, (runs+1)*513)
		}
	}
}

// TestImpossibleStateRefused: a CRC-valid envelope whose table no report
// stream could produce — a negative count, counts that do not sum to the
// reports, a cell above its row's reports — is refused by
// UnmarshalAggregator and answered 400 on POST /merge with nothing merged.
// So is the gob state of the one framework that used to accept it: PTS-CP
// label counts {-7, 3} over one report with an item counted 2⁴⁰ times.
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
	forRows(t, protocolRows, func(t *testing.T, row protocolRow) {
		srv := row.server(t, 3, 10, 2)
		if err := row.restore(srv, mustRead(t, filepath.Join("testdata/state_parent", row.name+".env"))); err != nil {
			t.Fatal(err)
		}
		fp, payload, err := state.Decode(row.mustSnapshot(t, srv))
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
		if row.name == "ptscp" {
			bad["gob state from before tables"] = state.Encode(fp, legacy.Bytes())
		}
		path := row.route + "/estimates"
		before, reports := serve(srv, "GET", path, nil).Body.Bytes(), row.reports(srv)
		for what, env := range bad {
			if err := row.unmarshal(srv, env); err == nil {
				t.Errorf("%s: UnmarshalAggregator accepted it", what)
			}
			if rec := serve(srv, "POST", "/merge", env); rec.Code != http.StatusBadRequest {
				t.Errorf("%s: /merge answered %d, want 400", what, rec.Code)
			}
			if got := serve(srv, "GET", path, nil).Body.Bytes(); row.reports(srv) != reports || !bytes.Equal(got, before) {
				t.Fatalf("%s: a refused merge changed the aggregate", what)
			}
		}
	})
}

// TestParentWrittenStateRestores restores an envelope the previous state
// format wrote (gob payloads, before count tables) and holds what the
// server then serves to the bytes the previous version served from the
// same envelope (testdata/state_parent).
func TestParentWrittenStateRestores(t *testing.T) {
	forRows(t, protocolRows, func(t *testing.T, row protocolRow) {
		srv := row.server(t, 3, 10, 2)
		if err := row.restore(srv, mustRead(t, filepath.Join("testdata/state_parent", row.name+".env"))); err != nil {
			t.Fatal(err)
		}
		want := mustRead(t, filepath.Join("testdata/state_parent", row.name+".estimates.json"))
		if got := serve(srv, "GET", row.route+"/estimates", nil).Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("restored state serves\n%s\nthe previous version served\n%s", got, want)
		}
	})
}

// The twin tests' names, kept so every test id they printed still runs:
// where a twin printed subtests, its name reruns the property on those rows;
// where it printed none, on one row.
func TestServedMeanMatchesOffline(t *testing.T) { forRows(t, meanRows, servedMatchesOffline) }
func TestEndToEndNamedPTSItem(t *testing.T)     { forRows(t, rowsNamed("pts+olh"), servedMatchesOffline) }
func TestBinaryMeanBatchMatchesJSONAllFrameworks(t *testing.T) {
	forRows(t, meanRows, binaryMatchesJSON)
}
func TestMeanWALCrashRecoveryBitIdentical(t *testing.T) { forRows(t, meanRows, crashRecovery) }
func TestWALRecoveryAcrossCompaction(t *testing.T)      { forRows(t, tierCases, crashRecovery) }
func TestMeanBinaryWALReplayMatchesPerReportAdd(t *testing.T) {
	forRows(t, rowsNamed("cpmean", "ptsmean"), binaryReplay)
}
func TestMeanCheckpointRestart(t *testing.T) { forRows(t, rowsNamed("cpmean"), checkpointRestart) }
func TestWALRefusesForeignLog(t *testing.T)  { forRows(t, rowsNamed("ptscp"), foreignStateRefused) }
func TestMeanWALRefusesForeignSnapshot(t *testing.T) {
	forRows(t, rowsNamed("cpmean"), foreignStateRefused)
}
func TestFederatedMeanMergeEqualsCentralized(t *testing.T) { forRows(t, meanRows, federation) }
func TestDrainPushFailureRemerge(t *testing.T)             { forRows(t, rowsNamed("pts"), federation) }
func TestMeanDrainRemerge(t *testing.T)                    { forRows(t, rowsNamed("ptsmean"), federation) }
func TestMeanEstimateCacheBitIdentical(t *testing.T)       { forRows(t, meanRows, cacheMatchesRecompute) }
func TestMeanApplyBinaryAllocatesNothing(t *testing.T) {
	forRows(t, rowsNamed("cpmean"), binaryIngestAllocs)
}
