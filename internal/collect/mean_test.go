package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// meanFrameworks is every numeric protocol the mean-tier tests cover.
var meanFrameworks = []string{"hecmean", "ptsmean", "cpmean"}

func mustNumericProtocol(t testing.TB, name string, classes int, eps, split float64) *core.NumericProtocol {
	t.Helper()
	p, err := core.NewNumericProtocol(name, classes, eps, split)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newMeanServer builds a mean-only collection server (nil frequency
// protocol) for the given numeric framework.
func newMeanServer(t testing.TB, name string, classes int, eps, split float64, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := NewServer(nil, append([]ServerOption{WithMean(mustNumericProtocol(t, name, classes, eps, split))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// meanTestDataset is a small deterministic skewed population.
func meanTestDataset(classes, n int, seed uint64) *mean.Dataset {
	r := xrand.New(seed)
	d := &mean.Dataset{Classes: classes, Name: "test"}
	for i := 0; i < n; i++ {
		c := r.Intn(classes)
		x := 0.5*float64(c) - 0.4 + 0.2*r.NormFloat64()
		if x > 1 {
			x = 1
		}
		if x < -1 {
			x = -1
		}
		d.Values = append(d.Values, mean.Value{Class: c, X: x})
	}
	return d
}

// meanWireStream deterministically encodes n reports for proto, with the
// canonical user index running over the stream.
func meanWireStream(t testing.TB, proto *core.NumericProtocol, n int, seed uint64) []WireMeanReport {
	t.Helper()
	enc, r := proto.Encoder(), xrand.New(seed)
	out := make([]WireMeanReport, n)
	for i := range out {
		v := mean.Value{Class: i % proto.Classes(), X: float64(i%21)/10 - 1}
		out[i] = proto.EncodeMeanReport(enc.Encode(v, i, r))
	}
	return out
}

// ingestMeanWires pushes a wire stream through the mean ingest path in
// batches, as the batch endpoint would.
func ingestMeanWires(t testing.TB, srv *Server, wires []WireMeanReport, batch int) {
	t.Helper()
	ingestTier(t, srv.mean, wires, batch)
}

// offlineEstimator builds the mean.Estimator matching a canonical numeric
// protocol name.
func offlineEstimator(t testing.TB, name string, eps, split float64) mean.Estimator {
	t.Helper()
	switch name {
	case "hecmean":
		return mean.NewHECMean(eps)
	case "ptsmean":
		e, err := mean.NewPTSMean(eps, split)
		if err != nil {
			t.Fatal(err)
		}
		return e
	case "cpmean":
		e, err := mean.NewCPMeanEstimator(eps, split)
		if err != nil {
			t.Fatal(err)
		}
		return e
	default:
		t.Fatalf("unknown mean framework %q", name)
		return nil
	}
}

// TestServedMeanMatchesOffline pins the tier's acceptance criterion: the
// full HTTP pipeline — /mean/config fetch, client-side encoding with the
// canonical user index, buffered batch ingestion into the tier aggregate
// — produces estimates bit-identical to the offline Estimator.Estimate
// pass under the same seed and user assignment, for every framework.
func TestServedMeanMatchesOffline(t *testing.T) {
	const classes, n, eps, split = 3, 4000, 2.0, 0.5
	const seed = 42
	data := meanTestDataset(classes, n, 9)
	for _, name := range meanFrameworks {
		t.Run(name, func(t *testing.T) {
			srv := newMeanServer(t, name, classes, eps, split)
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			client, err := NewMeanClient(ts.URL, ts.Client(), seed, WithBatchSize(128))
			if err != nil {
				t.Fatal(err)
			}
			if got := client.Protocol().Name(); got != name {
				t.Fatalf("client negotiated %q, want %q", got, name)
			}
			for i, v := range data.Values {
				if err := client.Buffer(i, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := client.Flush(); err != nil {
				t.Fatal(err)
			}
			served, err := client.Estimates()
			if err != nil {
				t.Fatal(err)
			}
			if served.Reports != n {
				t.Fatalf("served %d reports, want %d", served.Reports, n)
			}

			offline, err := offlineEstimator(t, name, eps, split).Estimate(data, xrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(served.Means, offline.Means) {
				t.Fatalf("served means %v not bit-identical to offline %v", served.Means, offline.Means)
			}
			if !reflect.DeepEqual(served.ClassSizes, offline.ClassSizes) {
				t.Fatalf("served class sizes %v not bit-identical to offline %v", served.ClassSizes, offline.ClassSizes)
			}
		})
	}
}

// TestFederatedMeanMergeEqualsCentralized pins federation parity for the
// mean tier: 4 edge collectors ingesting disjoint slices and pushing their
// drained state through the root's POST /merge produce estimates
// bit-identical to one centralized server ingesting the whole stream, for
// every framework.
func TestFederatedMeanMergeEqualsCentralized(t *testing.T) {
	const classes, n, edges = 3, 1500, 4
	for _, name := range meanFrameworks {
		t.Run(name, func(t *testing.T) {
			proto := mustNumericProtocol(t, name, classes, 2, 0.5)
			wires := meanWireStream(t, proto, n, 29)

			central := newMeanServer(t, name, classes, 2, 0.5)
			ingestMeanWires(t, central, wires, 64)

			root := newMeanServer(t, name, classes, 2, 0.5)
			ts := httptest.NewServer(root.Handler())
			defer ts.Close()

			for e := 0; e < edges; e++ {
				edge := newMeanServer(t, name, classes, 2, 0.5)
				var slice []WireMeanReport
				for i := e; i < n; i += edges {
					slice = append(slice, wires[i])
				}
				ingestMeanWires(t, edge, slice, 64)
				env, _, err := edge.DrainMean()
				if err != nil {
					t.Fatal(err)
				}
				if edge.MeanReports() != 0 {
					t.Fatalf("edge %d holds %d reports after drain", e, edge.MeanReports())
				}
				resp, err := http.Post(ts.URL+"/merge", "application/octet-stream", bytes.NewReader(env))
				if err != nil {
					t.Fatal(err)
				}
				var ack WireMergeAck
				if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("edge %d push status %d", e, resp.StatusCode)
				}
				if ack.Merged != len(slice) {
					t.Fatalf("edge %d merged %d reports, want %d", e, ack.Merged, len(slice))
				}
			}

			if root.MeanReports() != n {
				t.Fatalf("root holds %d reports, want %d", root.MeanReports(), n)
			}
			rootAgg, centralAgg := meanAgg(t, root), meanAgg(t, central)
			if !reflect.DeepEqual(rootAgg.Means(), centralAgg.Means()) {
				t.Fatal("federated means not bit-identical to centralized ingestion")
			}
			if !reflect.DeepEqual(rootAgg.ClassSizes(), centralAgg.ClassSizes()) {
				t.Fatal("federated class sizes not bit-identical to centralized ingestion")
			}
		})
	}
}

// TestMeanWALCrashRecoveryBitIdentical pins mean-tier durability: ingest
// through a WAL-backed server, tear the process down SIGKILL-style (no
// Close, a torn frame on disk) — once mid-stream and once after a
// compaction — restart on the same directory, and the recovered estimates
// must be bit-identical to an uninterrupted run.
func TestMeanWALCrashRecoveryBitIdentical(t *testing.T) {
	const classes, n = 3, 1200
	for _, name := range meanFrameworks {
		t.Run(name, func(t *testing.T) {
			proto := mustNumericProtocol(t, name, classes, 2, 0.5)
			wires := meanWireStream(t, proto, n, 17)

			ref := newMeanServer(t, name, classes, 2, 0.5)
			ingestMeanWires(t, ref, wires, 64)

			dir := t.TempDir()
			walOpts := WithWALOptions(wal.Options{Sync: wal.SyncAlways, SegmentBytes: 8 << 10})
			crashed := newMeanServer(t, name, classes, 2, 0.5, WithWAL(dir), walOpts)
			ingestMeanWires(t, crashed, wires[:600], 64)
			// Mid-stream compaction: recovery must come from snapshot + tail,
			// not raw records alone.
			if err := crashed.CompactMean(); err != nil {
				t.Fatal(err)
			}
			ingestMeanWires(t, crashed, wires[600:], 64)
			// No crashed.Close(): the process is "killed". Leave a torn frame
			// behind, as a mid-write kill would (the mean tier logs under
			// <dir>/mean).
			tearLastSegment(t, dir+"/mean")

			restarted := newMeanServer(t, name, classes, 2, 0.5, WithWAL(dir), walOpts)
			defer restarted.Close()
			if restarted.MeanReports() != n {
				t.Fatalf("recovered %d reports, want %d", restarted.MeanReports(), n)
			}
			recovered, reference := meanAgg(t, restarted), meanAgg(t, ref)
			if !reflect.DeepEqual(recovered.Means(), reference.Means()) {
				t.Fatal("recovered means not bit-identical to uninterrupted run")
			}
			if !reflect.DeepEqual(recovered.ClassSizes(), reference.ClassSizes()) {
				t.Fatal("recovered class sizes not bit-identical to uninterrupted run")
			}
		})
	}
}

// TestMeanWALRefusesForeignSnapshot checks a restart refuses a mean WAL
// whose compaction snapshot belongs to a different numeric protocol.
func TestMeanWALRefusesForeignSnapshot(t *testing.T) {
	dir := t.TempDir()
	a := newMeanServer(t, "cpmean", 3, 2, 0.5, WithWAL(dir))
	ingestMeanWires(t, a, meanWireStream(t, a.meanProto, 50, 1), 10)
	if err := a.CompactMean(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(nil, WithMean(mustNumericProtocol(t, "ptsmean", 3, 2, 0.5)), WithWAL(dir)); err == nil {
		t.Fatal("ptsmean server replayed a cpmean WAL")
	}
}

// TestMergeRoutesBothTiers checks the shared federation endpoint on a
// server hosting both tiers: envelopes land in the tier whose fingerprint
// they carry, and an envelope matching neither is a 409.
func TestMergeRoutesBothTiers(t *testing.T) {
	freq := mustProtocol(t, "ptscp", 2, 6, 2, 0.5)
	srv, err := NewServer(freq, WithMean(mustNumericProtocol(t, "cpmean", 2, 2, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A frequency envelope.
	freqPeer, err := NewServer(mustProtocol(t, "ptscp", 2, 6, 2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	ingestWires(t, freqPeer, wireStream(t, freqPeer.proto, 30, 3), 10)
	freqEnv, err := freqPeer.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// A mean envelope.
	meanPeer := newMeanServer(t, "cpmean", 2, 2, 0.5)
	ingestMeanWires(t, meanPeer, meanWireStream(t, meanPeer.meanProto, 40, 4), 10)
	meanEnv, err := meanPeer.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}

	// post returns the status and, on a 200, the ack's post-merge total.
	post := func(env []byte) (code, reports int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/merge", "application/octet-stream", bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack WireMergeAck
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, ack.Reports
	}
	if code, reports := post(freqEnv); code != http.StatusOK || reports != 30 {
		t.Fatalf("frequency envelope status %d, ack reports %d (want 200, 30)", code, reports)
	}
	// The ack's total is the tier that took the envelope's, not both tiers'.
	if code, reports := post(meanEnv); code != http.StatusOK || reports != 40 {
		t.Fatalf("mean envelope status %d, ack reports %d (want 200, 40)", code, reports)
	}
	if srv.Reports() != 30 {
		t.Fatalf("frequency tier holds %d reports, want 30", srv.Reports())
	}
	if srv.MeanReports() != 40 {
		t.Fatalf("mean tier holds %d reports, want 40", srv.MeanReports())
	}
	// Wrong-budget mean envelope: valid, just not ours → 409.
	foreign := newMeanServer(t, "cpmean", 2, 1, 0.5)
	ingestMeanWires(t, foreign, meanWireStream(t, foreign.meanProto, 10, 5), 10)
	foreignEnv, err := foreign.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := post(foreignEnv); code != http.StatusConflict {
		t.Fatalf("foreign mean envelope status %d, want 409", code)
	}
	if code, _ := post([]byte("garbage")); code != http.StatusBadRequest {
		t.Fatal("corrupt envelope not a 400")
	}
	// MergeState (the programmatic form mcimedge's re-merge uses) routes
	// identically.
	if _, err := srv.MergeState(foreignEnv); !errors.Is(err, core.ErrIncompatibleState) {
		t.Fatalf("MergeState foreign envelope err=%v, want ErrIncompatibleState", err)
	}
	n, err := srv.MergeState(meanEnv)
	if err != nil || n != 40 {
		t.Fatalf("MergeState mean envelope = %d, %v", n, err)
	}
	if srv.MeanReports() != 80 {
		t.Fatalf("mean tier holds %d reports after re-merge, want 80", srv.MeanReports())
	}
}

// TestMeanEndpointValidation covers the batch machinery reused by the mean
// tier: per-item rejections with itemized errors, the 413 body cap, the
// single-report endpoint, /mean/config and the /stats mean block.
func TestMeanEndpointValidation(t *testing.T) {
	srv := newMeanServer(t, "cpmean", 2, 2, 0.5, WithMaxBodyBytes(1024))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Mixed batch: valid, bad label, bad symbol.
	body := `[{"label":0,"symbol":1},{"label":9,"symbol":0},{"label":1,"symbol":7},{"label":1,"symbol":2}]`
	resp, err := http.Post(ts.URL+"/mean/reports", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ack WireBatchAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted != 2 || ack.Rejected != 2 || len(ack.Errors) != 2 {
		t.Fatalf("ack %+v, want 2 accepted / 2 itemized rejections", ack)
	}
	if ack.Errors[0].Index != 1 || ack.Errors[1].Index != 2 {
		t.Fatalf("rejection indices %+v", ack.Errors)
	}

	// NDJSON path.
	resp, err = http.Post(ts.URL+"/mean/reports", NDJSONContentType,
		strings.NewReader("{\"label\":0,\"symbol\":0}\n{\"label\":1,\"symbol\":1}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ack.Accepted != 2 || ack.Rejected != 0 {
		t.Fatalf("ndjson ack %+v", ack)
	}

	// Oversized body → 413.
	big := bytes.Repeat([]byte(`{"label":0,"symbol":0} `), 200)
	resp, err = http.Post(ts.URL+"/mean/reports", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status %d, want 413", resp.StatusCode)
	}

	// Single-report endpoint.
	resp, err = http.Post(ts.URL+"/mean/report", "application/json", strings.NewReader(`{"label":1,"symbol":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single report status %d", resp.StatusCode)
	}
	if srv.MeanReports() != 5 {
		t.Fatalf("server holds %d mean reports, want 5", srv.MeanReports())
	}

	// /mean/config and /stats.
	var cfg WireMeanConfig
	resp, err = http.Get(ts.URL + "/mean/config")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cfg.Protocol != "cpmean" || cfg.Classes != 2 || cfg.MaxBodyBytes != 1024 {
		t.Fatalf("config %+v", cfg)
	}
	var st WireStats
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Mean == nil || st.Mean.Reports != 5 || st.Mean.Protocol != "cpmean" {
		t.Fatalf("stats mean block %+v", st.Mean)
	}
	// A mean-only server mounts no frequency endpoints.
	resp, err = http.Get(ts.URL + "/config")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/config on a mean-only server: status %d, want 404", resp.StatusCode)
	}
}

// TestMeanDrainRemerge documents the edge retry loop for the mean tier:
// drain, fail to push, MergeState the envelope back, drain again — nothing
// lost or double-counted.
func TestMeanDrainRemerge(t *testing.T) {
	edge := newMeanServer(t, "ptsmean", 2, 2, 0.5)
	wires := meanWireStream(t, edge.meanProto, 40, 4)
	ingestMeanWires(t, edge, wires[:30], 10)
	env, _, err := edge.DrainMean()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edge.MergeState(env); err != nil {
		t.Fatal(err)
	}
	ingestMeanWires(t, edge, wires[30:], 10)
	reEnv, _, err := edge.DrainMean()
	if err != nil {
		t.Fatal(err)
	}
	retaken := mustOpen(t, edge.meanProto.UnmarshalAggregator, reEnv)
	if retaken.N() != 40 {
		t.Fatalf("second drain carries %d reports, want all 40", retaken.N())
	}
	direct := newMeanServer(t, "ptsmean", 2, 2, 0.5)
	ingestMeanWires(t, direct, wires, 10)
	if !reflect.DeepEqual(retaken.Means(), meanAgg(t, direct).Means()) {
		t.Fatal("re-merged drain not bit-identical to direct ingestion")
	}
}

// TestMeanCheckpointRestart pins SnapshotMean/RestoreMean: snapshot,
// rebuild, restore, continue — bit-identical to a server that never
// restarted.
func TestMeanCheckpointRestart(t *testing.T) {
	proto := mustNumericProtocol(t, "cpmean", 2, 3, 0.5)
	wires := meanWireStream(t, proto, 600, 3)

	whole := newMeanServer(t, "cpmean", 2, 3, 0.5)
	ingestMeanWires(t, whole, wires, 50)

	a := newMeanServer(t, "cpmean", 2, 3, 0.5)
	ingestMeanWires(t, a, wires[:300], 50)
	snap, err := a.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}
	b := newMeanServer(t, "cpmean", 2, 3, 0.5)
	if err := b.RestoreMean(snap); err != nil {
		t.Fatal(err)
	}
	ingestMeanWires(t, b, wires[300:], 50)
	if b.MeanReports() != 600 {
		t.Fatalf("restored server holds %d reports, want 600", b.MeanReports())
	}
	if !reflect.DeepEqual(meanAgg(t, b).Means(), meanAgg(t, whole).Means()) {
		t.Fatal("restart not bit-identical")
	}
	// A foreign snapshot is refused and leaves the state untouched.
	foreign := newMeanServer(t, "cpmean", 2, 1, 0.5)
	fenv, err := foreign.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.RestoreMean(fenv); !errors.Is(err, core.ErrIncompatibleState) {
		t.Fatalf("foreign restore err=%v", err)
	}
	if b.MeanReports() != 600 {
		t.Fatal("failed restore mutated the aggregate")
	}
}

// TestMeanBinaryWALReplayMatchesPerReportAdd holds the mean log's replay to
// the per-report path: a WAL of frames, kept raw ('W') or as sealed deltas
// ('E') — an inline-table domain and one beyond it, frames from one report
// to 4,096, many small segments and a torn tail — must recover to a
// SnapshotMean envelope byte-identical to one aggregator fed the same
// frames one decoded report at a time.
func TestMeanBinaryWALReplayMatchesPerReportAdd(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes int
	}{{"cpmean", 5}, {"ptsmean", 200}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			build := func() *Server {
				return newMeanServer(t, tc.name, tc.classes, 2, 0.5, WithWAL(dir),
					WithWALOptions(wal.Options{Sync: wal.SyncNever, SegmentBytes: 2 << 10}),
					WithCompactAfter(1<<40))
			}
			srv := build()
			np := srv.MeanProtocol()
			ts := httptest.NewServer(srv.Handler())
			oracle, total := np.NewAggregator(), 0
			for seed, n := range []int{1, 64, 4096, 7, 500, 63, 1, 2048} {
				wires := meanWireStream(t, np, n, uint64(seed))
				frame, err := np.AppendBinaryMeanBatch(nil, wires)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.Post(ts.URL+"/mean/reports", BinaryContentType, bytes.NewReader(frame))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("POST %d-report frame: status %d", n, resp.StatusCode)
				}
				decoded, err := np.DecodeBinaryMeanBatch(frame)
				if err != nil || !reflect.DeepEqual(decoded, wires) {
					t.Fatalf("%d-report frame did not decode to its reports: %v", n, err)
				}
				for _, w := range decoded {
					rep, err := np.DecodeMeanReport(w)
					if err != nil {
						t.Fatal(err)
					}
					oracle.Add(rep)
				}
				total += n
			}
			want, err := np.MarshalAggregator(oracle)
			if err != nil {
				t.Fatal(err)
			}
			live, err := srv.SnapshotMean()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live, want) {
				t.Fatal("live mean state diverges from per-report Add over the same frames")
			}
			ts.Close()
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			tearLastSegment(t, dir+"/mean")
			restarted := build()
			got, err := restarted.SnapshotMean()
			if err != nil {
				t.Fatal(err)
			}
			if restarted.MeanReports() != total || !bytes.Equal(got, want) {
				t.Fatalf("replay recovered %d of %d reports, envelope identical: %v",
					restarted.MeanReports(), total, bytes.Equal(got, want))
			}
			if err := restarted.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMeanApplyBinaryAllocatesNothing pins a mean frame's write: with the
// counts carried inside the checked frame, folding it into a pooled delta
// and merging that into the aggregate allocates nothing at a domain the
// inline table holds.
func TestMeanApplyBinaryAllocatesNothing(t *testing.T) {
	srv := newMeanServer(t, "cpmean", 5, 2, 0.5)
	np := srv.MeanProtocol()
	frame, err := np.AppendBinaryMeanBatch(nil, meanWireStream(t, np, 4096, 3))
	if err != nil {
		t.Fatal(err)
	}
	f, err := srv.mean.c.validateBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := srv.mean.ingestBinary(frame, f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ingestBinary allocated %v times per frame, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := srv.mean.c.validateBinary(frame); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("validateBinary allocated %v times per frame, want 0", allocs)
	}
	if got, want := srv.MeanReports(), 101*4096; got != want {
		t.Fatalf("server holds %d reports, want %d", got, want)
	}
}
