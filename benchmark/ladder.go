package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/state"
	"repro/internal/tenant"
	"repro/internal/topk"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// The ladder times each layer in process, by calling its public functions
// from here over inputs generated from the run's seed at the shapes the
// workloads use. It is the other half of a traced run: the end-to-end pass
// says how long a batch takes between two processes, the ladder says how
// much of that each layer accounts for when nothing else is in the way.

// layerMetric is one per-layer metric: its row in BENCHMARK.json, and which
// end-to-end metric on which workload a change to it should move (the
// prediction a later change to that layer is held to).
type layerMetric struct {
	name, unit, better string
	moves              string
}

const (
	mvSetup   = "setup_s on every workload"
	mvFreq    = "reports_per_s, server_cpu_s_per_mreport on freq_bin_wal; op_p50_ms on recover_wal"
	mvNone    = "none: kept to answer whether the path earns its keep"
	mvMiss    = "tail.op_tail_ms on query_mixed (the miss path, ungated), not op_p50_ms"
	mvHit     = "op_p50_ms on query_mixed (the hit path)"
	mvState   = "tail.op_tail_ms on freq_bin_wal (compaction stalls, ungated); op_p50_ms on recover_wal (snapshot load)"
	mvMean    = "reports_per_s, server_cpu_s_per_mreport on mean_bin_wal"
	mvTopK    = "op_p50_ms, reports_per_s on topk_session_bin only"
	mvWAL     = "reports_per_s, tail.op_tail_ms on freq_bin_wal and mean_bin_wal"
	mvReplay  = "op_p50_ms, reports_per_s on recover_wal"
	mvExplain = "explains tail.op_tail_ms on freq_bin_wal and mean_bin_wal"
	mvValid   = "validity: says whether the run measured the server or the generator"
)

// layerMetrics is every per-layer metric a traced run prints, in the order
// BENCHMARK.json lists them.
var layerMetrics = []layerMetric{
	{"core.perturb.ns_per_report", "ns", "lower", mvSetup},
	{"core.encode.ns_per_report", "ns", "lower", mvSetup},
	{"core.frame_bytes_per_report", "B", "lower", "reports_per_s on freq_bin_wal; wal.bytes_per_report"},
	{"core.validate.ns_per_report", "ns", "lower", mvFreq},
	{"core.apply.ns_per_report", "ns", "lower", mvFreq},
	{"core.decode_json.ns_per_report", "ns", "lower", mvNone},
	{"core.clone_merge.ns_per_cell", "ns", "lower", mvMiss},
	{"core.estimates.ns_per_cell", "ns", "lower", mvMiss},
	{"core.marshal_agg.ns", "ns", "lower", mvState},
	{"core.unmarshal_agg.ns", "ns", "lower", mvState},
	{"core.envelope_bytes", "B", "lower", mvState},
	{"state.encode.ns", "ns", "lower", mvState},
	{"state.decode.ns", "ns", "lower", mvState},
	{"mean.perturb.ns_per_report", "ns", "lower", "setup_s on mean_bin_wal"},
	{"mean.validate.ns_per_report", "ns", "lower", mvMean},
	{"mean.apply.ns_per_report", "ns", "lower", mvMean},
	{"mean.frame_bytes_per_report", "B", "lower", mvMean},
	{"topk.encode.ns_per_report", "ns", "lower", "setup_s on topk_session_bin"},
	{"topk.frame_pack.ns_per_report", "ns", "lower", "none: packing is outside the session clock"},
	{"topk.peek_validate.ns_per_report", "ns", "lower", mvTopK},
	{"topk.absorb.ns_per_report", "ns", "lower", mvTopK},
	{"topk.merge_partial.ns_per_round", "ns", "lower", mvTopK},
	{"topk.advance.ns_per_round", "ns", "lower", mvTopK},
	{"topk.marshal_session.ns", "ns", "lower", "none today: the workload runs without a WAL"},
	{"wal.append_66k.ns_per_record.never", "ns", "lower", mvWAL},
	{"wal.append_66k.ns_per_record.interval", "ns", "lower", mvWAL},
	{"wal.append_66k.ns_per_record.always", "ns", "lower", mvNone},
	{"wal.append_66k.ns_per_record.interval.pN", "ns", "lower", mvWAL},
	{"wal.append_600b.ns_per_record.never", "ns", "lower", mvWAL},
	{"wal.append_600b.ns_per_record.interval", "ns", "lower", mvWAL},
	{"wal.append_600b.ns_per_record.always", "ns", "lower", mvNone},
	{"wal.append_600b.ns_per_record.interval.pN", "ns", "lower", mvWAL},
	{"wal.seal.ns", "ns", "lower", mvState},
	{"wal.replay.ns_per_record", "ns", "lower", mvReplay},
	{"wal.replay_parallel.ns_per_record", "ns", "lower", mvReplay},
	{"wal.fsyncs", "count", "lower", mvExplain},
	{"wal.compactions", "count", "lower", mvExplain},
	{"wal.segment_rolls", "count", "lower", mvExplain},
	{"wal.bytes_per_report", "B", "lower", "reports_per_s on freq_bin_wal and mean_bin_wal; op_p50_ms on recover_wal"},
	{"collect.ingest_bin.ns_per_report", "ns", "lower", mvFreq},
	{"collect.ingest_bin_wal.ns_per_report", "ns", "lower", mvFreq},
	{"collect.ingest_bin_wal.ns_per_report.pN", "ns", "lower", mvFreq},
	{"collect.mean_ingest_bin.ns_per_report", "ns", "lower", "reports_per_s on mean_bin_wal"},
	{"collect.mean_ingest_small.ns_per_frame", "ns", "lower", "none gated: the per-request cost of a 64-report frame, which no workload is made of"},
	{"collect.topk_ingest_bin.ns_per_report", "ns", "lower", mvTopK},
	{"collect.ingest_json.ns_per_report", "ns", "lower", mvNone},
	{"collect.ingest_ndjson.ns_per_report", "ns", "lower", mvNone},
	{"collect.ingest_single.ns_per_report", "ns", "lower", mvNone},
	{"collect.allocs_per_batch", "count", "lower", "server_cpu_s_per_mreport, server_rss_peak_mb on freq_bin_wal"},
	{"collect.estimates_hit.ns", "ns", "lower", mvHit},
	{"collect.estimates_miss.ns", "ns", "lower", mvMiss},
	{"collect.estimates_body_bytes", "B", "lower", "op_p50_ms, tail.op_tail_ms on query_mixed"},
	{"collect.cache_hit_ratio", "ratio", "higher", "op_p50_ms on query_mixed"},
	{"collect.merge_envelope.ns", "ns", "lower", "none today: federation has no workload"},
	{"collect.snapshot.ns", "ns", "lower", mvState},
	{"collect.restore.ns", "ns", "lower", "op_p50_ms on recover_wal once a snapshot exists"},
	{"tenant.route_overhead.ns_per_batch", "ns", "lower", "none expected: kept to catch a regression"},
	{"obs.metrics_render.ns", "ns", "lower", "none: guards the scrape the benchmark itself makes"},
	{"transport.write_ms_p50", "ms", "lower", "op_p50_ms on freq_bin_wal and mean_bin_wal"},
	{"transport.wait_ms_p50", "ms", "lower", "op_p50_ms on every workload"},
	{"transport.read_ms_p50", "ms", "lower", "op_p50_ms on query_mixed (a 380 KB reply)"},
	{"transport.ingest_overhead_ratio", "ratio", "lower", "the gap between the ladder and reports_per_s on freq_bin_wal"},
	{"server.cpu_user_s", "s", "lower", "server_cpu_s_per_mreport on the traced workload"},
	{"server.cpu_sys_s", "s", "lower", "server_cpu_s_per_mreport on the traced workload"},
	{"loadgen.cpu_s", "s", "lower", mvValid},
	{"loadgen.cpu_share", "ratio", "lower", mvValid},
	{"loadgen.max_late_ms", "ms", "lower", mvValid},
	{"loadgen.build_s", "s", "lower", "none: the build is outside setup_s"},
	{"host.cpu_slowdown", "ratio", "lower", "none: the box's speed during the traced pass, which the end-to-end times are rescaled by"},
	{"trace.overhead_ratio", "ratio", "lower", "none: the cost of tracing itself"},
	{"tail.op_tail_ms", "ms", "lower", "none gated: the workload's fixed tail percentile (p99 ingest, p90 query_mixed and topk_session_bin, p75 recover_wal), median of ten time slices; too unsteady on a shared host to carry a bound"},
	{"tail.op_max_ms", "ms", "lower", "none: the worst single operation behind tail.op_tail_ms"},
	{"secondary.op_p50_ms", "ms", "lower", "none: query_mixed's writer beside its reader"},
}

// ladder is one in-process pass over the layers.
type ladder struct {
	h     *harness
	tr    *tracer
	root  int64
	slice time.Duration
	out   map[string]float64
}

// maxBatches bounds the spans one layer contributes to a trace.
const maxBatches = 200

// bench measures fn and stores the result under name.
func (l *ladder) bench(name string, units float64, prep, fn func() error) error {
	v, err := l.measure(name, units, prep, fn)
	if err == nil {
		l.out[name] = v
	}
	return err
}

// measure times fn, a batch of units units of work, until the layer's
// slice of the budget is spent (at least three batches), records one span
// per batch under name and returns the median time per unit. prep, when
// set, runs untimed before every batch.
func (l *ladder) measure(name string, units float64, prep, fn func() error) (float64, error) {
	deadline := time.Now().Add(l.slice)
	var per []float64
	for i := 0; i < maxBatches && (i < 3 || time.Now().Before(deadline)); i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		t1 := time.Now()
		l.tr.add(l.root, 0, name, t0, t1)
		per = append(per, float64(t1.Sub(t0))/units)
	}
	l.tr.count(name, int64(len(per)))
	return median(per), nil
}

// serve pushes one request through a handler with no socket in between.
func serve(h http.Handler, method, path, contentType string, body []byte) (*httptest.ResponseRecorder, error) {
	return serveInto(nil, h, method, path, contentType, body)
}

// serveInto is serve with the reply collected in into (reset first) when it
// is not nil. A recorder's own buffer starts empty and doubles its way up,
// so a 386 KB reply would cost a megabyte of fresh, page-faulting memory per
// call, several times what serving it from the cache costs.
func serveInto(into *bytes.Buffer, h http.Handler, method, path, contentType string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	if into != nil {
		into.Reset()
		rec.Body = into
	}
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return rec, nil
}

// serveAll pushes every body through the handler once.
func serveAll(h http.Handler, path, contentType string, bodies [][]byte) error {
	for _, b := range bodies {
		if _, err := serve(h, http.MethodPost, path, contentType, b); err != nil {
			return err
		}
	}
	return nil
}

// inParallel runs fn once on each of harnessProcs goroutines.
func inParallel(fn func() error) error {
	return parallelFor(harnessProcs(), func(int) error { return fn() })
}

// ladderFrames is how many 512-report frames one ladder batch covers.
const ladderFrames = 8

// frames is ladderFrames at the harness's scale.
func (l *ladder) frames() int { return l.h.scaled(ladderFrames) }

// runLadder measures every in-process layer metric within budget.
func runLadder(h *harness, seed uint64, budget time.Duration, tr *tracer) (map[string]float64, error) {
	start := time.Now()
	l := &ladder{h: h, tr: tr, out: map[string]float64{}}
	l.root = tr.begin(0, 0, "ladder", start)
	defer func() { tr.end(l.root, time.Now()) }()
	// Set-up between layers (servers, logs, inputs) is untimed but spends
	// the same budget; the timed slices get what that is expected to leave.
	const timedLayers = 48
	l.slice = budget * 6 / 10 / timedLayers

	for _, part := range []func(seed uint64) error{l.core, l.readPath, l.mean, l.topk, l.wal, l.collect} {
		if err := part(seed); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// freqInputs is the frequency shape's inputs at every stage of the client
// half: pairs, reports, wire payloads, frames.
type freqInputs struct {
	p      *core.Protocol
	pairs  []core.Pair
	reps   []core.Report
	wires  []core.WirePayload
	frames [][]byte
}

func newFreqInputs(classes, items int, seed uint64, frames int) (*freqInputs, error) {
	p, err := freqProtocol(classes, items)
	if err != nil {
		return nil, err
	}
	in := &freqInputs{p: p}
	r := xrand.New(seed)
	enc := p.Encoder()
	for i := 0; i < frames*freqPerFrame; i++ {
		pair := skewedPair(r, classes, items)
		rep := enc.Encode(pair, r)
		in.pairs = append(in.pairs, pair)
		in.reps = append(in.reps, rep)
		in.wires = append(in.wires, p.EncodeReport(rep))
	}
	for f := 0; f < frames; f++ {
		frame, err := p.AppendBinaryBatch(nil, in.wires[f*freqPerFrame:(f+1)*freqPerFrame])
		if err != nil {
			return nil, err
		}
		in.frames = append(in.frames, frame)
	}
	return in, nil
}

func (in *freqInputs) aggregate() (core.Aggregator, error) {
	agg := in.p.NewAggregator()
	for _, f := range in.frames {
		if _, err := in.p.ApplyBinaryBatch(agg, f); err != nil {
			return nil, err
		}
	}
	return agg, nil
}

// core: the client half and the server's per-report kernels at the
// freq_bin_wal shape, and the persisted-state codec.
func (l *ladder) core(seed uint64) error {
	in, err := newFreqInputs(freqClasses, freqItems, seed, l.frames())
	if err != nil {
		return err
	}
	p, n := in.p, float64(len(in.pairs))
	enc, r := p.Encoder(), xrand.New(seed+1)
	if err := l.bench("core.perturb.ns_per_report", n, nil, func() error {
		for _, pair := range in.pairs {
			enc.Encode(pair, r)
		}
		return nil
	}); err != nil {
		return err
	}
	var buf []byte
	wires := make([]core.WirePayload, freqPerFrame)
	if err := l.bench("core.encode.ns_per_report", n, nil, func() error {
		for f := range in.frames {
			for j := range wires {
				wires[j] = p.EncodeReport(in.reps[f*freqPerFrame+j])
			}
			var err error
			if buf, err = p.AppendBinaryBatch(buf[:0], wires); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	l.out["core.frame_bytes_per_report"] = float64(len(in.frames[0])) / freqPerFrame
	if err := l.bench("core.validate.ns_per_report", n, nil, func() error {
		for _, f := range in.frames {
			if _, err := p.ValidateBinaryBatch(f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	agg := p.NewAggregator()
	if err := l.bench("core.apply.ns_per_report", n, nil, func() error {
		for _, f := range in.frames {
			if _, err := p.ApplyBinaryBatch(agg, f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	jsonBody, err := json.Marshal(in.wires[:freqPerFrame])
	if err != nil {
		return err
	}
	if err := l.bench("core.decode_json.ns_per_report", freqPerFrame, nil, func() error {
		var ws []core.WirePayload
		if err := json.Unmarshal(jsonBody, &ws); err != nil {
			return err
		}
		for _, w := range ws {
			if _, err := p.DecodeReport(w); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var env []byte
	if err := l.bench("core.marshal_agg.ns", 1, nil, func() error {
		var err error
		env, err = p.MarshalAggregator(agg)
		return err
	}); err != nil {
		return err
	}
	l.out["core.envelope_bytes"] = float64(len(env))
	if err := l.bench("core.unmarshal_agg.ns", 1, nil, func() error {
		_, err := p.UnmarshalAggregator(env)
		return err
	}); err != nil {
		return err
	}
	fp, payload, err := state.Decode(env)
	if err != nil {
		return err
	}
	if err := l.bench("state.encode.ns", 1, nil, func() error {
		state.Encode(fp, payload)
		return nil
	}); err != nil {
		return err
	}
	return l.bench("state.decode.ns", 1, nil, func() error {
		_, _, err := state.Decode(env)
		return err
	})
}

// readPath: what an /estimates miss costs at the query_mixed shape, first
// as kernels, then through the handler with the cache on and off.
func (l *ladder) readPath(seed uint64) error {
	in, err := newFreqInputs(queryClasses, queryItems, seed, 2)
	if err != nil {
		return err
	}
	p, cells := in.p, float64(queryClasses*queryItems)
	shards := make([]core.Aggregator, harnessProcs())
	for i := range shards {
		if shards[i], err = in.aggregate(); err != nil {
			return err
		}
	}
	var merged core.Aggregator
	if err := l.bench("core.clone_merge.ns_per_cell", cells, nil, func() error {
		// What collect's merged() does per read: copy every shard, fold the
		// copies into one.
		for i, sh := range shards {
			cl, ok := sh.(core.Cloner)
			if !ok {
				return fmt.Errorf("aggregator %T cannot clone", sh)
			}
			c := cl.Clone()
			if i == 0 {
				merged = c
			} else if err := merged.Merge(c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := l.bench("core.estimates.ns_per_cell", cells, nil, func() error {
		core.ClassSizesFromEstimates(merged, merged.Estimates())
		return nil
	}); err != nil {
		return err
	}

	for _, c := range []struct {
		name string
		opts []collect.ServerOption
	}{
		{"collect.estimates_hit.ns", nil},
		{"collect.estimates_miss.ns", []collect.ServerOption{collect.WithEstimateCacheDisabled()}},
	} {
		srv, err := collect.NewServer(p, c.opts...)
		if err != nil {
			return err
		}
		hd := srv.Handler()
		if err := serveAll(hd, "/reports", collect.BinaryContentType, in.frames); err != nil {
			return err
		}
		rec, err := serve(hd, http.MethodGet, "/estimates", "", nil)
		if err != nil {
			return err
		}
		l.out["collect.estimates_body_bytes"] = float64(rec.Body.Len())
		reply := bytes.NewBuffer(make([]byte, 0, 2*rec.Body.Len()))
		if err := l.bench(c.name, 1, nil, func() error {
			_, err := serveInto(reply, hd, http.MethodGet, "/estimates", "", nil)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// mean: the numeric tier's client half and kernels at the mean_bin_wal
// shape; a batch is 64 frames of 4,096 reports.
func (l *ladder) mean(seed uint64) error {
	np, err := core.NewNumericProtocol("cpmean", meanClasses, benchEps, benchSplit)
	if err != nil {
		return err
	}
	const frames = 64
	n := float64(frames * meanPerFrame)
	enc, r := np.Encoder(), xrand.New(seed+2)
	if err := l.bench("mean.perturb.ns_per_report", n, nil, func() error {
		for i := 0; i < frames*meanPerFrame; i++ {
			enc.Encode(mean.Value{Class: i % meanClasses, X: 0.25}, i, r)
		}
		return nil
	}); err != nil {
		return err
	}
	bodies, err := genMeanFrames(np, seed, frames, meanPerFrame)
	if err != nil {
		return err
	}
	l.out["mean.frame_bytes_per_report"] = float64(len(bodies[0])) / meanPerFrame
	if err := l.bench("mean.validate.ns_per_report", n, nil, func() error {
		for _, f := range bodies {
			if _, err := np.ValidateBinaryMeanBatch(f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	agg := np.NewAggregator()
	return l.bench("mean.apply.ns_per_report", n, nil, func() error {
		for _, f := range bodies {
			if _, err := np.ApplyBinaryMeanBatch(agg, f); err != nil {
				return err
			}
		}
		return nil
	})
}

// topk: the mining tier's client half and the pieces of a round on the
// server — absorb into a shard partial, then the seal (merge + advance)
// that serialises every round.
func (l *ladder) topk(seed uint64) error {
	params := topk.SessionParams{Framework: "pts", Classes: topkClasses, Items: topkItems, K: topkK,
		Eps: benchEps, Users: l.h.scaled(topkUsers), Seed: seed, Opt: topk.Optimized()}
	plan, err := genSessionPlan(params, seed+3)
	if err != nil {
		return err
	}
	round0 := plan.rounds[0]
	reps := round0.reports[:min(topkPerFrame, len(round0.reports))]
	n := float64(len(reps))

	pl, err := topk.NewSession(params)
	if err != nil {
		return err
	}
	enc, err := topk.NewRoundEncoder(pl.Config())
	if err != nil {
		return err
	}
	pop := xrand.New(seed + 4)
	pairs := make([]core.Pair, len(reps))
	for i := range pairs {
		pairs[i] = skewedPair(pop, topkClasses, topkItems)
	}
	if err := l.bench("topk.encode.ns_per_report", n, nil, func() error {
		for i, pair := range pairs {
			if _, err := enc.Encode(pair, topk.UserRand(seed, i)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var frame []byte
	if err := l.bench("topk.frame_pack.ns_per_report", n, nil, func() error {
		var err error
		frame, err = topk.AppendRoundFrame(frame[:0], "s000001", round0.layout, reps)
		return err
	}); err != nil {
		return err
	}
	if err := l.bench("topk.peek_validate.ns_per_report", n, nil, func() error {
		f, err := topk.PeekRoundFrame(frame)
		if err != nil {
			return err
		}
		return f.Validate(round0.layout)
	}); err != nil {
		return err
	}
	peeked, err := topk.PeekRoundFrame(frame)
	if err != nil {
		return err
	}
	part := topk.NewRoundPartial(round0.layout)
	if err := l.bench("topk.absorb.ns_per_report", n, nil, func() error {
		return part.AbsorbFrame(peeked)
	}); err != nil {
		return err
	}

	// The seal: a fresh planner per batch, its round 0 absorbed into a
	// partial untimed, then merge and advance timed separately.
	var sealed *topk.Planner
	fill := func() error {
		var err error
		if sealed, err = topk.NewSession(params); err != nil {
			return err
		}
		part = topk.NewRoundPartial(round0.layout)
		for _, rep := range round0.reports {
			if err := part.Absorb(rep); err != nil {
				return err
			}
		}
		return nil
	}
	if err := l.bench("topk.merge_partial.ns_per_round", 1, fill, func() error {
		return sealed.MergePartial(part)
	}); err != nil {
		return err
	}
	if err := l.bench("topk.advance.ns_per_round", 1, func() error {
		if err := fill(); err != nil {
			return err
		}
		return sealed.MergePartial(part)
	}, func() error {
		return sealed.Advance()
	}); err != nil {
		return err
	}
	return l.bench("topk.marshal_session.ns", 1, nil, func() error {
		_, err := sealed.MarshalBinary()
		return err
	})
}

// wal: the log alone. Appends of the two record sizes the ingest workloads
// write (a 66 KB frequency frame, a 600 B record between a mean frame and a
// top-k frame), under each fsync policy and from every core at once; then
// roll+seal, and replay of a frequency log with a real apply behind it.
func (l *ladder) wal(seed uint64) error {
	in, err := newFreqInputs(freqClasses, freqItems, seed, l.frames())
	if err != nil {
		return err
	}
	sizes := []struct {
		name   string
		record []byte
		batch  int
	}{
		{"wal.append_66k", append([]byte{0}, in.frames[0]...), 16},
		{"wal.append_600b", bytes.Repeat([]byte{0xa5}, 600), 256},
	}
	for _, sz := range sizes {
		for _, policy := range []wal.SyncPolicy{wal.SyncNever, wal.SyncInterval, wal.SyncAlways} {
			dir, err := l.h.env.tempDir("ladder-wal")
			if err != nil {
				return err
			}
			log, err := wal.Open(dir, wal.Options{Sync: policy})
			if err != nil {
				return err
			}
			batch := sz.batch
			if policy == wal.SyncAlways {
				batch = 2
			}
			appendBatch := func() error {
				for i := 0; i < batch; i++ {
					if err := log.Append(sz.record); err != nil {
						return err
					}
				}
				return nil
			}
			name := sz.name + ".ns_per_record." + string(policy)
			err = l.bench(name, float64(batch), nil, appendBatch)
			if err == nil && policy == wal.SyncInterval {
				err = l.bench(name+".pN", float64(batch*harnessProcs()), nil, func() error { return inParallel(appendBatch) })
			}
			if cerr := log.Close(); err == nil {
				err = cerr
			}
			l.h.env.removeDir(dir)
			if err != nil {
				return err
			}
		}
	}

	agg, err := in.aggregate()
	if err != nil {
		return err
	}
	snapshot, err := in.p.MarshalAggregator(agg)
	if err != nil {
		return err
	}
	dir, err := l.h.env.tempDir("ladder-wal")
	if err != nil {
		return err
	}
	defer l.h.env.removeDir(dir)
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncInterval})
	if err != nil {
		return err
	}
	err = l.bench("wal.seal.ns", 1, func() error { return log.Append(sizes[0].record) }, func() error {
		cover, err := log.Roll()
		if err != nil {
			return err
		}
		return log.Seal(cover, snapshot)
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// A log of 64 frequency frames in small segments, replayed the way the
	// server does at start-up: validate, then apply into a locked shard.
	const records = 64
	rdir, err := l.h.env.tempDir("ladder-replay")
	if err != nil {
		return err
	}
	defer l.h.env.removeDir(rdir)
	opts := wal.Options{Sync: wal.SyncNever, SegmentBytes: 512 << 10}
	if log, err = wal.Open(rdir, opts); err != nil {
		return err
	}
	for i := 0; i < records && err == nil; i++ {
		err = log.Append(in.frames[i%len(in.frames)])
	}
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	type shard struct {
		mu  sync.Mutex
		agg core.Aggregator
	}
	replay := func(workers int) func() error {
		return func() error {
			log, err := wal.Open(rdir, opts)
			if err != nil {
				return err
			}
			shards := make([]shard, harnessProcs())
			for i := range shards {
				shards[i].agg = in.p.NewAggregator()
			}
			var next, applied int64
			var cmu sync.Mutex
			onRecord := func(rec []byte) error {
				if _, err := in.p.ValidateBinaryBatch(rec); err != nil {
					return err
				}
				cmu.Lock()
				sh := &shards[next%int64(len(shards))]
				next++
				cmu.Unlock()
				sh.mu.Lock()
				n, err := in.p.ApplyBinaryBatch(sh.agg, rec)
				sh.mu.Unlock()
				cmu.Lock()
				applied += int64(n)
				cmu.Unlock()
				return err
			}
			noSnapshot := func([]byte) error { return nil }
			if workers == 1 {
				err = log.Replay(noSnapshot, onRecord)
			} else {
				err = log.ReplayParallel(workers, noSnapshot, onRecord)
			}
			if cerr := log.Close(); err == nil {
				err = cerr
			}
			if err == nil && applied != records*freqPerFrame {
				err = fmt.Errorf("replayed %d reports, logged %d", applied, records*freqPerFrame)
			}
			return err
		}
	}
	if err := l.bench("wal.replay.ns_per_record", records, nil, replay(1)); err != nil {
		return err
	}
	return l.bench("wal.replay_parallel.ns_per_record", records, nil, replay(harnessProcs()))
}

// collect: whole handlers, from request to acknowledgement, with a
// ResponseRecorder where the socket would be.
func (l *ladder) collect(seed uint64) error {
	in, err := newFreqInputs(freqClasses, freqItems, seed, l.frames())
	if err != nil {
		return err
	}
	n := float64(len(in.frames) * freqPerFrame)
	post := func(hd http.Handler, path string) func() error {
		return func() error { return serveAll(hd, path, collect.BinaryContentType, in.frames) }
	}

	plain, err := collect.NewServer(in.p)
	if err != nil {
		return err
	}
	if err := l.bench("collect.ingest_bin.ns_per_report", n, nil, post(plain.Handler(), "/reports")); err != nil {
		return err
	}

	// The same handler behind the tenant registry's /t/<name>/ route; the
	// difference per batch is what routing costs.
	reg, err := tenant.New(tenant.Options{})
	if err != nil {
		return err
	}
	defer reg.Close()
	if err := reg.Create(tenant.Spec{Name: tenant.DefaultTenant, Freq: &tenant.FreqSpec{
		Protocol: "ptscp", Classes: freqClasses, Items: freqItems, Epsilon: benchEps, Split: benchSplit}}); err != nil {
		return err
	}
	routed, err := l.measure("tenant.routed", float64(len(in.frames)), nil, post(reg.Handler(), "/t/"+tenant.DefaultTenant+"/reports"))
	if err != nil {
		return err
	}
	l.out["tenant.route_overhead.ns_per_batch"] = routed - l.out["collect.ingest_bin.ns_per_report"]*freqPerFrame

	walDir, err := l.h.env.tempDir("ladder-collect")
	if err != nil {
		return err
	}
	defer l.h.env.removeDir(walDir)
	durable, err := serverSpec{framework: "ptscp", classes: freqClasses, items: freqItems, walDir: walDir}.newCollectServer()
	if err != nil {
		return err
	}
	defer durable.Close()
	dh := durable.Handler()
	if err := l.bench("collect.ingest_bin_wal.ns_per_report", n, nil, post(dh, "/reports")); err != nil {
		return err
	}
	if err := l.bench("collect.ingest_bin_wal.ns_per_report.pN", n*float64(harnessProcs()), nil, func() error {
		return inParallel(post(dh, "/reports"))
	}); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := post(dh, "/reports")(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	l.out["collect.allocs_per_batch"] = float64(after.Mallocs-before.Mallocs) / float64(len(in.frames))
	if err := l.bench("obs.metrics_render.ns", 1, nil, func() error {
		_, err := serve(dh, http.MethodGet, "/metrics", "", nil)
		return err
	}); err != nil {
		return err
	}

	// The compatibility encodings of the same reports.
	jsonBody, err := json.Marshal(in.wires[:freqPerFrame])
	if err != nil {
		return err
	}
	var ndjson bytes.Buffer
	singles := make([][]byte, freqPerFrame)
	for i, w := range in.wires[:freqPerFrame] {
		if singles[i], err = json.Marshal(w); err != nil {
			return err
		}
		ndjson.Write(singles[i])
		ndjson.WriteByte('\n')
	}
	ph := plain.Handler()
	if err := l.bench("collect.ingest_json.ns_per_report", freqPerFrame, nil, func() error {
		_, err := serve(ph, http.MethodPost, "/reports", "application/json", jsonBody)
		return err
	}); err != nil {
		return err
	}
	if err := l.bench("collect.ingest_ndjson.ns_per_report", freqPerFrame, nil, func() error {
		_, err := serve(ph, http.MethodPost, "/reports", collect.NDJSONContentType, ndjson.Bytes())
		return err
	}); err != nil {
		return err
	}
	if err := l.bench("collect.ingest_single.ns_per_report", freqPerFrame, nil, func() error {
		return serveAll(ph, "/report", "application/json", singles)
	}); err != nil {
		return err
	}

	// State movement: a federation push, a checkpoint, a restore.
	agg, err := in.aggregate()
	if err != nil {
		return err
	}
	env, err := in.p.MarshalAggregator(agg)
	if err != nil {
		return err
	}
	if err := l.bench("collect.merge_envelope.ns", 1, nil, func() error {
		_, err := plain.MergeState(env)
		return err
	}); err != nil {
		return err
	}
	var snap []byte
	if err := l.bench("collect.snapshot.ns", 1, nil, func() error {
		var err error
		snap, err = plain.Snapshot()
		return err
	}); err != nil {
		return err
	}
	if err := l.bench("collect.restore.ns", 1, nil, func() error { return plain.Restore(snap) }); err != nil {
		return err
	}

	// The mean tier, durable like the workload that drives it.
	meanDir, err := l.h.env.tempDir("ladder-collect-mean")
	if err != nil {
		return err
	}
	defer l.h.env.removeDir(meanDir)
	meanSrv, err := serverSpec{framework: "none", classes: meanClasses, mean: "cpmean", walDir: meanDir}.newCollectServer()
	if err != nil {
		return err
	}
	defer meanSrv.Close()
	const meanFrames = 64
	meanBodies, err := genMeanFrames(meanSrv.MeanProtocol(), seed, meanFrames, meanPerFrame)
	if err != nil {
		return err
	}
	mh := meanSrv.Handler()
	if err := l.bench("collect.mean_ingest_bin.ns_per_report", meanFrames*meanPerFrame, nil, func() error {
		return serveAll(mh, "/mean/reports", collect.BinaryContentType, meanBodies)
	}); err != nil {
		return err
	}
	// The same handler on frames of 64 reports, per frame: what a request
	// costs before its reports do.
	smallBodies, err := genMeanFrames(meanSrv.MeanProtocol(), seed, meanFrames, meanSmallPerFrame)
	if err != nil {
		return err
	}
	if err := l.bench("collect.mean_ingest_small.ns_per_frame", meanFrames, nil, func() error {
		return serveAll(mh, "/mean/reports", collect.BinaryContentType, smallBodies)
	}); err != nil {
		return err
	}

	// The mining tier: one session planned for so many users that round 0
	// never fills, so every frame lands in a live round.
	topkSrv, err := serverSpec{framework: "none", classes: topkClasses, topk: true}.newCollectServer()
	if err != nil {
		return err
	}
	th := topkSrv.Handler()
	params, err := json.Marshal(topk.SessionParams{Framework: "pts", Classes: topkClasses, Items: topkItems,
		K: topkK, Eps: benchEps, Users: 1 << 28, Seed: seed, Opt: topk.Optimized()})
	if err != nil {
		return err
	}
	rec, err := serve(th, http.MethodPost, "/topk/sessions", "application/json", params)
	if err != nil {
		return err
	}
	var info collect.WireTopKSessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		return err
	}
	if rec, err = serve(th, http.MethodGet, "/topk/sessions/"+info.ID+"/round", "", nil); err != nil {
		return err
	}
	var live collect.WireTopKRound
	if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil {
		return err
	}
	renc, err := topk.NewRoundEncoder(live.Config)
	if err != nil {
		return err
	}
	layout, err := topk.LayoutOf(live.Config)
	if err != nil {
		return err
	}
	roundReps := make([]topk.RoundReport, min(topkPerFrame, len(in.pairs)))
	for i := range roundReps {
		if roundReps[i], err = renc.Encode(in.pairs[i], topk.UserRand(seed, i)); err != nil {
			return err
		}
	}
	tframe, err := topk.AppendRoundFrame(nil, info.ID, layout, roundReps)
	if err != nil {
		return err
	}
	tframes := make([][]byte, len(in.frames))
	for i := range tframes {
		tframes[i] = tframe
	}
	return l.bench("collect.topk_ingest_bin.ns_per_report", float64(len(tframes)*len(roundReps)), nil, func() error {
		return serveAll(th, "/topk/sessions/"+info.ID+"/reports", collect.BinaryContentType, tframes)
	})
}
