package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/topk"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{8, 0.5},       // nothing has ten samples beyond it
		{39, 0.5},      // p75 of 39 leaves 9.75
		{40, 0.75},     // exactly ten beyond p75
		{100, 0.9},     // exactly ten beyond p90
		{999, 0.9},     // p99 of 999 leaves 9.99
		{1000, 0.99},   // exactly ten beyond p99
		{10000, 0.999}, // exactly ten beyond p99.9
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestWindowedTail(t *testing.T) {
	// Ten one-second slices of 1,000 samples at 1 ms, each with 20 samples
	// at 5 ms; one slice also holds a 900 ms stall. The stall decides the
	// whole-run maximum and must not decide the windowed p99.
	var ops []sample
	for w := 0; w < 10; w++ {
		for i := 0; i < 1000; i++ {
			v := 1.0
			if i%50 == 0 {
				v = 5
			}
			ops = append(ops, sample{at: float64(w) + float64(i)/1000, ms: v})
		}
	}
	ops[4321].ms = 900
	if got := windowedTail(ops, 0.99, tailWindows); got != 5 {
		t.Errorf("windowed p99 = %v, want 5", got)
	}
	// Too few samples for ten slices: falls back to fewer, never to none.
	if got := windowedTail(ops[:150], 0.9, tailWindows); got != 1 && got != 5 {
		t.Errorf("windowed p90 of a short sample = %v", got)
	}
	if got := windowedTail([]sample{{at: 1, ms: 7}}, 0.75, tailWindows); got != 7 {
		t.Errorf("windowed tail of one sample = %v, want 7", got)
	}
}

func TestSliceRate(t *testing.T) {
	// 100 ops/s for ten seconds, except that second 3 stalls completely.
	var ops []sample
	for i := 0; i < 1000; i++ {
		if at := float64(i) / 100; at < 3 || at >= 4 {
			ops = append(ops, sample{at: at})
		}
	}
	if got := sliceRate(ops, 10, 10); got != 100 {
		t.Errorf("median slice rate = %v ops/s, want 100 (the whole-window rate is 90)", got)
	}
}

// An open loop times every call from when it was due: a call that overruns
// its slot delays the next, and the delay is the next call's latency, not
// lost.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const perSec = 100 // one call every 10 ms
	start := time.Now().Add(2 * time.Millisecond)
	lats, late, err := openLoop(start, perSec, 50*time.Millisecond, func(i int, due time.Time) (time.Time, error) {
		if i == 1 {
			time.Sleep(25 * time.Millisecond) // overruns slots 2 and 3
		}
		return time.Now(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lats) != 5 {
		t.Fatalf("%d calls in 50 ms at 100/s, want 5", len(lats))
	}
	// Call 2 was due at +20 ms and could not start before +35 ms.
	if lats[2] < 14 {
		t.Errorf("call 2 latency %.1f ms: the 15 ms it waited behind call 1 was not counted", lats[2])
	}
	if lats[0] > 9 {
		t.Errorf("call 0 latency %.1f ms, want well under its 10 ms slot", lats[0])
	}
	if late < 14 {
		t.Errorf("max lateness %.1f ms, want at least the 15 ms call 2 started late", late)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},   // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // sticks out: clipped at 100
		{ID: 5, Parent: 2, Start: 15, End: 20},   // grandchild of 1: not 1's child
		{ID: 6, Parent: 99, Start: 0, End: 1000}, // orphan: nobody's child
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5, 6: 1000} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerRequestSpans(t *testing.T) {
	var off *tracer
	off.request(0, "x", time.Now(), timing{}) // a nil tracer is a no-op
	if id := off.begin(0, 0, "x", time.Now()); id != 0 {
		t.Fatalf("disabled tracer handed out span id %d", id)
	}

	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.request(0, "get", at(0), timing{sent: at(3), wrote: at(4), first: at(9), done: at(10)})
	if len(tr.spans) != 5 {
		t.Fatalf("%d spans for a late request, want request+queue+write+wait+read", len(tr.spans))
	}
	self := selfTimes(tr.spans)
	if self[1] != 0 {
		t.Errorf("request self time %d ns, want 0: its phases cover it", self[1])
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || len(data) == 0 {
		t.Fatalf("trace file: %v, %d bytes", err, len(data))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json must stay inside the driver's limits, name exactly the
// workloads and per-layer metrics the code produces, and every per-layer
// metric must say what it is expected to move.
func TestBenchmarkSpec(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}

	setup := false
	for _, m := range spec.EndToEnd {
		name("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}

	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the ladder table %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		name("per-layer", m.Name)
		lm := layerMetrics[i]
		if m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer %d is %+v in BENCHMARK.json, %s/%s/%s in the ladder table", i, m, lm.name, lm.unit, lm.better)
		}
		if lm.moves == "" {
			t.Errorf("%s does not say which end-to-end metric on which workload it should move", lm.name)
		}
	}
}

// smokeHarness runs workloads at a hundredth of their size against an
// in-process server: no child process, no build.
func smokeHarness(t *testing.T) *harness {
	t.Helper()
	e, err := newEnv("", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.cleanup)
	h := &harness{env: e, scale: 100, setups: 2, probe: startSpeedProbe()}
	t.Cleanup(h.probe.close)
	return h
}

func TestSmokeWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			h := smokeHarness(t)
			res, _, err := runOnce(h, wl, options{workload: wl.name, seed: 5, seconds: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(spec.EndToEnd) {
				t.Errorf("%d metrics printed, BENCHMARK.json names %d end-to-end", len(res.Metrics), len(spec.EndToEnd))
			}
			for _, m := range spec.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s: printed %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				// An in-process server has no /proc entry of its own, so
				// its CPU and RSS read 0 here; every other metric is live.
				if inProcessZero := m.Name == "server_cpu_s_per_mreport" || m.Name == "server_rss_peak_mb"; !inProcessZero &&
					(got.Value <= 0 || math.IsNaN(got.Value) || math.IsInf(got.Value, 0)) {
					t.Errorf("%s = %v", m.Name, got.Value)
				}
			}
		})
	}
}

func TestSmokeTrace(t *testing.T) {
	h := smokeHarness(t)
	wl, _ := findWorkload("query_mixed")
	res, _, err := runOnce(h, wl, options{workload: wl.name, seed: 6, seconds: 0.4, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, lm := range layerMetrics {
		if _, ok := res.Metrics[lm.name]; !ok {
			t.Errorf("traced run did not print %s", lm.name)
		}
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("%d metrics printed, want the %d per-layer ones", len(res.Metrics), len(layerMetrics))
	}
	for _, name := range []string{"core.apply.ns_per_report", "wal.replay.ns_per_record", "collect.estimates_miss.ns", "transport.wait_ms_p50", "trace.overhead_ratio"} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want a positive measurement", name, v)
		}
	}
	if _, err := os.Stat(filepath.Join(h.env.outDir, "trace-query_mixed.jsonl")); err != nil {
		t.Error(err)
	}
}

// A one-core workload puts every thread of the harness on the last CPU and
// the speed probe on the first; any other workload gives both all of them.
func TestConfine(t *testing.T) {
	cpus, err := allowedCPUs(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cpus) < 2 {
		t.Skip("one CPU: nothing to confine")
	}
	h := smokeHarness(t)
	h.cpus = cpus
	t.Cleanup(func() {
		if err := h.confine(false); err != nil {
			t.Error(err)
		}
	})
	check := func(oneCore bool, wantSelf, wantProbe []int) {
		t.Helper()
		if err := h.confine(oneCore); err != nil {
			t.Fatal(err)
		}
		self, err := allowedCPUs(0)
		if err != nil {
			t.Fatal(err)
		}
		probe, err := allowedCPUs(h.probe.tid)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(self, wantSelf) || !slices.Equal(probe, wantProbe) {
			t.Errorf("oneCore=%v: harness on %v (want %v), probe on %v (want %v)", oneCore, self, wantSelf, probe, wantProbe)
		}
	}
	check(true, cpus[len(cpus)-1:], cpus[:1])
	check(false, cpus, cpus)
}

// The offline planner loop the top-k workload pre-perturbs with must be the
// repository's own RunSession: same params, same pairs, same result.
func TestSessionPlanMatchesRunSession(t *testing.T) {
	params := topk.SessionParams{Framework: "pts", Classes: topkClasses, Items: topkItems, K: topkK,
		Eps: benchEps, Users: 2000, Seed: 11, Opt: topk.Optimized()}
	plan, err := genSessionPlan(params, 12)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := topk.NewSession(params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topk.RunSession(pl, sessionPairs(params, 12))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.result.PerClass) != len(want.PerClass) {
		t.Fatalf("plan mined %d classes, RunSession %d", len(plan.result.PerClass), len(want.PerClass))
	}
	for c := range want.PerClass {
		for i := range want.PerClass[c] {
			if plan.result.PerClass[c][i] != want.PerClass[c][i] {
				t.Fatalf("class %d rank %d: plan %d, RunSession %d", c, i, plan.result.PerClass[c][i], want.PerClass[c][i])
			}
		}
	}
}
