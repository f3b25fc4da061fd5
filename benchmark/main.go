// Command benchmark is the repository's process-to-process benchmark: it
// generates every input from a seed, starts a fresh mcimcollect process per
// workload, drives it from this one process over loopback HTTP, checks the
// server's state against an offline computation over the acknowledged
// bytes, and prints the metrics BENCHMARK.json names. README.md is the
// glossary; run.sh builds both binaries and is the command the driver runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// harness is the per-process state the workloads share.
type harness struct {
	env *env
	// probe measures the box's speed for the whole life of the process
	// (see speed.go).
	probe *speedProbe
	// scale divides every workload size; 1 for a real run, 100 for the
	// smoke tests.
	scale int
	// setups is how many times an untraced run sets its workload up; it
	// reports the median, which is what keeps setup_s steady enough to gate.
	setups int
	// conns is how many connections the current workload's closed loop
	// opens (set by runOnce).
	conns int
	// cpus is what the process may run on when it is not confined; empty
	// when the server is not a child process (smoke tests) and nothing is to
	// be confined.
	cpus []int
}

// confine puts the generator, and so every server it starts from now on, on
// the last core for a oneCore workload (affinity.go says why) and hands the
// speed probe the first, so that the probe's bursts do not land in the
// latencies it is there to rescale. Any other workload gets every core back.
func (h *harness) confine(oneCore bool) error {
	if len(h.cpus) < 2 {
		return nil
	}
	work, probe := h.cpus, h.cpus
	if oneCore {
		work, probe = h.cpus[len(h.cpus)-1:], h.cpus[:1]
	}
	if err := confineProcess(work, h.probe.tid); err != nil {
		return err
	}
	return setAffinity(h.probe.tid, probe)
}

func (h *harness) scaled(n int) int { return max(1, n/h.scale) }

// harnessProcs is how many cores the generator may use, and so how many
// connections a closed loop opens: the box's cores, capped at the two the
// workloads were sized for so that a bigger box runs the same traffic.
func harnessProcs() int { return min(2, runtime.NumCPU()) }

// setupRepeats is harness.setups for a real run.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	buildS   float64
	commit   string
}

func main() {
	var (
		o         options
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass plus the in-process ladder, per-layer metrics")
		serverBin = flag.String("server", "", "path of the mcimcollect binary to measure (run.sh builds it)")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for traces, server logs and temporary WAL dirs")
		repeat    = flag.Int("repeat", 0, "A/A mode: run every workload this many times on consecutive seeds and check the spread of each end-to-end metric against its bound in -spec")
		specPath  = flag.String("spec", "BENCHMARK.json", "benchmark definition the A/A mode reads bounds from")
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	flag.Float64Var(&o.buildS, "build-s", 0, "seconds run.sh spent building, reported as loadgen.build_s")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision, recorded in the run record")
	flag.Parse()
	o.trace = *trace != 0

	if *serverBin == "" {
		fatal(fmt.Errorf("-server is required: the benchmark measures a separate mcimcollect process (use benchmark/run.sh)"))
	}
	runtime.GOMAXPROCS(harnessProcs())
	e, err := newEnv(*serverBin, *outDir)
	if err != nil {
		fatal(err)
	}
	os.Exit(run(e, o, *repeat, *specPath))
}

// run does the work of main and returns the exit code; whatever way it
// returns, no child process or temporary directory outlives it.
func run(e *env, o options, repeat int, specPath string) int {
	defer e.cleanup()
	h := &harness{env: e, scale: 1, setups: setupRepeats, probe: startSpeedProbe()}
	var err error
	if h.cpus, err = allowedCPUs(0); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer h.probe.close()
	if repeat > 0 {
		if err := runRepeat(h, o, repeat, specPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	wl, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, _, err := runOnce(h, wl, o)
	if err != nil {
		// A run that could not be completed or whose outputs are wrong
		// prints no result line: the driver must not mistake it for a
		// measurement.
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// pass is one timed window plus what was sampled around it.
type pass struct {
	*runResult
	cpuUser, cpuSys float64 // server CPU seconds spent during the window
	loadgenCPU      float64
	// slowdown is how many times slower than nominal the box ran during
	// the window (see speed.go).
	slowdown     float64
	metricsDelta map[string]float64
}

// measure runs one window of inst and samples the server's CPU, peak RSS
// and /metrics counters and the generator's own CPU around it.
func measure(h *harness, inst instance, d time.Duration, tr *tracer) (*pass, error) {
	// A workload that starts its own server processes inside the window
	// has none yet, and accounts for their CPU itself.
	srv0 := inst.server()
	var (
		before map[string]float64
		u0, s0 float64
		err    error
	)
	if srv0 != nil {
		if before, err = srv0.metrics(); err != nil {
			return nil, err
		}
		if u0, s0, err = srv0.cpu(); err != nil {
			return nil, err
		}
	}
	self0, t0 := selfCPU(), time.Now()
	res, err := inst.run(d, tr)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	p := &pass{runResult: res, slowdown: h.probe.slowdown(t0, t1),
		loadgenCPU: selfCPU() - self0 - res.untimedCPU - h.probe.cpuBetween(t0, t1)}
	srv := inst.server()
	u1, s1, err := srv.cpu()
	if err != nil {
		return nil, err
	}
	if srv == srv0 {
		p.cpuUser, p.cpuSys = u1-u0, s1-s0
	} else {
		p.cpuUser, p.cpuSys = res.cpuUser, res.cpuSys
	}
	if p.rssPeakMB == 0 {
		if p.rssPeakMB, err = srv.rssPeakMB(); err != nil {
			return nil, err
		}
	}
	after, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	p.metricsDelta = map[string]float64{}
	for k, v := range after {
		if srv == srv0 {
			v -= before[k]
		}
		p.metricsDelta[k] = v
	}
	return p, nil
}

// runOnce sets the workload up, measures it, checks it and returns the
// result line. An error means no result may be printed.
func runOnce(h *harness, wl workload, o options) (*result, *runRecord, error) {
	total := time.Now()
	h.conns = harnessProcs()
	if wl.oneCore {
		h.conns = 1
	}
	if err := h.confine(wl.oneCore); err != nil {
		return nil, nil, err
	}
	repeats := h.setups
	if o.trace {
		repeats = 1
	}
	var (
		inst                 instance
		setupTimes, rawSetup []float64
	)
	for i := 0; i < repeats; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(h, o.seed); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", wl.name, err)
		}
		// Set-up is generator CPU work for the most part, so it is put on
		// the nominal-speed scale like every other time.
		raw := time.Since(t0).Seconds()
		rawSetup = append(rawSetup, raw)
		setupTimes = append(setupTimes, raw/h.probe.slowdown(t0, time.Now()))
	}
	defer inst.close()
	window := time.Duration(o.seconds * float64(time.Second))

	rec := runRecord{Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Commit: o.commit,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: cpuModel(),
		SetupS: setupTimes, RawSetupS: rawSetup, Samples: map[string]int{}, Raw: map[string]float64{}}
	res := &result{Metrics: map[string]metric{}}

	if !o.trace {
		p, err := measure(h, inst, window, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		if err := inst.verify(); err != nil {
			return nil, nil, fmt.Errorf("%s: correctness check failed: %w", wl.name, err)
		}
		endToEnd(res, &rec, wl, p, setupTimes)
		flagGenerator(wl.name, p)
	} else {
		// Tracing off, then on, against the same server: the ratio of the
		// two is the tracing overhead. The ladder gets the other half.
		plain, err := measure(h, inst, window/4, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		tr := newTracer()
		traced, err := measure(h, inst, window/4, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: traced pass: %w", wl.name, err)
		}
		if err := inst.verify(); err != nil {
			return nil, nil, fmt.Errorf("%s: correctness check failed: %w", wl.name, err)
		}
		inst.close()
		// The ladder's parallel rungs need the cores back.
		if err := h.confine(false); err != nil {
			return nil, nil, err
		}
		layers, err := runLadder(h, o.seed, window/2, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("ladder: %w", err)
		}
		perLayer(res, &rec, wl, plain, traced, layers, o.buildS)
		flagGenerator(wl.name, traced)
		res.Attempted, res.Failed = plain.attempted+traced.attempted, plain.failed+traced.failed
		tracePath := filepath.Join(h.env.outDir, "trace-"+wl.name+".jsonl")
		if err := tr.writeJSONL(tracePath); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(tr.spans), tracePath)
	}
	res.Correct = true
	rec.TotalWallS = time.Since(total).Seconds()
	rec.Result = res
	printMetrics(res)
	for name, v := range rec.Raw {
		fmt.Fprintf(os.Stderr, "  raw.%-40s %16.6g (slowdown %.3f)\n", name, v, rec.Slowdown)
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v: total wall %.1fs (set-up %v)\n", wl.name, o.seed, o.trace, rec.TotalWallS, setupTimes)
	if err := rec.write(filepath.Join(h.env.outDir, fmt.Sprintf("run-%s-trace%d.json", wl.name, b2i(o.trace)))); err != nil {
		return nil, nil, err
	}
	return res, &rec, nil
}

// endToEnd fills the five end-to-end metrics every workload reports.
func endToEnd(res *result, rec *runRecord, wl workload, p *pass, setupTimes []float64) {
	res.Attempted, res.Failed = p.attempted, p.failed
	lats := latencies(p.ops)
	// slow > 1 means the box ran slower than nominal: times shrink to what
	// they would have been at nominal speed, rates grow.
	slow := p.slowdown
	rec.Slowdown = slow
	put := func(name string, raw, scaled float64, unit string, n int) {
		res.Metrics[name] = metric{Value: scaled, Unit: unit}
		rec.Samples[name] = n
		rec.Raw[name] = raw
	}
	put("setup_s", median(rec.RawSetupS), median(setupTimes), "s", len(setupTimes))
	rate := float64(p.reports) / p.wall
	if p.reportsPerOp > 0 {
		rate = sliceRate(p.ops, p.wall, tailWindows) * float64(p.reportsPerOp)
	}
	if p.openLoop {
		put("reports_per_s", rate, rate, "1/s", len(p.ops))
	} else {
		put("reports_per_s", rate, rate*slow, "1/s", len(p.ops))
	}
	p50 := median(lats)
	put("op_p50_ms", p50, p50/slow, "ms", len(lats))
	cpu := (p.cpuUser + p.cpuSys) / (float64(p.reports) / 1e6)
	put("server_cpu_s_per_mreport", cpu, cpu/slow, "s", len(p.ops))
	put("server_rss_peak_mb", p.rssPeakMB, p.rssPeakMB, "MiB", 1)
	// The tail is not an end-to-end metric (README.md, Bounds): it goes to
	// the run record, with its neighbours, for whoever reads one run.
	for _, q := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
		rec.Raw[fmt.Sprintf("op_p%g_ms.sliced", 100*q)] = windowedTail(p.ops, q, tailWindows)
	}
}

// flagGenerator warns when a run's numbers may be the generator's rather
// than the server's.
func flagGenerator(name string, p *pass) {
	// In an open loop the server idles between requests, so the generator's
	// share of the CPU says nothing; there the schedule's lateness does.
	share := p.loadgenCPU / (p.loadgenCPU + p.cpuUser + p.cpuSys)
	if share > 0.35 && !p.openLoop {
		fmt.Fprintf(os.Stderr, "WARNING %s: the load generator used %.0f%% of the CPU spent; this run may be measuring the generator\n", name, 100*share)
	}
	if p.maxLateMs > 50 {
		fmt.Fprintf(os.Stderr, "WARNING %s: the open-loop schedule ran up to %.0f ms late; this run may be measuring the generator\n", name, p.maxLateMs)
	}
}

// perLayer fills the per-layer metrics: the ladder's, and those that come
// from watching the end-to-end passes from outside.
func perLayer(res *result, rec *runRecord, wl workload, plain, traced *pass, layers map[string]float64, buildS float64) {
	d := traced.metricsDelta
	reports := float64(traced.reports)
	layers["wal.fsyncs"] = sumSeries(d, "mcim_wal_fsyncs_total")
	layers["wal.compactions"] = sumSeries(d, "mcim_wal_compactions_total")
	layers["wal.segment_rolls"] = sumSeries(d, "mcim_wal_segment_rolls_total")
	layers["wal.bytes_per_report"] = sumSeries(d, "mcim_wal_appended_bytes_total") / reports
	if reads := sumSeries(d, "mcim_estimate_cache_requests_total"); reads > 0 {
		layers["collect.cache_hit_ratio"] = (reads - d[`mcim_estimate_cache_requests_total{tier="freq",outcome="miss"}`]) / reads
	}
	layers["transport.write_ms_p50"] = median(traced.write)
	layers["transport.wait_ms_p50"] = median(traced.wait)
	layers["transport.read_ms_p50"] = median(traced.read)
	// How many times longer a batch takes end to end than its handler alone
	// takes in process: what the sockets, the kernel and two processes
	// sharing the cores add. Defined for the two ingest workloads only.
	switch wl.name {
	case "freq_bin_wal":
		layers["transport.ingest_overhead_ratio"] = opP50(traced) / (layers["collect.ingest_bin_wal.ns_per_report"] * freqPerFrame / 1e6)
	case "mean_bin_wal":
		layers["transport.ingest_overhead_ratio"] = opP50(traced) / (layers["collect.mean_ingest_bin.ns_per_report"] * meanPerFrame / 1e6)
	}
	layers["server.cpu_user_s"] = traced.cpuUser
	layers["server.cpu_sys_s"] = traced.cpuSys
	layers["loadgen.cpu_s"] = traced.loadgenCPU
	layers["loadgen.cpu_share"] = traced.loadgenCPU / (traced.loadgenCPU + traced.cpuUser + traced.cpuSys)
	layers["loadgen.max_late_ms"] = traced.maxLateMs
	layers["loadgen.build_s"] = buildS
	layers["host.cpu_slowdown"] = traced.slowdown
	layers["trace.overhead_ratio"] = opP50(traced) / opP50(plain)
	layers["tail.op_tail_ms"] = windowedTail(traced.ops, wl.tailP, tailWindows)
	if best := pickTail(len(traced.ops)); best < wl.tailP {
		fmt.Fprintf(os.Stderr, "WARNING %s: %d operations leave fewer than ten beyond p%g; tail.op_tail_ms rests on a handful of samples (the sample supports p%g)\n",
			wl.name, len(traced.ops), 100*wl.tailP, 100*best)
	}
	layers["tail.op_max_ms"] = opMax(traced)
	layers["secondary.op_p50_ms"] = median(traced.secondary)
	for _, lm := range layerMetrics {
		res.Metrics[lm.name] = metric{Value: layers[lm.name], Unit: lm.unit}
	}
	rec.Samples["traced_ops"] = len(traced.ops)
	rec.Samples["untraced_ops"] = len(plain.ops)
}

func latencies(ops []sample) []float64 {
	lats := make([]float64, len(ops))
	for i, s := range ops {
		lats[i] = s.ms
	}
	return lats
}

func opP50(p *pass) float64 { return median(latencies(p.ops)) }

func opMax(p *pass) float64 {
	m := 0.0
	for _, s := range p.ops {
		m = max(m, s.ms)
	}
	return m
}

// printMetrics lists every metric by name with its unit on standard error;
// standard output carries only the result line.
func printMetrics(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-44s %16.6g %s\n", name, m.Value, m.Unit)
	}
}

// runRecord is what a run leaves in the out dir beside its result line:
// enough to say what was measured, on what, from which inputs.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Commit     string         `json:"commit"`
	NProc      int            `json:"nproc"`
	GoMaxProcs int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	SetupS     []float64      `json:"setup_s"`
	RawSetupS  []float64      `json:"raw_setup_s"`
	Samples    map[string]int `json:"samples"`
	// Slowdown is the box's measured slowdown during the timed window and
	// Raw the time-based end-to-end metrics as the wall clock saw them,
	// before they were put on the nominal-speed scale.
	Slowdown   float64            `json:"slowdown"`
	Raw        map[string]float64 `json:"raw"`
	TotalWallS float64            `json:"total_wall_s"`
	Result     *result            `json:"result"`
}

func (r *runRecord) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
