// Command mcimload is the load generator for the collection server. It has
// two modes:
//
//   - -mode freq (default) drives K concurrent synthetic clients submitting
//     frequency-estimation reports and scores the served estimates against
//     the synthetic ground truth (RMSE, class-size error);
//   - -mode topk creates an interactive top-k mining session and drives the
//     whole population through its rounds — fetch broadcast, perturb
//     locally, post reports, repeat — scoring the mined rankings with
//     NCR/F1 against the ground-truth per-class top-k;
//   - -mode mean drives K concurrent buffered clients submitting numeric
//     (label, value) reports to the server's mean tier over a gaussian
//     per-class population, scoring the served classwise means (MAE) and
//     class-size estimates (relative error) against the ground truth;
//   - -mode query splits the -clients between writers ingesting the
//     population and readers polling GET /estimates for the whole run
//     (-read-ratio sets the split), measuring the read path — queries/sec
//     and query latency percentiles — under concurrent ingest. This is the
//     workload the versioned estimate cache accelerates.
//
// Both modes report sustained throughput (reports/sec) and request latency
// percentiles (p50/p99/max) — the numbers that tell you whether the serving
// path, not the mechanism, is the bottleneck — and with -json emit the run
// summary as one JSON object on stdout so CI can track load-test
// trajectories alongside BENCH_ingest.json.
//
// Self-contained runs (spin up an in-process server on a loopback port):
//
//	mcimload -selfserve -framework ptscp -users 200000 -clients 8 -batch 256
//	mcimload -selfserve -wire binary -users 200000 -clients 8 -batch 512
//	mcimload -selfserve -mode topk -miner pts -k 8 -users 200000 -clients 8
//	mcimload -selfserve -mode mean -mean-framework cpmean -users 200000 -clients 8
//
// Against an external server (mcimcollect -serve; top-k mode needs it
// started with -topk):
//
//	mcimload -url http://localhost:8090 -users 200000 -clients 8
//
// The synthetic population reuses the paper's dataset generators
// (internal/dataset): -dataset syntopk draws the SYN3-style skewed
// multi-class population; -dataset uniform draws uniformly, which maximizes
// wire-format density and so stresses ingestion hardest.
//
// Against a multi-tenant server (mcimcollect -tenants), -tenant/-token
// target one tenant's routes. -tenants N instead fans the freq workload out
// over N tenants named load-0..load-(N-1) — created through the admin API
// (-admin-token) from the -framework/-classes/-items/-eps flags — with
// workers striped across them, reporting per-tenant and aggregate
// throughput; with -selfserve it spins up an in-process multi-tenant
// registry to drive:
//
//	mcimload -selfserve -tenants 4 -users 200000 -clients 8 -wire binary -json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mean"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// summary is the -json run report: one object per run, with mode-specific
// accuracy fields left null when not applicable.
type summary struct {
	Mode       string  `json:"mode"`
	Framework  string  `json:"framework"`
	Dataset    string  `json:"dataset"`
	Users      int     `json:"users"`
	Clients    int     `json:"clients"`
	Batch      int     `json:"batch"`
	Wire       string  `json:"wire"`
	Requests   int     `json:"requests"`
	ElapsedSec float64 `json:"elapsed_sec"`
	ReportsSec float64 `json:"reports_per_sec"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	MaxMicros  float64 `json:"max_us"`
	// Frequency mode.
	RMSE *float64 `json:"rmse,omitempty"`
	// Frequency and mean modes.
	ClassSizeRelErr *float64 `json:"class_size_rel_err,omitempty"`
	// Mean mode: mean absolute error of the served classwise means.
	MeanMAE *float64 `json:"mean_mae,omitempty"`
	// Top-k mode.
	K      int      `json:"k,omitempty"`
	Rounds int      `json:"rounds,omitempty"`
	NCR    *float64 `json:"ncr,omitempty"`
	F1     *float64 `json:"f1,omitempty"`
	// Tenant fan-out mode (-tenants N).
	Tenants   int                `json:"tenants,omitempty"`
	PerTenant []tenantThroughput `json:"per_tenant,omitempty"`
	// Query mode (-mode query): the reader side of the mixed workload.
	ReadRatio      float64 `json:"read_ratio,omitempty"`
	Queries        int     `json:"queries,omitempty"`
	QueriesSec     float64 `json:"queries_per_sec,omitempty"`
	QueryP50Micros float64 `json:"query_p50_us,omitempty"`
	QueryP99Micros float64 `json:"query_p99_us,omitempty"`

	// Scrape is the -scrape time series: one point per poll of the
	// server's GET /metrics during the run, plus a final point at the end.
	Scrape []scrapePoint `json:"scrape,omitempty"`
}

// tenantThroughput is one tenant's slice of a fan-out run.
type tenantThroughput struct {
	Name       string  `json:"name"`
	Reports    int     `json:"reports"`
	ReportsSec float64 `json:"reports_per_sec"`
}

func main() {
	var (
		mode      = flag.String("mode", "freq", "workload: freq (frequency estimation) | topk (interactive mining session) | mean (numeric mean tier) | query (mixed ingest + estimate polling)")
		url       = flag.String("url", "", "external server URL (mutually exclusive with -selfserve)")
		selfserve = flag.Bool("selfserve", false, "spin up an in-process server to drive")
		framework = flag.String("framework", "ptscp", "frequency-estimation framework (selfserve mode): hec | ptj | pts | ptscp | pts+<oue|sue|olh|grr|adaptive>")
		miner     = flag.String("miner", "pts", "mining framework (topk mode): hec | ptj | pts")
		meanFw    = flag.String("mean-framework", "cpmean", "mean framework (mean mode, selfserve): hecmean | ptsmean | cpmean")
		optimized = flag.Bool("optimized", true, "topk mode: run the paper's full optimization set (false = baseline)")
		k         = flag.Int("k", 8, "per-class ranking size (topk mode)")
		classes   = flag.Int("classes", 5, "number of classes (selfserve mode)")
		items     = flag.Int("items", 1000, "item domain size (selfserve mode)")
		eps       = flag.Float64("eps", 2, "privacy budget ε")
		split     = flag.Float64("split", 0.5, "label budget fraction ε₁/ε (selfserve mode)")
		dsName    = flag.String("dataset", "syntopk", "synthetic population: syntopk | uniform")
		users     = flag.Int("users", 100_000, "population size (reports to submit)")
		clients   = flag.Int("clients", 8, "concurrent client workers")
		batch     = flag.Int("batch", 256, "reports per batch request (0 = single-report endpoint, freq mode only)")
		ndjson    = flag.Bool("ndjson", false, "submit batches as NDJSON streams instead of JSON arrays (freq mode)")
		wire      = flag.String("wire", "json", "batch wire format: json | binary (freq, topk and mean modes)")
		readRatio = flag.Float64("read-ratio", 0.5, "query mode: fraction of -clients that poll GET /estimates (the rest ingest); 0 < ratio < 1")
		seed      = flag.Uint64("seed", 1, "generation and perturbation seed")
		jsonOut   = flag.Bool("json", false, "emit the run summary as one JSON object on stdout")
		tenantNm  = flag.String("tenant", "", "target one tenant's routes on a multi-tenant server")
		token     = flag.String("token", "", "bearer token for the targeted tenant's data routes")
		tenantsN  = flag.Int("tenants", 0, "fan the freq workload out over N tenants load-0..load-(N-1), created via the admin API (0 = off)")
		adminTok  = flag.String("admin-token", "", "admin bearer token for -tenants fan-out creation")
		scrape    = flag.Duration("scrape", 0, "poll the server's GET /metrics at this interval during the run, recording a time series in the -json summary (0 = off)")
		logLevel  = flag.String("log-level", "info", "structured log level: debug | info | warn | error")
		logFormat = flag.String("log-format", "kv", "structured log line format: kv | json")
	)
	flag.Parse()
	if err := obs.SetupDefault(*logLevel, *logFormat); err != nil {
		log.Fatal(err)
	}
	// Route the stdlib log package through the structured logger so every
	// progress line this tool emits has the same shape.
	log.SetFlags(0)
	log.SetOutput(obs.StdlogWriter(obs.LevelInfo))
	if (*url == "") == !*selfserve {
		fmt.Fprintln(os.Stderr, "mcimload: exactly one of -url or -selfserve is required")
		flag.Usage()
		os.Exit(2)
	}
	if *clients < 1 || *users < 1 {
		log.Fatalf("mcimload: need at least 1 client and 1 user")
	}
	if *mode != "freq" && *mode != "topk" && *mode != "mean" && *mode != "query" {
		log.Fatalf("mcimload: unknown mode %q (want freq, topk, mean or query)", *mode)
	}
	if *mode == "query" {
		if *readRatio <= 0 || *readRatio >= 1 {
			log.Fatalf("mcimload: -read-ratio %v out of range (want 0 < ratio < 1)", *readRatio)
		}
		if *clients < 2 {
			log.Fatalf("mcimload: -mode query needs at least 2 clients (one writer, one reader)")
		}
	}
	if *wire != "json" && *wire != "binary" {
		log.Fatalf("mcimload: unknown wire format %q (want json or binary)", *wire)
	}
	binary := *wire == "binary"
	if binary && *ndjson {
		log.Fatalf("mcimload: -wire binary and -ndjson are mutually exclusive")
	}
	if *tenantsN > 0 {
		if *mode != "freq" {
			log.Fatalf("mcimload: -tenants fan-out only supports -mode freq")
		}
		if *tenantNm != "" {
			log.Fatalf("mcimload: -tenants and -tenant are mutually exclusive")
		}
	}
	if (*mode == "topk" || *mode == "mean" || *mode == "query") && *batch < 1 {
		// These paths have no single-report submission; normalize here so
		// the -json summary records the batch size actually used.
		*batch = 256
	}

	base := *url
	if *selfserve && *tenantsN > 0 {
		// Fan-out drives a multi-tenant registry; the tenants themselves are
		// created below through the same admin API an external run uses.
		reg, err := tenant.New(tenant.Options{AdminToken: *adminTok})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, reg.Handler()) //nolint:errcheck — dies with the process
		base = "http://" + ln.Addr().String()
		log.Printf("in-process multi-tenant registry on %s", base)
	} else if *selfserve {
		var opts []collect.ServerOption
		var proto *core.Protocol
		if *mode == "mean" {
			// A mean-only server: the frequency tier is not driven, so it is
			// not mounted.
			np, err := core.NewNumericProtocol(*meanFw, *classes, *eps, *split)
			if err != nil {
				log.Fatal(err)
			}
			opts = []collect.ServerOption{collect.WithMean(np)}
		} else {
			var err error
			proto, err = core.NewProtocol(*framework, *classes, *items, *eps, *split)
			if err != nil {
				log.Fatal(err)
			}
			opts = []collect.ServerOption{collect.WithTopKSessions(collect.TopKOptions{})}
		}
		srv, err := collect.NewServer(proto, opts...)
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, srv.Handler()) //nolint:errcheck — dies with the process
		base = "http://" + ln.Addr().String()
		if *mode == "mean" {
			log.Printf("in-process mean-tier server (%s) on %s (c=%d ε=%v)",
				*meanFw, base, *classes, *eps)
		} else {
			log.Printf("in-process %s server on %s (c=%d d=%d ε=%v, topk sessions on)",
				proto.Name(), base, *classes, *items, *eps)
		}
	}

	// Tenant targeting is a client-side transform: prefix the base with the
	// tenant's routes and carry its bearer token on every request.
	hc := collect.BearerClient(nil, *token)
	if *tenantNm != "" {
		base = collect.TenantBaseURL(base, *tenantNm)
	}

	sum := summary{Mode: *mode, Clients: *clients, Batch: *batch, Wire: *wire}
	var scr *scraper
	if *scrape > 0 {
		scr = startScraper(base, hc, *scrape)
	}
	if *tenantsN > 0 {
		if binary && *batch < 1 {
			log.Fatalf("mcimload: -wire binary needs batched submission (-batch >= 1)")
		}
		spec := tenant.Spec{
			Freq: &tenant.FreqSpec{Protocol: *framework, Classes: *classes, Items: *items, Epsilon: *eps, Split: *split},
		}
		sum.Framework = *framework
		runFanout(base, *adminTok, *tenantsN, spec, *dsName, *users, &sum, *batch, *ndjson, binary, *clients, *seed, *jsonOut)
	} else if *mode == "mean" {
		// The population must match the server's mean domain, generated from
		// the fetched /mean/config (which also validates the server is up).
		probe, err := collect.NewMeanClient(base, hc, *seed)
		if err != nil {
			log.Fatal(err)
		}
		mcfg := probe.Config()
		data := buildMeanDataset(mcfg.Classes, *users, *seed)
		sum.Framework = mcfg.Protocol
		sum.Dataset = data.Name
		sum.Users = data.N()
		runMean(base, hc, probe, data, &sum, *clients, *batch, *ndjson, binary, *seed, *jsonOut)
	} else {
		// The population must match the server's domain, so it is generated
		// from the fetched config (which also validates the server is up).
		probe, err := collect.NewClient(base, hc, *seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg := probe.Config()
		data, err := buildDataset(*dsName, cfg.Classes, cfg.Items, *users, *seed)
		if err != nil {
			log.Fatal(err)
		}
		r := xrand.New(*seed + 1)
		data = data.Shuffled(r)
		sum.Dataset = data.Name
		sum.Users = data.N()
		switch *mode {
		case "freq":
			if binary && *batch < 1 {
				log.Fatalf("mcimload: -wire binary needs batched submission (-batch >= 1)")
			}
			sum.Framework = cfg.Protocol
			runFreq(base, hc, probe, data, &sum, *batch, *ndjson, binary, *clients, *seed, *jsonOut)
		case "topk":
			sum.Framework = *miner
			sum.K = *k
			runTopK(base, hc, data, &sum, *miner, *optimized, *k, *eps, *clients, *batch, binary, *seed, *jsonOut)
		case "query":
			sum.Framework = cfg.Protocol
			runQuery(base, hc, probe, data, &sum, *readRatio, *batch, *ndjson, binary, *clients, *seed, *jsonOut)
		}
	}
	if scr != nil {
		sum.Scrape = scr.stop()
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
	}
	// Operational snapshot: on WAL-backed servers this also shows the
	// durability cost of the run (segments written, bytes not yet folded
	// into a snapshot). In fan-out mode the per-tenant verification already
	// fetched each tenant's stats, so skip the (tenant-less) base here.
	if *tenantsN > 0 {
		return
	}
	if stats, err := fetchStats(base, hc); err == nil {
		if stats.Protocol != "" {
			log.Printf("server: %d reports (%s)", stats.Reports, stats.Protocol)
		}
		if stats.WAL != nil {
			log.Printf("server wal: %d segments, %d bytes since last compaction (last snapshot %q)",
				stats.WAL.Segments, stats.WAL.BytesSinceCompaction, stats.WAL.LastSnapshot)
		}
		if stats.TopK != nil {
			log.Printf("server topk: %d sessions (%d open)", stats.TopK.Sessions, stats.TopK.Open)
		}
		if stats.Mean != nil {
			log.Printf("server mean tier: %d reports (%s)", stats.Mean.Reports, stats.Mean.Protocol)
			if stats.Mean.WAL != nil {
				log.Printf("server mean wal: %d segments, %d bytes since last compaction",
					stats.Mean.WAL.Segments, stats.Mean.WAL.BytesSinceCompaction)
			}
		}
	}
}

// fetchStats reads /stats directly, working against any server shape
// (including mean-only servers that mount no frequency /config).
func fetchStats(base string, hc *http.Client) (*collect.WireStats, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Get(base + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats status %s", resp.Status)
	}
	var st collect.WireStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// scrapePoint is one poll of the target's GET /metrics: seconds since the
// scraper started and every mcim_ sample at that instant (histogram
// per-bucket lines skipped for compactness; _sum and _count carried).
type scrapePoint struct {
	ElapsedSec float64            `json:"elapsed_sec"`
	Samples    map[string]float64 `json:"samples"`
}

// scraper polls GET /metrics on a fixed interval for the duration of a run.
type scraper struct {
	done   chan struct{}
	points chan []scrapePoint
}

// startScraper begins polling base+"/metrics" every interval. Scrape
// failures are logged and skipped — a load run must not die because a
// scrape raced server startup.
func startScraper(base string, hc *http.Client, every time.Duration) *scraper {
	if hc == nil {
		hc = http.DefaultClient
	}
	s := &scraper{done: make(chan struct{}), points: make(chan []scrapePoint, 1)}
	go func() {
		var pts []scrapePoint
		start := time.Now()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if p, err := scrapeOnce(base, hc, start); err == nil {
					pts = append(pts, p)
				} else {
					log.Printf("scrape: %v", err)
				}
			case <-s.done:
				// A final point so the series always covers the run's end
				// state, even when the run finished inside one interval.
				if p, err := scrapeOnce(base, hc, start); err == nil {
					pts = append(pts, p)
				} else {
					log.Printf("scrape: %v", err)
				}
				s.points <- pts
				return
			}
		}
	}()
	return s
}

// stop takes the final scrape and returns the collected series.
func (s *scraper) stop() []scrapePoint {
	close(s.done)
	return <-s.points
}

func scrapeOnce(base string, hc *http.Client, start time.Time) (scrapePoint, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return scrapePoint{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrapePoint{}, fmt.Errorf("metrics status %s", resp.Status)
	}
	expo, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return scrapePoint{}, err
	}
	samples := make(map[string]float64)
	for key, v := range expo.Samples() {
		if !strings.HasPrefix(key, "mcim_") || strings.Contains(key, "_bucket") {
			continue
		}
		samples[key] = v
	}
	return scrapePoint{ElapsedSec: time.Since(start).Seconds(), Samples: samples}, nil
}

// out prints human-readable results unless the run is in -json mode (where
// stdout must stay one JSON object; progress goes to stderr via log).
func out(jsonOut bool, format string, args ...any) {
	if jsonOut {
		log.Printf(format, args...)
		return
	}
	fmt.Printf(format+"\n", args...)
}

// runFreq drives the frequency-estimation ingestion workload.
func runFreq(base string, hc *http.Client, probe *collect.Client, data *core.Dataset, sum *summary,
	batch int, ndjson, binary bool, clients int, seed uint64, jsonOut bool) {
	// Baseline the server's report count: against a long-running server it
	// may already hold reports from earlier rounds.
	est0, err := probe.Estimates()
	if err != nil {
		log.Fatal(err)
	}
	baseline := est0.Reports
	log.Printf("population %s: %d users over %d classes × %d items",
		data.Name, data.N(), data.Classes, data.Items)

	// Partition the population over K workers and drive them concurrently.
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		requests  int
		firstErr  error
	)
	perWorker := (data.N() + clients - 1) / clients
	start := time.Now()
	for w := 0; w < clients; w++ {
		lo := w * perWorker
		hi := min(lo+perWorker, data.N())
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w int, pairs []core.Pair) {
			defer wg.Done()
			lats, n, err := drive(base, hc, pairs, batch, ndjson, binary, seed+uint64(w)*7919)
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lats...)
			requests += n
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("worker %d: %w", w, err)
			}
		}(w, data.Pairs[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		log.Fatal(firstErr)
	}
	fillTiming(sum, latencies, requests, elapsed, data.N())
	out(jsonOut, "drove %d clients, %d requests (batch=%d, wire=%s, ndjson=%v) in %v",
		clients, requests, batch, sum.Wire, ndjson, elapsed.Round(time.Millisecond))
	out(jsonOut, "throughput: %.0f reports/sec", sum.ReportsSec)
	p50, p99, maxLat := percentiles(latencies)
	out(jsonOut, "request latency: p50 %v  p99 %v  max %v",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), maxLat.Round(time.Microsecond))

	// Accuracy against ground truth: the served estimates are unbiased, so
	// RMSE here is mechanism noise, not ingestion error — a sanity check
	// that speed did not cost correctness.
	est, err := probe.Estimates()
	if err != nil {
		log.Fatal(err)
	}
	if got := est.Reports - baseline; got != data.N() {
		log.Fatalf("server ingested %d of %d reports this run", got, data.N())
	}
	if baseline > 0 {
		// The served estimates cover every report the server holds; scoring
		// them against this run's truth alone reads class_size_rel_err 1.0,
		// 2.0, … on repeat runs. Leave the accuracy fields out instead.
		log.Printf("note: server held %d reports before this run; its estimates cover all %d, so accuracy against this run's truth is not scored", baseline, est.Reports)
		return
	}
	truth := data.TrueFrequencies()
	classCounts := data.ClassCounts()
	relErrSum, relErrN := 0.0, 0
	for c, want := range classCounts {
		if want > 0 {
			relErrSum += math.Abs(est.ClassSizes[c]-float64(want)) / float64(want)
			relErrN++
		}
	}
	rmse := metrics.RMSE(est.Frequencies, truth)
	relErr := relErrSum / float64(relErrN)
	sum.RMSE, sum.ClassSizeRelErr = &rmse, &relErr
	out(jsonOut, "accuracy: frequency RMSE %.2f over %d×%d cells, class-size mean relative error %.2f%%",
		rmse, data.Classes, data.Items, 100*relErr)
}

// runQuery drives the mixed read/write workload: ceil(clients·readRatio)
// reader workers poll GET /estimates as fast as the server answers while
// the remaining writers ingest the population through the batch endpoint.
// Readers run until the last writer finishes, so every query lands under
// concurrent ingest — the regime the versioned estimate cache is built
// for. Ingest is verified and scored exactly like -mode freq; the summary
// additionally reports queries/sec and query latency percentiles.
func runQuery(base string, hc *http.Client, probe *collect.Client, data *core.Dataset, sum *summary,
	readRatio float64, batch int, ndjson, binary bool, clients int, seed uint64, jsonOut bool) {
	if hc == nil {
		hc = http.DefaultClient
	}
	readers := int(math.Ceil(float64(clients) * readRatio))
	if readers >= clients {
		readers = clients - 1
	}
	writers := clients - readers
	est0, err := probe.Estimates()
	if err != nil {
		log.Fatal(err)
	}
	baseline := est0.Reports
	log.Printf("population %s: %d users over %d classes × %d items; %d writers + %d readers",
		data.Name, data.N(), data.Classes, data.Items, writers, readers)

	var (
		writeWG, readWG sync.WaitGroup
		mu              sync.Mutex
		latencies       []time.Duration
		requests        int
		firstErr        error
		qlats           []time.Duration
		queries         int
		qErr            error
	)
	stop := make(chan struct{})
	start := time.Now()
	for w := 0; w < readers; w++ {
		readWG.Add(1)
		go func(w int) {
			defer readWG.Done()
			var lats []time.Duration
			var err error
			for err == nil {
				select {
				case <-stop:
					err = errStopped
				default:
					t0 := time.Now()
					resp, gerr := hc.Get(base + "/estimates")
					if gerr != nil {
						err = gerr
						break
					}
					_, cerr := io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch {
					case cerr != nil:
						err = cerr
					case resp.StatusCode != http.StatusOK:
						err = fmt.Errorf("estimates status %s", resp.Status)
					default:
						lats = append(lats, time.Since(t0))
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			qlats = append(qlats, lats...)
			queries += len(lats)
			if err != errStopped && qErr == nil {
				qErr = fmt.Errorf("reader %d: %w", w, err)
			}
		}(w)
	}
	perWorker := (data.N() + writers - 1) / writers
	for w := 0; w < writers; w++ {
		lo := w * perWorker
		hi := min(lo+perWorker, data.N())
		if lo >= hi {
			break
		}
		writeWG.Add(1)
		go func(w int, pairs []core.Pair) {
			defer writeWG.Done()
			lats, n, err := drive(base, hc, pairs, batch, ndjson, binary, seed+uint64(w)*7919)
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lats...)
			requests += n
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("writer %d: %w", w, err)
			}
		}(w, data.Pairs[lo:hi])
	}
	writeWG.Wait()
	elapsed := time.Since(start)
	close(stop)
	readWG.Wait()
	if firstErr != nil {
		log.Fatal(firstErr)
	}
	if qErr != nil {
		log.Fatal(qErr)
	}
	fillTiming(sum, latencies, requests, elapsed, data.N())
	sum.ReadRatio = readRatio
	sum.Queries = queries
	sum.QueriesSec = float64(queries) / elapsed.Seconds()
	qp50, qp99, qmax := percentiles(qlats)
	sum.QueryP50Micros = float64(qp50) / float64(time.Microsecond)
	sum.QueryP99Micros = float64(qp99) / float64(time.Microsecond)
	out(jsonOut, "drove %d writers + %d readers, %d ingest requests (batch=%d, wire=%s) in %v",
		writers, readers, requests, batch, sum.Wire, elapsed.Round(time.Millisecond))
	out(jsonOut, "ingest throughput: %.0f reports/sec", sum.ReportsSec)
	p50, p99, maxLat := percentiles(latencies)
	out(jsonOut, "ingest latency: p50 %v  p99 %v  max %v",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), maxLat.Round(time.Microsecond))
	out(jsonOut, "query throughput: %d queries, %.0f queries/sec", queries, sum.QueriesSec)
	out(jsonOut, "query latency: p50 %v  p99 %v  max %v",
		qp50.Round(time.Microsecond), qp99.Round(time.Microsecond), qmax.Round(time.Microsecond))

	est, err := probe.Estimates()
	if err != nil {
		log.Fatal(err)
	}
	if got := est.Reports - baseline; got != data.N() {
		log.Fatalf("server ingested %d of %d reports this run", got, data.N())
	}
}

// errStopped is the sentinel a query-mode reader exits on when the writers
// finish; it is never reported.
var errStopped = fmt.Errorf("mcimload: run finished")

// runFanout drives the frequency workload over n tenants at once: tenants
// load-0..load-(n-1) are created (or reused) through the admin API from the
// spec template, workers are striped across them, and the summary reports
// both aggregate and per-tenant throughput. Accuracy is not scored — the
// population is split across independent aggregates; this mode measures
// whether per-tenant isolation costs ingestion throughput.
func runFanout(base, adminTok string, n int, spec tenant.Spec, dsName string, users int, sum *summary,
	batch int, ndjson, binary bool, clients int, seed uint64, jsonOut bool) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("load-%d", i)
		if err := createTenant(base, adminTok, names[i], spec); err != nil {
			log.Fatal(err)
		}
	}
	f := spec.Freq
	data, err := buildDataset(dsName, f.Classes, f.Items, users, seed)
	if err != nil {
		log.Fatal(err)
	}
	data = data.Shuffled(xrand.New(seed + 1))
	sum.Dataset = data.Name
	sum.Users = data.N()
	sum.Tenants = n
	// Baseline each tenant so the post-run verification tolerates reused
	// tenants on a long-running server.
	baseline := make(map[string]int, n)
	for _, name := range names {
		st, err := fetchStats(collect.TenantBaseURL(base, name), nil)
		if err != nil {
			log.Fatal(err)
		}
		baseline[name] = st.Reports
	}
	log.Printf("population %s: %d users over %d classes × %d items, fanned over %d tenants",
		data.Name, data.N(), data.Classes, data.Items, n)

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		requests  int
		firstErr  error
	)
	perTenant := make(map[string]int, n)
	perWorker := (data.N() + clients - 1) / clients
	start := time.Now()
	for w := 0; w < clients; w++ {
		lo := w * perWorker
		hi := min(lo+perWorker, data.N())
		if lo >= hi {
			break
		}
		name := names[w%n]
		perTenant[name] += hi - lo
		wg.Add(1)
		go func(w int, name string, pairs []core.Pair) {
			defer wg.Done()
			lats, nreq, err := drive(base, nil, pairs, batch, ndjson, binary, seed+uint64(w)*7919,
				collect.WithTenant(name, ""))
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lats...)
			requests += nreq
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("worker %d (tenant %s): %w", w, name, err)
			}
		}(w, name, data.Pairs[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		log.Fatal(firstErr)
	}
	fillTiming(sum, latencies, requests, elapsed, data.N())
	out(jsonOut, "drove %d clients over %d tenants, %d requests (batch=%d, wire=%s) in %v",
		clients, n, requests, batch, sum.Wire, elapsed.Round(time.Millisecond))
	out(jsonOut, "aggregate throughput: %.0f reports/sec", sum.ReportsSec)
	p50, p99, maxLat := percentiles(latencies)
	out(jsonOut, "request latency: p50 %v  p99 %v  max %v",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), maxLat.Round(time.Microsecond))
	// Verify isolation did not leak reports: each tenant must hold exactly
	// the slice driven at it.
	for _, name := range names {
		st, err := fetchStats(collect.TenantBaseURL(base, name), nil)
		if err != nil {
			log.Fatal(err)
		}
		if got := st.Reports - baseline[name]; got != perTenant[name] {
			log.Fatalf("tenant %s ingested %d of %d reports this run", name, got, perTenant[name])
		}
		sum.PerTenant = append(sum.PerTenant, tenantThroughput{
			Name:       name,
			Reports:    perTenant[name],
			ReportsSec: float64(perTenant[name]) / elapsed.Seconds(),
		})
		out(jsonOut, "tenant %s: %d reports, %.0f reports/sec", name, perTenant[name],
			float64(perTenant[name])/elapsed.Seconds())
	}
}

// createTenant registers one tenant through the admin API, treating "already
// exists" as success so fan-out runs are repeatable against a durable
// server.
func createTenant(base, adminTok, name string, spec tenant.Spec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, base+"/admin/tenants/"+name, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if adminTok != "" {
		req.Header.Set("Authorization", "Bearer "+adminTok)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("create tenant %s: %w", name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusConflict {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("create tenant %s: status %s: %s", name, resp.Status, bytes.TrimSpace(msg))
}

// runTopK creates a mining session and drives the population through its
// rounds with K concurrent workers, then scores the mined rankings. With
// -wire binary each batch ships as one CRC-sealed 'T' session frame; the
// run refuses up front when the server does not advertise the binary lane,
// and the -json summary's Wire field records the format actually used.
func runTopK(base string, hc *http.Client, data *core.Dataset, sum *summary,
	miner string, optimized bool, k int, eps float64, clients, batch int, binary bool, seed uint64, jsonOut bool) {
	opt := topk.Baseline()
	if optimized {
		opt = topk.Optimized()
	}
	sessionSeed := xrand.New(seed + 2).Uint64()
	ts, err := collect.NewTopKSession(base, hc, topk.SessionParams{
		Framework: miner,
		Classes:   data.Classes,
		Items:     data.Items,
		K:         k,
		Eps:       eps,
		Users:     data.N(),
		Seed:      sessionSeed,
		Opt:       opt,
	})
	if err != nil {
		log.Fatal(err)
	}
	info := ts.Info()
	sum.Rounds = info.Rounds
	if binary && !slices.Contains(info.Wire, "binary") {
		log.Fatalf("mcimload: -wire binary requested but session %s advertises only %v", info.ID, info.Wire)
	}
	sum.Wire = "json"
	if binary {
		sum.Wire = "binary"
	}
	log.Printf("session %s: %s over %d×%d, k=%d, %d rounds, %d users, wire=%s",
		info.ID, info.Params.Framework, data.Classes, data.Items, k, info.Rounds, data.N(), sum.Wire)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		requests  int
	)
	user := 0
	start := time.Now()
	for {
		rd, err := ts.Round()
		if err != nil {
			log.Fatal(err)
		}
		if rd.Done {
			break
		}
		// Every worker shares the round's encoder (it is concurrency-safe
		// with per-user rands) and takes an interleaved slice of this
		// round's user group.
		enc, err := topk.NewRoundEncoder(rd.Config)
		if err != nil {
			log.Fatal(err)
		}
		todo := rd.Config.Quota - rd.Received
		reps := make([]topk.RoundReport, todo)
		var encWG sync.WaitGroup
		per := (todo + clients - 1) / clients
		for w := 0; w < clients; w++ {
			lo := w * per
			hi := min(lo+per, todo)
			if lo >= hi {
				break
			}
			encWG.Add(1)
			go func(lo, hi int) {
				defer encWG.Done()
				for i := lo; i < hi; i++ {
					u := user + i
					rep, err := enc.Encode(data.Pairs[u], topk.UserRand(sessionSeed, u))
					if err != nil {
						log.Fatal(err)
					}
					reps[i] = rep
				}
			}(lo, hi)
		}
		encWG.Wait()
		user += todo
		// Post the round's batches concurrently; the server seals the
		// round when the last batch lands.
		var postWG sync.WaitGroup
		var postErr error
		sem := make(chan struct{}, clients)
		for lo := 0; lo < len(reps); lo += batch {
			hi := min(lo+batch, len(reps))
			postWG.Add(1)
			sem <- struct{}{}
			go func(chunk []topk.RoundReport) {
				defer postWG.Done()
				defer func() { <-sem }()
				t0 := time.Now()
				var ack *collect.WireTopKAck
				var err error
				if binary {
					ack, err = ts.PostReportsBinary(rd.Config, chunk)
				} else {
					ack, err = ts.PostReports(chunk)
				}
				lat := time.Since(t0)
				mu.Lock()
				defer mu.Unlock()
				latencies = append(latencies, lat)
				requests++
				if err != nil && postErr == nil {
					postErr = err
				} else if err == nil && ack.Rejected > 0 && postErr == nil {
					postErr = fmt.Errorf("round %d rejected %d reports: %v", rd.Config.Round, ack.Rejected, ack.Errors)
				}
			}(reps[lo:hi])
		}
		postWG.Wait()
		if postErr != nil {
			log.Fatal(postErr)
		}
	}
	elapsed := time.Since(start)
	res, err := ts.Result()
	if err != nil {
		log.Fatal(err)
	}
	fillTiming(sum, latencies, requests, elapsed, user)
	out(jsonOut, "drove %d clients through %d rounds, %d requests in %v",
		clients, sum.Rounds, requests, elapsed.Round(time.Millisecond))
	out(jsonOut, "throughput: %.0f reports/sec", sum.ReportsSec)
	p50, p99, maxLat := percentiles(latencies)
	out(jsonOut, "request latency: p50 %v  p99 %v  max %v",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), maxLat.Round(time.Microsecond))

	// Score the mined rankings against the exact per-class top-k.
	truth := data.TrueFrequencies()
	ncrSum, f1Sum := 0.0, 0.0
	for c := 0; c < data.Classes; c++ {
		want := metrics.TopK(truth[c], k)
		ncrSum += metrics.NCR(res.PerClass[c], want)
		f1Sum += metrics.F1(res.PerClass[c], want)
	}
	ncr := ncrSum / float64(data.Classes)
	f1 := f1Sum / float64(data.Classes)
	sum.NCR, sum.F1 = &ncr, &f1
	out(jsonOut, "quality: mean NCR %.3f, mean F1 %.3f over %d classes (k=%d)", ncr, f1, data.Classes, k)
}

// buildMeanDataset generates the gaussian per-class population for the
// mean workload: class c's values are normal around a center spread across
// [−0.8, 0.8] (σ = 0.2, truncated to the value domain), with skewed class
// sizes so the class-size estimators have something non-trivial to
// recover.
func buildMeanDataset(classes, users int, seed uint64) *mean.Dataset {
	r := xrand.New(seed)
	centers := make([]float64, classes)
	for c := range centers {
		if classes > 1 {
			centers[c] = -0.8 + 1.6*float64(c)/float64(classes-1)
		}
	}
	// Class weights decay harmonically: class c has weight 1/(c+1).
	weights := make([]float64, classes)
	total := 0.0
	for c := range weights {
		weights[c] = 1 / float64(c+1)
		total += weights[c]
	}
	d := &mean.Dataset{Classes: classes, Name: "GAUSS"}
	for i := 0; i < users; i++ {
		u, c := r.Float64()*total, 0
		for u > weights[c] && c < classes-1 {
			u -= weights[c]
			c++
		}
		x := centers[c] + 0.2*r.NormFloat64()
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

// runMean drives the numeric mean-tier ingestion workload: K concurrent
// buffered clients, each perturbing its slice of the population locally
// (the canonical user index rides along, so HEC-Mean's partition is
// consistent across workers) and shipping batch requests.
func runMean(base string, hc *http.Client, probe *collect.MeanClient, data *mean.Dataset, sum *summary,
	clients, batch int, ndjson, binary bool, seed uint64, jsonOut bool) {
	est0, err := probe.Estimates()
	if err != nil {
		log.Fatal(err)
	}
	baseline := est0.Reports
	log.Printf("population %s: %d users over %d classes, values in [-1,1]",
		data.Name, data.N(), data.Classes)

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		requests  int
		firstErr  error
	)
	perWorker := (data.N() + clients - 1) / clients
	start := time.Now()
	for w := 0; w < clients; w++ {
		lo := w * perWorker
		hi := min(lo+perWorker, data.N())
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, firstUser int, values []mean.Value) {
			defer wg.Done()
			client, err := collect.NewMeanClient(base, hc, seed+uint64(w)*7919,
				collect.WithBatchSize(batch), collect.WithNDJSON(ndjson), collect.WithBinary(binary))
			var lats []time.Duration
			n := 0
			if err == nil {
				// Buffered submission: reports accumulate locally and ship as
				// one batch request per `batch` reports. A Buffer call that
				// shrank the buffer performed a flush — that is the request
				// whose latency we record.
				for i, v := range values {
					before := client.Pending()
					t0 := time.Now()
					if err = client.Buffer(firstUser+i, v); err != nil {
						break
					}
					if client.Pending() <= before {
						lats = append(lats, time.Since(t0))
						n++
					}
				}
				if err == nil && client.Pending() > 0 {
					t0 := time.Now()
					if err = client.Flush(); err == nil {
						lats = append(lats, time.Since(t0))
						n++
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lats...)
			requests += n
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("worker %d: %w", w, err)
			}
		}(w, lo, data.Values[lo:hi])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		log.Fatal(firstErr)
	}
	fillTiming(sum, latencies, requests, elapsed, data.N())
	out(jsonOut, "drove %d clients, %d requests (batch=%d, wire=%s, ndjson=%v) in %v",
		clients, requests, batch, sum.Wire, ndjson, elapsed.Round(time.Millisecond))
	out(jsonOut, "throughput: %.0f reports/sec", sum.ReportsSec)
	p50, p99, maxLat := percentiles(latencies)
	out(jsonOut, "request latency: p50 %v  p99 %v  max %v",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), maxLat.Round(time.Microsecond))

	est, err := probe.Estimates()
	if err != nil {
		log.Fatal(err)
	}
	if got := est.Reports - baseline; got != data.N() {
		log.Fatalf("server ingested %d of %d reports this run", got, data.N())
	}
	if baseline > 0 {
		// The served estimates cover every report the server holds; scoring
		// them against this run's truth alone reads class_size_rel_err 1.0,
		// 2.0, … on repeat runs. Leave the accuracy fields out instead.
		log.Printf("note: server held %d reports before this run; its estimates cover all %d, so accuracy against this run's truth is not scored", baseline, est.Reports)
		return
	}
	truth, sizes := data.TrueMeans()
	maeSum, relErrSum, relErrN := 0.0, 0.0, 0
	for c := range truth {
		maeSum += math.Abs(est.Means[c] - truth[c])
		if sizes[c] > 0 {
			relErrSum += math.Abs(est.ClassSizes[c]-float64(sizes[c])) / float64(sizes[c])
			relErrN++
		}
	}
	mae := maeSum / float64(data.Classes)
	relErr := relErrSum / float64(relErrN)
	sum.MeanMAE, sum.ClassSizeRelErr = &mae, &relErr
	out(jsonOut, "accuracy: per-class mean MAE %.4f, class-size mean relative error %.2f%% over %d classes",
		mae, 100*relErr, data.Classes)
}

// fillTiming populates the summary's shared throughput/latency fields.
func fillTiming(sum *summary, lats []time.Duration, requests int, elapsed time.Duration, reports int) {
	p50, p99, maxLat := percentiles(lats)
	sum.Requests = requests
	sum.ElapsedSec = elapsed.Seconds()
	sum.ReportsSec = float64(reports) / elapsed.Seconds()
	sum.P50Micros = float64(p50) / float64(time.Microsecond)
	sum.P99Micros = float64(p99) / float64(time.Microsecond)
	sum.MaxMicros = float64(maxLat) / float64(time.Microsecond)
}

// drive submits pairs from one worker, returning per-request latencies and
// the request count. Extra client options (tenant targeting) append to the
// wire-format ones.
func drive(base string, hc *http.Client, pairs []core.Pair, batch int, ndjson, binary bool, seed uint64, opts ...collect.ClientOption) ([]time.Duration, int, error) {
	copts := append([]collect.ClientOption{collect.WithNDJSON(ndjson), collect.WithBinary(binary)}, opts...)
	client, err := collect.NewClient(base, hc, seed, copts...)
	if err != nil {
		return nil, 0, err
	}
	var lats []time.Duration
	if batch < 1 {
		// Seed-style single-report submission, one request per report.
		for _, p := range pairs {
			t0 := time.Now()
			if err := client.Submit(p); err != nil {
				return lats, len(lats), err
			}
			lats = append(lats, time.Since(t0))
		}
		return lats, len(lats), nil
	}
	for lo := 0; lo < len(pairs); lo += batch {
		hi := min(lo+batch, len(pairs))
		t0 := time.Now()
		ack, err := client.SubmitBatch(pairs[lo:hi])
		if err != nil {
			return lats, len(lats), err
		}
		lats = append(lats, time.Since(t0))
		if ack.Rejected > 0 {
			return lats, len(lats), fmt.Errorf("server rejected %d reports: %v", ack.Rejected, ack.Errors)
		}
	}
	return lats, len(lats), nil
}

// buildDataset generates the synthetic population over exactly the server's
// (classes, items) domain.
func buildDataset(name string, classes, items, users int, seed uint64) (*core.Dataset, error) {
	switch name {
	case "syntopk":
		cfg := dataset.SynTopKConfig{
			Classes:  classes,
			Items:    items,
			Users:    users,
			HeadSize: 20,
			Global:   true,
		}
		// Shrink the head window for small domains so the generator's
		// d ≥ head·(c+1) precondition holds.
		if maxHead := items / (classes + 1); cfg.HeadSize > maxHead {
			cfg.HeadSize = maxHead
		}
		if cfg.HeadSize >= 1 && classes >= 2 {
			return dataset.SynTopK(cfg, seed, 1)
		}
		fallthrough // degenerate domain: uniform is the only sensible population
	case "uniform":
		r := xrand.New(seed)
		d := &core.Dataset{Pairs: make([]core.Pair, users), Classes: classes, Items: items, Name: "UNIFORM"}
		for i := range d.Pairs {
			d.Pairs[i] = core.Pair{Class: r.Intn(classes), Item: r.Intn(items)}
		}
		return d, nil
	default:
		return nil, fmt.Errorf("mcimload: unknown dataset %q (want syntopk or uniform)", name)
	}
}

// percentiles returns p50, p99 and max of the observed latencies.
func percentiles(lats []time.Duration) (p50, p99, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	return at(0.50), at(0.99), lats[len(lats)-1]
}
