// Command mcimload runs the paper's evaluation through the real wire and the
// real clients: it drives a synthetic population at a collection server and
// scores what the server then serves against the population's ground truth.
// -mode picks the tier:
//
//   - freq (default) submits frequency-estimation reports and scores the
//     served estimates (RMSE, class-size relative error);
//   - mean submits numeric (label, value) reports over a gaussian per-class
//     population and scores the served classwise means (MAE) and class
//     sizes (relative error);
//   - topk creates an interactive top-k mining session, drives the whole
//     population through its rounds — fetch broadcast, perturb locally,
//     post reports, repeat — scores the mined rankings with NCR/F1 against
//     the exact per-class top-k, and deletes the session.
//
// Every mode is the same driver (drive) over one row of the tier table
// (tiers): K concurrent workers each perturb a slice of the population
// locally and ship it in batch requests, the run verifies that the server
// acknowledged and holds exactly the population, and -json emits the
// summary as one JSON object on stdout. The reports/sec and latencies
// printed include the client-side perturbation, so they describe this tool;
// the server's throughput and latency are benchmark/'s job
// (bash benchmark/run.sh).
//
// Self-contained runs (spin up an in-process server on a loopback port):
//
//	mcimload -selfserve -framework ptscp -users 200000 -clients 8 -batch 256
//	mcimload -selfserve -wire binary -users 200000 -clients 8 -batch 512
//	mcimload -selfserve -mode topk -miner pts -k 8 -users 200000 -clients 8
//	mcimload -selfserve -mode mean -mean-framework cpmean -users 200000 -clients 8
//
// Against an external server (mcimcollect -serve; top-k mode needs it
// started with -topk, mean mode with -mean):
//
//	mcimload -url http://localhost:8090 -users 200000 -clients 8
//
// The population is generated over exactly the domain the server
// advertises. It reuses the paper's dataset generators (internal/dataset):
// -dataset syntopk draws the SYN3-style skewed multi-class population;
// -dataset uniform draws uniformly, which maximizes wire-format density.
//
// Against a multi-tenant server (mcimcollect -tenants), -tenant/-token
// target one tenant's routes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mean"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// summary is the -json run report: one flat object per run. The accuracy
// fields of the other tiers, and of a run left unscored, are absent.
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
}

// options is the command line as the tiers read it, plus the target it
// resolved to.
type options struct {
	framework, miner, meanFw string
	optimized                bool
	k, classes, items        int
	eps, split               float64
	dataset                  string
	users, clients, batch    int
	binary                   bool
	seed                     uint64

	base string       // -url or the in-process server, tenant prefix applied
	hc   *http.Client // carries -token
}

// load is one tier's population bound to the target: everything the driver
// needs from a row of the tier table.
type load interface {
	// span returns the end of the run of users starting at lo that may be
	// in flight together: the whole population on the report tiers, one
	// round's user group in a mining session.
	span(lo int) (hi int, err error)
	// submit perturbs users [lo,hi) as worker w and ships them as one
	// request, returning how many reports the server acknowledged.
	submit(w, lo, hi int) (accepted int, err error)
	// held fetches what the server serves from the aggregate this run
	// feeds and returns how many reports that covers.
	held() (int, error)
	// score compares what held last fetched with the population's ground
	// truth, fills the tier's accuracy fields and returns the line to print.
	score(sum *summary) (string, error)
	// close releases what the run holds open on the server.
	close() error
}

// tiers is the tier table: -mode picks a row. A row fetches its tier's
// configuration from the target (which also proves the server is up),
// generates the population over exactly the server's domain, fills the
// summary's framework, dataset and users, and returns the load.
var tiers = map[string]func(*options, *summary) (load, error){
	"freq": buildFreq,
	"mean": buildMean,
	"topk": buildTopK,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: parse args, resolve the target, drive one tier,
// report on stdout. Every failure comes back as the error.
func run(args []string, stdout io.Writer) error {
	var o options
	fs := flag.NewFlagSet("mcimload", flag.ContinueOnError)
	mode := fs.String("mode", "freq", "workload: freq (frequency estimation) | mean (numeric mean tier) | topk (interactive mining session)")
	url := fs.String("url", "", "external server URL (mutually exclusive with -selfserve)")
	selfserve := fs.Bool("selfserve", false, "spin up an in-process server to drive")
	fs.StringVar(&o.framework, "framework", "ptscp", "frequency-estimation framework (selfserve mode): hec | ptj | pts | ptscp | pts+<oue|sue|olh|grr|adaptive>")
	fs.StringVar(&o.miner, "miner", "pts", "mining framework (topk mode): hec | ptj | pts")
	fs.StringVar(&o.meanFw, "mean-framework", "cpmean", "mean framework (mean mode, selfserve): hecmean | ptsmean | cpmean")
	fs.BoolVar(&o.optimized, "optimized", true, "topk mode: run the paper's full optimization set (false = baseline)")
	fs.IntVar(&o.k, "k", 8, "per-class ranking size (topk mode)")
	fs.IntVar(&o.classes, "classes", 5, "number of classes (selfserve mode)")
	fs.IntVar(&o.items, "items", 1000, "item domain size (selfserve mode)")
	fs.Float64Var(&o.eps, "eps", 2, "privacy budget ε")
	fs.Float64Var(&o.split, "split", 0.5, "label budget fraction ε₁/ε (selfserve mode)")
	fs.StringVar(&o.dataset, "dataset", "syntopk", "synthetic population: syntopk | uniform")
	fs.IntVar(&o.users, "users", 100_000, "population size (reports to submit)")
	fs.IntVar(&o.clients, "clients", 8, "concurrent client workers")
	fs.IntVar(&o.batch, "batch", 256, "reports per batch request (< 1 = 256)")
	wire := fs.String("wire", "json", "batch wire format: json | binary")
	fs.Uint64Var(&o.seed, "seed", 1, "generation and perturbation seed")
	jsonOut := fs.Bool("json", false, "emit the run summary as one JSON object on stdout")
	tenantNm := fs.String("tenant", "", "target one tenant's routes on a multi-tenant server")
	token := fs.String("token", "", "bearer token for the targeted tenant's data routes")
	logLevel := fs.String("log-level", "info", "structured log level: debug | info | warn | error")
	logFormat := fs.String("log-format", "kv", "structured log line format: kv | json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.SetupDefault(*logLevel, *logFormat); err != nil {
		return err
	}
	// The log package's progress lines now write through the structured
	// handler, at info level.
	slog.SetLogLoggerLevel(slog.LevelInfo)

	build, ok := tiers[*mode]
	switch {
	case !ok:
		return fmt.Errorf("mcimload: unknown mode %q (want freq, mean or topk)", *mode)
	case (*url == "") == !*selfserve:
		return errors.New("mcimload: exactly one of -url or -selfserve is required")
	case o.clients < 1 || o.users < 1:
		return errors.New("mcimload: need at least 1 client and 1 user")
	case *wire != "json" && *wire != "binary":
		return fmt.Errorf("mcimload: unknown wire format %q (want json or binary)", *wire)
	}
	o.binary = *wire == "binary"
	if o.batch < 1 {
		o.batch = collect.DefaultBatchSize
	}

	o.base = *url
	if *selfserve {
		base, stop, err := selfServe(&o)
		if err != nil {
			return err
		}
		defer stop()
		o.base = base
	}
	// Tenant targeting is a client-side transform: prefix the base with the
	// tenant's routes and carry its bearer token on every request.
	o.hc = collect.BearerClient(nil, *token)
	if *tenantNm != "" {
		o.base = collect.TenantBaseURL(o.base, *tenantNm)
	}

	// Human-readable result lines go to stdout — unless the run is in -json
	// mode, where stdout must stay one JSON object and they go to the log.
	human := stdout
	if *jsonOut {
		human = log.Writer()
	}
	sum := summary{Mode: *mode, Clients: o.clients, Batch: o.batch, Wire: *wire}
	ld, err := build(&o, &sum)
	if err != nil {
		return err
	}
	err = drive(ld, &o, &sum, human)
	if cerr := ld.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := json.NewEncoder(stdout).Encode(sum); err != nil {
			return err
		}
	}
	return nil
}

// selfServe starts the in-process server a -selfserve run drives — all
// three tiers over the flags' domain, whichever one -mode then feeds — and
// returns its base URL and what stops it.
func selfServe(o *options) (base string, stop func(), err error) {
	proto, err := core.NewProtocol(o.framework, o.classes, o.items, o.eps, o.split)
	if err != nil {
		return "", nil, err
	}
	np, err := core.NewNumericProtocol(o.meanFw, o.classes, o.eps, o.split)
	if err != nil {
		return "", nil, err
	}
	srv, err := collect.NewServer(proto, collect.WithMean(np), collect.WithTopKSessions(collect.TopKOptions{}))
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck — returns ErrServerClosed at stop
	base = "http://" + ln.Addr().String()
	log.Printf("in-process %s + %s server on %s (c=%d d=%d ε=%v, topk sessions on)",
		proto.Name(), np.Name(), base, o.classes, o.items, o.eps)
	return base, func() { hs.Close() }, nil
}

// drive is the one run loop every tier goes through: baseline what the
// server already holds, submit the population span by span, report
// throughput and latency, verify that the server acknowledged and now holds
// exactly this run's reports, and score accuracy — unless the server held
// reports before the run.
func drive(ld load, o *options, sum *summary, human io.Writer) error {
	baseline, err := ld.held()
	if err != nil {
		return err
	}
	var (
		lats  []time.Duration
		acked int
	)
	start := time.Now()
	for lo := 0; lo < sum.Users; {
		hi, err := ld.span(lo)
		if err != nil {
			return err
		}
		spanLats, n, err := submitSpan(ld, lo, hi, o.clients, o.batch)
		if err != nil {
			return err
		}
		lats = append(lats, spanLats...)
		acked += n
		lo = hi
	}
	elapsed := time.Since(start)

	p50, p99, maxLat := percentiles(lats)
	sum.Requests = len(lats)
	sum.ElapsedSec = elapsed.Seconds()
	sum.ReportsSec = float64(acked) / elapsed.Seconds()
	sum.P50Micros = float64(p50) / float64(time.Microsecond)
	sum.P99Micros = float64(p99) / float64(time.Microsecond)
	sum.MaxMicros = float64(maxLat) / float64(time.Microsecond)
	fmt.Fprintf(human, "drove %d clients, %d requests (batch=%d, wire=%s) in %v\n",
		o.clients, sum.Requests, o.batch, sum.Wire, elapsed.Round(time.Millisecond))
	fmt.Fprintf(human, "throughput: %.0f reports/sec\n", sum.ReportsSec)
	fmt.Fprintf(human, "request latency: p50 %v  p99 %v  max %v\n",
		p50.Round(time.Microsecond), p99.Round(time.Microsecond), maxLat.Round(time.Microsecond))

	total, err := ld.held()
	if err != nil {
		return err
	}
	if acked != sum.Users || total-baseline != sum.Users {
		return fmt.Errorf("mcimload: server acknowledged %d and ingested %d of %d reports this run",
			acked, total-baseline, sum.Users)
	}
	if baseline > 0 {
		// The served estimates cover every report the server holds; scoring
		// them against this run's truth alone reads class_size_rel_err 1.0,
		// 2.0, … on repeat runs. Leave the accuracy fields out instead.
		log.Printf("note: server held %d reports before this run; its estimates cover all %d, so accuracy against this run's truth is not scored", baseline, total)
		return nil
	}
	line, err := ld.score(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(human, line)
	return nil
}

// submitSpan cuts users [lo,hi) into one contiguous slice per worker and
// has each worker ship its slice in requests of at most batch users, timing
// every request. A worker stops at its first error; the first one reported
// wins, and every worker is waited for.
func submitSpan(ld load, lo, hi, clients, batch int) (lats []time.Duration, acked int, err error) {
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards the three results
	)
	per := (hi - lo + clients - 1) / clients
	for w := 0; w < clients && lo+w*per < hi; w++ {
		wlo := lo + w*per
		whi := min(wlo+per, hi)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := wlo; at < whi; at += batch {
				t0 := time.Now()
				n, serr := ld.submit(w, at, min(at+batch, whi))
				lat := time.Since(t0)
				mu.Lock()
				if serr == nil {
					lats = append(lats, lat)
					acked += n
				} else if err == nil {
					err = fmt.Errorf("worker %d: %w", w, serr)
				}
				mu.Unlock()
				if serr != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return lats, acked, err
}

// onePass is the shape of the two report tiers: the whole population may be
// in flight at once, and the run holds nothing open on the server.
type onePass struct{ users int }

func (p onePass) span(int) (int, error) { return p.users, nil }
func (onePass) close() error            { return nil }

// accepted unwraps a report tier's batch acknowledgement. A client perturbs
// only in-domain reports, so a rejection means client and server disagree
// on the configuration.
func accepted(ack *collect.WireBatchAck, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	if ack.Rejected > 0 {
		return 0, fmt.Errorf("server rejected %d reports: %v", ack.Rejected, ack.Errors)
	}
	return ack.Accepted, nil
}

// classSizeRelErr is the mean relative error of the estimated class sizes
// over the classes that have users.
func classSizeRelErr(est []float64, want []int) float64 {
	sum, n := 0.0, 0
	for c, w := range want {
		if w > 0 {
			sum += math.Abs(est[c]-float64(w)) / float64(w)
			n++
		}
	}
	return sum / float64(n)
}

// freqLoad is the frequency tier's row: one collect.Client per worker,
// seeded seed + w·7919, over a (class, item) population.
type freqLoad struct {
	onePass
	data    *core.Dataset
	workers []*collect.Client
	est     *collect.WireEstimates
}

func buildFreq(o *options, sum *summary) (load, error) {
	workers := make([]*collect.Client, o.clients)
	for w := range workers {
		c, err := collect.NewClient(o.base, o.hc, o.seed+uint64(w)*7919, collect.WithBinary(o.binary))
		if err != nil {
			return nil, err
		}
		workers[w] = c
	}
	cfg := workers[0].Config()
	data, err := itemPopulation(o, cfg.Classes, cfg.Items)
	if err != nil {
		return nil, err
	}
	sum.Framework, sum.Dataset, sum.Users = cfg.Protocol, data.Name, data.N()
	return &freqLoad{onePass: onePass{data.N()}, data: data, workers: workers}, nil
}

func (l *freqLoad) submit(w, lo, hi int) (int, error) {
	return accepted(l.workers[w].SubmitBatch(l.data.Pairs[lo:hi]))
}

func (l *freqLoad) held() (_ int, err error) {
	if l.est, err = l.workers[0].Estimates(); err != nil {
		return 0, err
	}
	return l.est.Reports, nil
}

// score: the served estimates are unbiased, so the RMSE is mechanism noise,
// not ingestion error — a check that speed did not cost correctness.
func (l *freqLoad) score(sum *summary) (string, error) {
	rmse := metrics.RMSE(l.est.Frequencies, l.data.TrueFrequencies())
	relErr := classSizeRelErr(l.est.ClassSizes, l.data.ClassCounts())
	sum.RMSE, sum.ClassSizeRelErr = &rmse, &relErr
	return fmt.Sprintf("accuracy: frequency RMSE %.2f over %d×%d cells, class-size mean relative error %.2f%%",
		rmse, l.data.Classes, l.data.Items, 100*relErr), nil
}

// meanLoad is the mean tier's row: one collect.MeanClient per worker over a
// gaussian (class, value) population. Every submission names its first
// user's canonical index, so HEC-Mean's partition is the same whatever the
// worker count.
type meanLoad struct {
	onePass
	data    *mean.Dataset
	workers []*collect.MeanClient
	est     *collect.WireMeanEstimates
}

func buildMean(o *options, sum *summary) (load, error) {
	workers := make([]*collect.MeanClient, o.clients)
	for w := range workers {
		c, err := collect.NewMeanClient(o.base, o.hc, o.seed+uint64(w)*7919, collect.WithBinary(o.binary))
		if err != nil {
			return nil, err
		}
		workers[w] = c
	}
	cfg := workers[0].Config()
	data := buildMeanDataset(cfg.Classes, o.users, o.seed)
	log.Printf("population %s: %d users over %d classes, values in [-1,1]", data.Name, data.N(), data.Classes)
	sum.Framework, sum.Dataset, sum.Users = cfg.Protocol, data.Name, data.N()
	return &meanLoad{onePass: onePass{data.N()}, data: data, workers: workers}, nil
}

func (l *meanLoad) submit(w, lo, hi int) (int, error) {
	return accepted(l.workers[w].SubmitBatch(lo, l.data.Values[lo:hi]))
}

func (l *meanLoad) held() (_ int, err error) {
	if l.est, err = l.workers[0].Estimates(); err != nil {
		return 0, err
	}
	return l.est.Reports, nil
}

func (l *meanLoad) score(sum *summary) (string, error) {
	truth, sizes := l.data.TrueMeans()
	maeSum := 0.0
	for c := range truth {
		maeSum += math.Abs(l.est.Means[c] - truth[c])
	}
	mae := maeSum / float64(l.data.Classes)
	relErr := classSizeRelErr(l.est.ClassSizes, sizes)
	sum.MeanMAE, sum.ClassSizeRelErr = &mae, &relErr
	return fmt.Sprintf("accuracy: per-class mean MAE %.4f, class-size mean relative error %.2f%% over %d classes",
		mae, 100*relErr, l.data.Classes), nil
}

// topkLoad is the mining tier's row: one session over the frequency tier's
// (class, item) population, a span per round. User u perturbs with
// topk.UserRand(session seed, u) whichever worker encodes it. With -wire
// binary each request is one CRC-sealed 'T' session frame.
type topkLoad struct {
	data   *core.Dataset
	ts     *collect.TopKSession
	seed   uint64 // the session's
	k      int
	binary bool

	// The live round, set by span and read by the workers it then starts.
	sealed int // users in the rounds before it
	cfg    *topk.RoundConfig
	enc    *topk.RoundEncoder
}

func buildTopK(o *options, sum *summary) (load, error) {
	_, cfg, err := collect.FetchProtocol(o.base, o.hc)
	if err != nil {
		return nil, err
	}
	data, err := itemPopulation(o, cfg.Classes, cfg.Items)
	if err != nil {
		return nil, err
	}
	opt := topk.Baseline()
	if o.optimized {
		opt = topk.Optimized()
	}
	seed := xrand.New(o.seed + 2).Uint64()
	ts, err := collect.NewTopKSession(o.base, o.hc, topk.SessionParams{
		Framework: o.miner,
		Classes:   data.Classes,
		Items:     data.Items,
		K:         o.k,
		Eps:       o.eps,
		Users:     data.N(),
		Seed:      seed,
		Opt:       opt,
	})
	if err != nil {
		return nil, err
	}
	l := &topkLoad{data: data, ts: ts, seed: seed, k: o.k, binary: o.binary}
	info := ts.Info()
	if o.binary && !slices.Contains(info.Wire, "binary") {
		l.close() //nolint:errcheck — the refusal below is the error to report
		return nil, fmt.Errorf("mcimload: -wire binary requested but session %s advertises only %v", info.ID, info.Wire)
	}
	log.Printf("session %s: %s over %d×%d, k=%d, %d rounds, %d users",
		info.ID, info.Params.Framework, data.Classes, data.Items, o.k, info.Rounds, data.N())
	sum.Framework, sum.Dataset, sum.Users = o.miner, data.Name, data.N()
	sum.K, sum.Rounds = o.k, info.Rounds
	return l, nil
}

// span fetches the live round's broadcast; the server seals the round when
// the last of its quota lands, so the next call sees the next round.
func (l *topkLoad) span(lo int) (int, error) {
	rd, err := l.ts.Round()
	if err != nil {
		return 0, err
	}
	if rd.Done || rd.Config.Quota <= rd.Received {
		return 0, fmt.Errorf("mcimload: session %s takes no more reports after %d of %d users", l.ts.ID(), lo, l.data.N())
	}
	if l.enc, err = topk.NewRoundEncoder(rd.Config); err != nil {
		return 0, err
	}
	l.sealed, l.cfg = lo, rd.Config
	return min(lo+rd.Config.Quota-rd.Received, l.data.N()), nil
}

func (l *topkLoad) submit(_, lo, hi int) (int, error) {
	reps := make([]topk.RoundReport, hi-lo)
	for i := range reps {
		var err error
		if reps[i], err = l.enc.Encode(l.data.Pairs[lo+i], topk.UserRand(l.seed, lo+i)); err != nil {
			return 0, err
		}
	}
	var (
		ack *collect.WireTopKAck
		err error
	)
	if l.binary {
		ack, err = l.ts.PostReportsBinary(l.cfg, reps)
	} else {
		ack, err = l.ts.PostReports(reps)
	}
	if err != nil {
		return 0, err
	}
	if ack.Rejected > 0 {
		return 0, fmt.Errorf("round %d rejected %d reports: %v", l.cfg.Round, ack.Rejected, ack.Errors)
	}
	return ack.Accepted, nil
}

// held: a session is its own aggregate — empty when created, and Done only
// once every round sealed on its quota, which is the whole population.
// Mid-protocol it holds the users before the live round plus that round's.
func (l *topkLoad) held() (int, error) {
	rd, err := l.ts.Round()
	if err != nil {
		return 0, err
	}
	if rd.Done {
		return l.data.N(), nil
	}
	return l.sealed + rd.Received, nil
}

// score fetches the mined rankings (refused while the session is
// mid-protocol) and compares them with the exact per-class top-k.
func (l *topkLoad) score(sum *summary) (string, error) {
	res, err := l.ts.Result()
	if err != nil {
		return "", err
	}
	truth := l.data.TrueFrequencies()
	ncr, f1 := 0.0, 0.0
	for c := 0; c < l.data.Classes; c++ {
		want := metrics.TopK(truth[c], l.k)
		ncr += metrics.NCR(res.PerClass[c], want)
		f1 += metrics.F1(res.PerClass[c], want)
	}
	ncr /= float64(l.data.Classes)
	f1 /= float64(l.data.Classes)
	sum.NCR, sum.F1 = &ncr, &f1
	return fmt.Sprintf("quality: mean NCR %.3f, mean F1 %.3f over %d classes (k=%d, %d rounds)",
		ncr, f1, l.data.Classes, l.k, sum.Rounds), nil
}

// close deletes the session, freeing its slot under the server's session
// cap: without it the 65th run against one server is answered 429.
func (l *topkLoad) close() error { return l.ts.Delete() }

// itemPopulation generates the shuffled (class, item) population of the
// frequency and mining tiers.
func itemPopulation(o *options, classes, items int) (*core.Dataset, error) {
	data, err := buildDataset(o.dataset, classes, items, o.users, o.seed)
	if err != nil {
		return nil, err
	}
	data = data.Shuffled(xrand.New(o.seed + 1))
	log.Printf("population %s: %d users over %d classes × %d items", data.Name, data.N(), data.Classes, data.Items)
	return data, nil
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

// percentiles returns p50, p99 and max of the observed latencies.
func percentiles(lats []time.Duration) (p50, p99, max time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	slices.Sort(lats)
	at := func(q float64) time.Duration { return lats[int(q*float64(len(lats)-1))] }
	return at(0.50), at(0.99), lats[len(lats)-1]
}
