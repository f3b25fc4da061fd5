// Command mcimcollect runs the HTTP collection pipeline: an aggregation
// server for any of the frequency-estimation frameworks (hec, ptj, pts,
// ptscp), and a client mode that simulates a user population submitting to
// it. The server advertises its framework in /config; clients reconstruct
// the matching encoder from it, so the simulate mode needs no framework
// flag of its own.
//
// Server (pick the framework with -framework):
//
//	mcimcollect -serve -addr :8090 -framework ptscp -classes 5 -items 1000 -eps 2
//
// With -wal-dir the server is durable: accepted reports hit a write-ahead
// log before any aggregator, and a restart on the same directory recovers
// bit-identical estimates even after a SIGKILL. -wal-sync picks the fsync
// policy (always | interval | never) and -wal-compact-after how much log
// may accumulate before it is folded into a snapshot:
//
//	mcimcollect -serve -wal-dir /var/lib/mcim/wal -wal-sync interval
//
// With -mean the server additionally hosts the numeric mean tier under
// /mean: clients perturb (label, value) pairs locally and the server
// calibrates classwise means and class sizes. The tier shares the server's
// classes, ε and split, is durable under -wal-dir (its log lives in
// <dir>/mean) and federates through the same POST /merge. Pass
// -framework none to serve the mean tier alone:
//
//	mcimcollect -serve -framework none -mean cpmean -classes 3 -eps 2
//
// With -topk the server additionally hosts interactive top-k mining
// sessions under /topk/sessions: clients create a session, fetch each
// round's candidate-space broadcast, perturb locally and post one-round
// reports; rounds seal on quota and the final round serves the per-class
// rankings (drive one with mcimload -mode topk). On a WAL-backed server,
// in-flight sessions are durable too.
//
// With -tenants the server is multi-tenant: the flag names a JSON file
// holding an array of tenant specs (see internal/tenant.Spec), each a named
// collection instance with its own tiers, WAL subdirectory, bearer token,
// body cap, and rate limit. Data routes live under /t/<name>/...; the
// unprefixed routes alias a tenant named "default" when the file defines
// one. Tenants can also be created and deleted at runtime through
// POST/DELETE /admin/tenants/{name}, guarded by -admin-token; the registry
// write-ahead logs the tenant set under <wal-dir>/registry, so a restart —
// even after SIGKILL — resurrects every tenant and its state:
//
//	mcimcollect -serve -tenants tenants.json -admin-token s3cret -wal-dir /var/lib/mcim
//
// In -tenants mode the per-framework flags are ignored; each tenant's spec
// is the whole configuration.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests and logging the final ingested-report count.
//
// Simulated clients (each user perturbs locally; raw pairs never leave the
// process):
//
//	mcimcollect -simulate -url http://localhost:8090 -users 10000 -seed 7
package main

import (
	"context"
	"crypto/subtle"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tenant"
	"repro/internal/wal"
	"repro/internal/xrand"
)

func main() {
	var (
		serve     = flag.Bool("serve", false, "run the aggregation server")
		simulate  = flag.Bool("simulate", false, "run a simulated client population")
		addr      = flag.String("addr", ":8090", "server listen address")
		url       = flag.String("url", "http://localhost:8090", "server URL (simulate mode)")
		framework = flag.String("framework", "ptscp", "frequency-estimation framework (serve mode): hec | ptj | pts | ptscp | pts+<oue|sue|olh|grr|adaptive> | none (serve another tier alone)")
		meanOn    = flag.String("mean", "", "also serve the numeric mean tier under /mean: hecmean | ptsmean | cpmean (serve mode; empty = off)")
		classes   = flag.Int("classes", 5, "number of classes")
		items     = flag.Int("items", 1000, "item domain size")
		eps       = flag.Float64("eps", 2, "privacy budget ε")
		split     = flag.Float64("split", 0.5, "label budget fraction ε₁/ε (pts, ptscp)")
		maxBody   = flag.Int64("maxbody", 0, "request body cap in bytes (serve mode; 0 = default 8 MiB)")
		walDir    = flag.String("wal-dir", "", "write-ahead log directory (serve mode; empty = not durable)")
		walSync   = flag.String("wal-sync", "interval", "WAL fsync policy: always | interval | never")
		walEvery  = flag.Duration("wal-sync-every", 0, "flush cadence under -wal-sync interval (0 = default 200ms)")
		walSeg    = flag.Int64("wal-segment-bytes", 0, "WAL segment roll size (0 = default 4 MiB)")
		walCAfter = flag.Int64("wal-compact-after", 0, "WAL bytes past the last snapshot before background compaction (0 = default 64 MiB)")
		topkOn    = flag.Bool("topk", false, "serve interactive top-k mining sessions under /topk/sessions (serve mode)")
		topkMax   = flag.Int("topk-max-sessions", 0, "cap on tracked mining sessions (serve mode; 0 = default 64)")
		tenants   = flag.String("tenants", "", "JSON file with an array of tenant specs: serve a multi-tenant registry instead of one collection (serve mode)")
		adminTok  = flag.String("admin-token", "", "bearer token guarding /admin/tenants and /debug/pprof (serve modes; empty = open)")
		maxTen    = flag.Int("max-tenants", 0, "cap on hosted tenants (tenants mode; 0 = default 1024)")
		users     = flag.Int("users", 10000, "simulated users (simulate mode)")
		batch     = flag.Int("batch", 256, "reports per batch request (simulate mode; 0 = one request per report)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		drain     = flag.Duration("drain", 5*time.Second, "graceful shutdown drain timeout (serve mode)")
		logLevel  = flag.String("log-level", "info", "structured log level: debug | info | warn | error")
		logFormat = flag.String("log-format", "kv", "structured log line format: kv | json")
	)
	flag.Parse()
	if err := obs.SetupDefault(*logLevel, *logFormat); err != nil {
		log.Fatal(err)
	}
	// Route the stdlib log package (log.Fatal below) through the structured
	// logger so every line this process emits has the same shape.
	log.SetFlags(0)
	log.SetOutput(obs.StdlogWriter(obs.LevelError))
	logger := obs.Default()

	switch {
	case *serve && *tenants != "":
		walOpts := wal.Options{SegmentBytes: *walSeg, SyncEvery: *walEvery}
		if *walDir != "" {
			policy, err := wal.ParseSyncPolicy(*walSync)
			if err != nil {
				log.Fatal(err)
			}
			walOpts.Sync = policy
		}
		specData, err := os.ReadFile(*tenants)
		if err != nil {
			log.Fatal(err)
		}
		specs, err := tenant.ParseSpecs(specData)
		if err != nil {
			log.Fatal(err)
		}
		reg, err := tenant.New(tenant.Options{
			Dir:        *walDir,
			WAL:        walOpts,
			MaxTenants: *maxTen,
			AdminToken: *adminTok,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Ensure, not Create: a restart replays the registry log first, so
		// tenants from a previous run (with their accumulated state) win
		// over the startup file.
		for _, sp := range specs {
			if err := reg.Ensure(sp); err != nil {
				log.Fatal(err)
			}
		}
		if *walDir != "" {
			logger.Info("tenant registry durable", "dir", *walDir, "sync", *walSync)
		}
		logger.Info("serving tenants", "count", len(reg.Names()), "addr", *addr, "names", fmt.Sprint(reg.Names()))
		runServer(*addr, reg.Handler(), *drain, reg.Close, func() {
			for _, name := range reg.Names() {
				if srv := reg.Tenant(name); srv != nil {
					logger.Info("tenant final total", "tenant", name, "reports", srv.Reports()+srv.MeanReports())
				}
			}
		})

	case *serve:
		var proto *core.Protocol
		if *framework != "" && *framework != "none" {
			var err error
			proto, err = core.NewProtocol(*framework, *classes, *items, *eps, *split)
			if err != nil {
				log.Fatal(err)
			}
		}
		opts := []collect.ServerOption{collect.WithMaxBodyBytes(*maxBody)}
		if *meanOn != "" {
			np, err := core.NewNumericProtocol(*meanOn, *classes, *eps, *split)
			if err != nil {
				log.Fatal(err)
			}
			opts = append(opts, collect.WithMean(np))
		}
		if *topkOn {
			opts = append(opts, collect.WithTopKSessions(collect.TopKOptions{MaxSessions: *topkMax}))
		}
		if *walDir != "" {
			policy, err := wal.ParseSyncPolicy(*walSync)
			if err != nil {
				log.Fatal(err)
			}
			opts = append(opts,
				collect.WithWAL(*walDir),
				collect.WithWALOptions(wal.Options{
					SegmentBytes: *walSeg,
					Sync:         policy,
					SyncEvery:    *walEvery,
				}),
				collect.WithCompactAfter(*walCAfter))
		}
		srv, err := collect.NewServer(proto, opts...)
		if err != nil {
			log.Fatal(err)
		}
		if *walDir != "" {
			logger.Info("write-ahead log open", "dir", *walDir, "sync", *walSync,
				"recovered_reports", srv.Reports()+srv.MeanReports())
		}
		if *meanOn != "" {
			np := srv.MeanProtocol()
			logger.Info("numeric mean tier enabled", "path", "/mean",
				"protocol", np.Name(), "classes", np.Classes(), "eps", np.Epsilon())
		}
		if *topkOn {
			logger.Info("top-k mining sessions enabled", "path", "/topk/sessions")
		}
		if p := srv.Protocol(); p != nil {
			logger.Info("collecting", "addr", *addr, "protocol", p.Name(),
				"classes", p.Classes(), "items", p.Items(), "eps", p.Epsilon())
		} else {
			logger.Info("collecting", "addr", *addr, "freq_tier", false)
		}
		runServer(*addr, withPprof(srv.Handler(), *adminTok), *drain, srv.Close, func() {
			logger.Info("final total", "reports", srv.Reports()+srv.MeanReports(),
				"freq", srv.Reports(), "mean", srv.MeanReports())
		})

	case *simulate:
		client, err := collect.NewClient(*url, nil, *seed, collect.WithBatchSize(*batch))
		if err != nil {
			log.Fatal(err)
		}
		// The population domain (and the framework encoder) comes from the
		// server's config, not the local flags: submitting pairs outside the
		// round's domain is a client bug.
		cfg := client.Config()
		logger.Info("server config", "protocol", cfg.Protocol,
			"classes", cfg.Classes, "items", cfg.Items, "eps", cfg.Epsilon)
		r := xrand.New(*seed)
		start := time.Now()
		for i := 0; i < *users; i++ {
			// A skewed synthetic population: class sizes decay, items
			// Zipf-ish within class.
			pair := core.Pair{Class: r.Intn(cfg.Classes), Item: r.Intn(1 + r.Intn(cfg.Items))}
			if *batch > 0 {
				err = client.Buffer(pair)
			} else {
				err = client.Submit(pair)
			}
			if err != nil {
				log.Fatalf("user %d: %v", i, err)
			}
		}
		if err := client.Flush(); err != nil {
			log.Fatal(err)
		}
		est, err := client.Estimates()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("submitted %d reports in %v\n", *users, time.Since(start).Round(time.Millisecond))
		fmt.Printf("server total: %d reports\n", est.Reports)
		for c, sz := range est.ClassSizes {
			fmt.Printf("class %d estimated size: %.0f\n", c, sz)
		}

	default:
		flag.Usage()
	}
}

// withPprof wraps a plain collect handler with the net/http/pprof routes,
// guarded by the admin bearer token (open when the token is empty — the
// same development-mode rule as the tenant admin routes). The multi-tenant
// registry mounts its own guarded pprof, so this is only for plain serve.
func withPprof(h http.Handler, token string) http.Handler {
	guard := func(hf http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			if token != "" {
				auth := req.Header.Get("Authorization")
				const prefix = "Bearer "
				if len(auth) < len(prefix) || auth[:len(prefix)] != prefix ||
					subtle.ConstantTimeCompare([]byte(auth[len(prefix):]), []byte(token)) != 1 {
					w.Header().Set("WWW-Authenticate", `Bearer realm="pprof"`)
					http.Error(w, "missing or invalid admin token", http.StatusUnauthorized)
					return
				}
			}
			hf(w, req)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/pprof/", guard(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", guard(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", guard(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", guard(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", guard(pprof.Trace))
	mux.Handle("/", h)
	return mux
}

// runServer serves handler until SIGINT/SIGTERM, then drains in-flight
// requests, closes the durable state via closer, and runs final to log the
// run's totals.
func runServer(addr string, handler http.Handler, drain time.Duration, closer func() error, final func()) {
	hs := collect.NewHTTPServer(addr, handler)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	select {
	case err := <-errc:
		// Listener failure before any signal.
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	obs.Default().Info("shutting down", "drain", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		obs.Default().Error("shutdown", "err", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		obs.Default().Error("serve", "err", err)
	}
	if err := closer(); err != nil {
		obs.Default().Error("close durable state", "err", err)
	}
	final()
}
