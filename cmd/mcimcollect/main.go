// Command mcimcollect runs the HTTP collection server: an aggregation
// server for any of the frequency-estimation frameworks (hec, ptj, pts,
// ptscp), picked with -framework. It advertises the framework in /config and
// clients reconstruct the matching encoder from it (mcimload -url drives one):
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
package main

import (
	"context"
	"crypto/subtle"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
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
)

// config is the parsed command line.
type config struct {
	serve                   bool
	addr, framework, mean   string
	classes, items          int
	eps, split              float64
	maxBody                 int64
	walDir, walSync         string
	walEvery                time.Duration
	walSeg, walCompactAfter int64
	topk                    bool
	topkMax, maxTenants     int
	tenants, adminToken     string
	drain                   time.Duration
	logLevel, logFormat     string
}

// parseFlags defines the command's flags on fs and parses args into a config.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	var c config
	fs.BoolVar(&c.serve, "serve", false, "run the aggregation server")
	fs.StringVar(&c.addr, "addr", ":8090", "server listen address")
	fs.StringVar(&c.framework, "framework", "ptscp", "frequency-estimation framework: hec | ptj | pts | ptscp | pts+<oue|sue|olh|grr|adaptive> | none (serve another tier alone)")
	fs.StringVar(&c.mean, "mean", "", "also serve the numeric mean tier under /mean: hecmean | ptsmean | cpmean (empty = off)")
	fs.IntVar(&c.classes, "classes", 5, "number of classes")
	fs.IntVar(&c.items, "items", 1000, "item domain size")
	fs.Float64Var(&c.eps, "eps", 2, "privacy budget ε")
	fs.Float64Var(&c.split, "split", 0.5, "label budget fraction ε₁/ε (pts, ptscp)")
	fs.Int64Var(&c.maxBody, "maxbody", 0, "request body cap in bytes (0 = default 8 MiB)")
	fs.StringVar(&c.walDir, "wal-dir", "", "write-ahead log directory (empty = not durable)")
	fs.StringVar(&c.walSync, "wal-sync", "interval", "WAL fsync policy: always | interval | never")
	fs.DurationVar(&c.walEvery, "wal-sync-every", 0, "flush cadence under -wal-sync interval (0 = default 200ms)")
	fs.Int64Var(&c.walSeg, "wal-segment-bytes", 0, "WAL segment roll size (0 = default 4 MiB)")
	fs.Int64Var(&c.walCompactAfter, "wal-compact-after", 0, "WAL bytes past the last snapshot before background compaction (0 = default 64 MiB)")
	fs.BoolVar(&c.topk, "topk", false, "serve interactive top-k mining sessions under /topk/sessions")
	fs.IntVar(&c.topkMax, "topk-max-sessions", 0, "cap on tracked mining sessions (0 = default 64)")
	fs.StringVar(&c.tenants, "tenants", "", "JSON file with an array of tenant specs: serve a multi-tenant registry instead of one collection")
	fs.StringVar(&c.adminToken, "admin-token", "", "bearer token guarding /admin/tenants and /debug/pprof (empty = open)")
	fs.IntVar(&c.maxTenants, "max-tenants", 0, "cap on hosted tenants (tenants mode; 0 = default 1024)")
	fs.DurationVar(&c.drain, "drain", 5*time.Second, "graceful shutdown drain timeout")
	fs.StringVar(&c.logLevel, "log-level", "info", "structured log level: debug | info | warn | error")
	fs.StringVar(&c.logFormat, "log-format", "kv", "structured log line format: kv | json")
	return &c, fs.Parse(args)
}

// walOptions maps the -wal-* tuning flags onto the log's options.
func (c *config) walOptions() (wal.Options, error) {
	policy, err := wal.ParseSyncPolicy(c.walSync)
	return wal.Options{SegmentBytes: c.walSeg, Sync: policy, SyncEvery: c.walEvery}, err
}

// newServer maps the flags of a plain (single-collection) -serve onto the
// protocol and options of a collect.Server and builds it.
func (c *config) newServer() (*collect.Server, error) {
	var proto *core.Protocol
	if c.framework != "" && c.framework != "none" {
		var err error
		if proto, err = core.NewProtocol(c.framework, c.classes, c.items, c.eps, c.split); err != nil {
			return nil, err
		}
	}
	opts := []collect.ServerOption{collect.WithMaxBodyBytes(c.maxBody)}
	if c.mean != "" {
		np, err := core.NewNumericProtocol(c.mean, c.classes, c.eps, c.split)
		if err != nil {
			return nil, err
		}
		opts = append(opts, collect.WithMean(np))
	}
	if c.topk {
		opts = append(opts, collect.WithTopKSessions(collect.TopKOptions{MaxSessions: c.topkMax}))
	}
	if c.walDir != "" {
		walOpts, err := c.walOptions()
		if err != nil {
			return nil, err
		}
		opts = append(opts, collect.WithWAL(c.walDir), collect.WithWALOptions(walOpts), collect.WithCompactAfter(c.walCompactAfter))
	}
	return collect.NewServer(proto, opts...)
}

func main() {
	c, _ := parseFlags(flag.CommandLine, os.Args[1:]) // ExitOnError: a bad flag exits in Parse
	if !c.serve {
		flag.Usage()
		return
	}
	if err := obs.SetupDefault(c.logLevel, c.logFormat); err != nil {
		log.Fatal(err)
	}
	// The log package (log.Fatal below) now writes through the structured
	// handler; its lines are errors.
	slog.SetLogLoggerLevel(slog.LevelError)
	logger := slog.Default()

	if c.tenants != "" {
		walOpts, err := c.walOptions()
		if err != nil {
			log.Fatal(err)
		}
		specData, err := os.ReadFile(c.tenants)
		if err != nil {
			log.Fatal(err)
		}
		specs, err := tenant.ParseSpecs(specData)
		if err != nil {
			log.Fatal(err)
		}
		reg, err := tenant.New(tenant.Options{
			Dir:        c.walDir,
			WAL:        walOpts,
			MaxTenants: c.maxTenants,
			AdminToken: c.adminToken,
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
		logger.Info("serving tenants", "count", len(reg.Names()), "addr", c.addr, "names", fmt.Sprint(reg.Names()),
			"wal_dir", c.walDir, "wal_sync", c.walSync)
		runServer(c.addr, reg.Handler(), c.drain, reg.Close, func() {
			for _, name := range reg.Names() {
				if srv := reg.Tenant(name); srv != nil {
					logger.Info("tenant final total", "tenant", name, "reports", srv.Reports()+srv.MeanReports())
				}
			}
		})
		return
	}

	srv, err := c.newServer()
	if err != nil {
		log.Fatal(err)
	}
	if c.walDir != "" {
		logger.Info("write-ahead log open", "dir", c.walDir, "sync", c.walSync,
			"recovered_reports", srv.Reports()+srv.MeanReports())
	}
	if np := srv.MeanProtocol(); np != nil {
		logger.Info("numeric mean tier enabled", "path", "/mean",
			"protocol", np.Name(), "classes", np.Classes(), "eps", np.Epsilon())
	}
	if c.topk {
		logger.Info("top-k mining sessions enabled", "path", "/topk/sessions")
	}
	if p := srv.Protocol(); p != nil {
		logger.Info("collecting", "addr", c.addr, "protocol", p.Name(),
			"classes", p.Classes(), "items", p.Items(), "eps", p.Epsilon())
	} else {
		logger.Info("collecting", "addr", c.addr, "freq_tier", false)
	}
	runServer(c.addr, withPprof(srv.Handler(), c.adminToken), c.drain, srv.Close, func() {
		logger.Info("final total", "reports", srv.Reports()+srv.MeanReports(),
			"freq", srv.Reports(), "mean", srv.MeanReports())
	})
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
	slog.Info("shutting down", "drain", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		slog.Error("shutdown", "err", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		slog.Error("serve", "err", err)
	}
	if err := closer(); err != nil {
		slog.Error("close durable state", "err", err)
	}
	final()
}
