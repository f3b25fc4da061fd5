// Command mcimedge is the edge tier of a federated collection deployment:
// it runs a full collection server close to the clients (same endpoints as
// mcimcollect -serve, so clients cannot tell the difference) and
// periodically drains its locally merged aggregate into a fingerprinted
// state envelope pushed to the upstream root's POST /merge. Because
// aggregates are integer counts, edge→root aggregation is bit-identical to
// every client reporting to the root directly — what changes is the
// traffic shape: the root sees one envelope per edge per push interval
// instead of millions of per-client requests.
//
// The edge learns its protocols from the upstream /config AND /mean/config
// — when the root also serves the numeric mean tier, the edge mounts it,
// accepts /mean reports locally and pushes mean envelopes through the same
// /merge endpoint (envelopes route by fingerprint) — so a fleet of edges
// is configured by pointing them at the root:
//
//	mcimedge -addr :8091 -upstream http://root:8090 -push-every 10s
//
// With -wal-dir the edge is durable too: reports accepted but not yet
// pushed survive a crash and are pushed after restart. A failed push is
// not lost — the drained envelope is merged back locally and retried on
// the next interval. Edges also expose /merge themselves, so edges can be
// stacked into deeper trees (client → edge → regional edge → root).
//
// With -tenant the edge serves one tenant of a multi-tenant root
// (mcimcollect -tenants): it learns its protocols from, and pushes its
// envelopes to, the root's /t/<name>/... routes, carrying the tenant's
// bearer token from -token. Run one edge per tenant:
//
//	mcimedge -addr :8091 -upstream http://root:8090 -tenant acme -token s3cret
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8091", "edge listen address")
		upstream   = flag.String("upstream", "http://localhost:8090", "root (or next-tier) server URL")
		tenantName = flag.String("tenant", "", "tenant on a multi-tenant upstream to serve and push to (empty = upstream's unprefixed routes)")
		token      = flag.String("token", "", "bearer token for the upstream tenant's data routes")
		pushEvery  = flag.Duration("push-every", 10*time.Second, "how often to push the merged aggregate upstream")
		maxBody    = flag.Int64("maxbody", 0, "request body cap in bytes (0 = default 8 MiB)")
		walDir     = flag.String("wal-dir", "", "write-ahead log directory (empty = not durable)")
		walSync    = flag.String("wal-sync", "interval", "WAL fsync policy: always | interval | never")
		drain      = flag.Duration("drain", 5*time.Second, "graceful shutdown drain timeout")
		logLevel   = flag.String("log-level", "info", "structured log level: debug | info | warn | error")
		logFormat  = flag.String("log-format", "kv", "structured log line format: kv | json")
	)
	flag.Parse()
	if err := obs.SetupDefault(*logLevel, *logFormat); err != nil {
		log.Fatal(err)
	}
	// The log package (log.Fatal below) now writes through the structured
	// handler; its lines are errors.
	slog.SetLogLoggerLevel(slog.LevelError)
	logger := slog.Default()

	// Tenant targeting is a pure client-side transform: prefix the upstream
	// base with the tenant's routes and carry its bearer token on every
	// request — the fetch, every push, nothing else changes.
	upstreamBase := *upstream
	if *tenantName != "" {
		upstreamBase = collect.TenantBaseURL(upstreamBase, *tenantName)
	}
	hc := collect.BearerClient(nil, *token)

	proto, meanProto, err := fetchProtocols(upstreamBase, hc)
	if err != nil {
		log.Fatalf("fetch upstream config: %v", err)
	}
	opts := []collect.ServerOption{collect.WithMaxBodyBytes(*maxBody)}
	if meanProto != nil {
		opts = append(opts, collect.WithMean(meanProto))
	}
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, collect.WithWAL(*walDir), collect.WithWALOptions(wal.Options{Sync: policy}))
	}
	srv, err := collect.NewServer(proto, opts...)
	if err != nil {
		log.Fatal(err)
	}
	if *walDir != "" && srv.Reports()+srv.MeanReports() > 0 {
		logger.Info("recovered unpushed reports", "dir", *walDir,
			"reports", srv.Reports()+srv.MeanReports(), "freq", srv.Reports(), "mean", srv.MeanReports())
	}

	hs := collect.NewHTTPServer(*addr, srv.Handler())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	tiers := ""
	if proto != nil {
		tiers = proto.Name()
	}
	if meanProto != nil {
		if tiers != "" {
			tiers += "+"
		}
		tiers += "mean(" + meanProto.Name() + ")"
	}
	logger.Info("edge collecting", "addr", *addr, "tiers", tiers,
		"upstream", upstreamBase, "push_every", *pushEvery)

	pusher := &pusher{srv: srv, upstream: upstreamBase, hc: hc, metrics: collect.NewEdgeMetrics(srv.Metrics())}
	ticker := time.NewTicker(*pushEvery)
	defer ticker.Stop()

loop:
	for {
		select {
		case err := <-errc:
			log.Fatal(err)
		case <-ticker.C:
			pusher.push()
		case <-ctx.Done():
			break loop
		}
	}
	stop()
	logger.Info("shutting down", "drain", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		logger.Error("shutdown", "err", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve", "err", err)
	}
	// Final push so a clean shutdown leaves nothing behind on the edge.
	pusher.push()
	if err := srv.Close(); err != nil {
		logger.Error("close wal", "err", err)
	}
	if pusher.unpushed > 0 {
		logger.Warn("exiting with unpushed reports still local",
			"reports", pusher.unpushed, "recoverable", *walDir != "", "wal_dir", *walDir)
	} else {
		logger.Info("exiting clean: all reports pushed upstream")
	}
}

// fetchProtocols resolves the upstream's tiers through the shared
// collect.FetchProtocol / collect.FetchMeanProtocol rules, retrying
// briefly so an edge can come up before (or while) the root restarts. The
// edge mirrors exactly the subset of tiers the root serves: a tier is
// treated as absent only on a definitive 404 (collect.ErrTierNotServed) —
// a transient failure (timeout, 5xx) is retried rather than silently
// disabling the tier for the edge's whole lifetime. At least one tier
// must resolve.
func fetchProtocols(upstream string, hc *http.Client) (*core.Protocol, *core.NumericProtocol, error) {
	var lastErr error
	for attempt, delay := 0, time.Second; attempt < 5; attempt, delay = attempt+1, delay*2 {
		if attempt > 0 {
			time.Sleep(delay)
		}
		proto, _, ferr := collect.FetchProtocol(upstream, hc)
		meanProto, _, merr := collect.FetchMeanProtocol(upstream, hc)
		freqAbsent := errors.Is(ferr, collect.ErrTierNotServed)
		meanAbsent := errors.Is(merr, collect.ErrTierNotServed)
		if freqAbsent && meanAbsent {
			return nil, nil, fmt.Errorf("upstream %s serves neither the frequency nor the mean tier", upstream)
		}
		if (ferr == nil || freqAbsent) && (merr == nil || meanAbsent) {
			if freqAbsent {
				proto = nil
			}
			if meanAbsent {
				meanProto = nil
			}
			return proto, meanProto, nil
		}
		lastErr = errors.Join(ferr, merr)
	}
	return nil, nil, lastErr
}

// pusher drains the edge's tiers — the frequency tier and, when mounted,
// the mean tier — and ships each drained envelope upstream, merging an
// envelope back on a retriable failure so the reports ride the next push
// instead of being lost.
type pusher struct {
	srv      *collect.Server
	upstream string
	hc       *http.Client
	metrics  *collect.EdgeMetrics
	unpushed int
}

func (p *pusher) push() {
	// Whatever happens below, the "unpushed" gauge must reflect what is
	// actually still held locally, across both tiers.
	defer func() {
		p.unpushed = p.srv.Reports() + p.srv.MeanReports()
		p.metrics.Unpushed.Set(float64(p.unpushed))
	}()
	if p.srv.Protocol() != nil {
		p.ship("freq", p.srv.Drain)
	}
	if p.srv.MeanProtocol() != nil {
		p.ship("mean", p.srv.DrainMean)
	}
}

// ship drains one tier, POSTs its envelope to the upstream /merge and
// handles the verdict; an empty tier ships nothing, and tier distinguishes
// the tiers in logs.
func (p *pusher) ship(tier string, drain func() ([]byte, int, error)) {
	env, n, err := drain()
	if err != nil {
		// Drain is atomic: the reports stayed local (in memory and in the
		// WAL), so the next tick simply retries the whole drain.
		slog.Error("push: drain failed, reports held locally", "tier", tier, "err", err)
		return
	}
	if n == 0 {
		return
	}
	p.metrics.DrainReports.Observe(float64(n))
	logger := slog.With("tier", tier, "reports", n)
	verdict, err := postMerge(p.upstream, p.hc, env)
	switch verdict {
	case pushOK:
		p.metrics.PushOK.Inc()
		logger.Info("pushed reports upstream")
	case pushRetriable:
		p.metrics.PushRetriable.Inc()
		// The upstream definitively did not ingest the envelope and the
		// condition is transient (5xx, or the connection never came up):
		// fold it back in and retry next tick together with whatever
		// arrived meanwhile. MergeState routes the envelope to its tier by
		// fingerprint.
		if _, merr := p.srv.MergeState(env); merr != nil {
			logger.Error("push: upstream unavailable AND local re-merge failed, reports dropped",
				"err", err, "merge_err", merr)
			return
		}
		logger.Warn("push: upstream unavailable, reports held for retry", "err", err)
	case pushPermanent:
		p.metrics.PushPermanent.Inc()
		// The upstream refused the envelope for a reason a retry cannot
		// fix (fingerprint mismatch after a root reconfiguration, an
		// envelope over the upstream's size cap): retrying the identical
		// push forever would only grow the local backlog without bound.
		// Drop it and say so loudly — this is an operator problem.
		logger.Error("push: upstream permanently refused, reports dropped — check that the upstream configuration matches", "err", err)
	default: // pushAmbiguous
		p.metrics.PushAmbiguous.Inc()
		// The request may have been delivered and the response lost, so
		// the upstream may already have ingested the envelope. Re-pushing
		// could double-count every report in it, which would silently skew
		// estimates; dropping loses at most this push's noise-level
		// contribution. Same at-most-once call collect.Client makes for
		// in-flight batches.
		logger.Error("push: transport error, reports dropped (upstream may have ingested them)", "err", err)
	}
}

// pushVerdict classifies one upstream push attempt.
type pushVerdict int

const (
	pushOK        pushVerdict = iota // 200: ingested
	pushRetriable                    // definitively not ingested, transient (5xx, dial failure)
	pushPermanent                    // definitively not ingested, retry cannot fix it (4xx)
	pushAmbiguous                    // transport died mid-exchange; may have been ingested
)

// postMerge ships one state envelope to the upstream /merge and classifies
// the outcome: an error status means the envelope definitively was not
// folded in (5xx transient, 4xx permanent — the same split collect.Client
// retries on); a dial-level failure never sent anything and is transient;
// any other transport error is ambiguous because the request may have
// landed before the response was lost.
func postMerge(upstream string, hc *http.Client, env []byte) (pushVerdict, error) {
	resp, err := hc.Post(upstream+"/merge", collect.StateContentType, bytes.NewReader(env))
	if err != nil {
		var op *net.OpError
		if errors.As(err, &op) && op.Op == "dial" {
			return pushRetriable, err // never connected: nothing was sent
		}
		return pushAmbiguous, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		err := fmt.Errorf("merge status %s: %s", resp.Status, bytes.TrimSpace(body))
		if resp.StatusCode >= 500 {
			return pushRetriable, err
		}
		return pushPermanent, err
	}
	io.Copy(io.Discard, resp.Body)
	return pushOK, nil
}
