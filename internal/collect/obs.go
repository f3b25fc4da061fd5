package collect

import (
	"errors"
	"log/slog"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// This file wires the server into the observability layer (internal/obs):
// every Server owns a metrics registry served at GET /metrics, with one
// pre-resolved handle per hot-path series so ingestion pays a single atomic
// add per event — no label lookups, no allocations — and the binary path
// keeps its zero-alloc budget (gated by bench-check on allocs/op).
//
// Counting discipline: ingest series are advanced ONLY on served writes
// (the HTTP handlers and commit), never in addIn, so WAL replay at
// startup does not inflate them and the counters stay exactly equal to the
// /stats report totals on a fresh server (pinned by
// TestMetricsMatchStatsUnderLoad).
// Merged federation envelopes count separately under
// mcim_merge_reports_total.

// tierMetrics is the per-tier (freq, mean, topk) ingest instrumentation.
type tierMetrics struct {
	reportsJSON   *obs.Counter
	reportsBinary *obs.Counter
	batchesJSON   *obs.Counter
	batchesBinary *obs.Counter
	bytes         *obs.Counter

	rejectedBody   *obs.Counter // whole bodies over the size cap (413)
	rejectedDecode *obs.Counter // unreadable envelopes / binary frames (400)
	rejectedItem   *obs.Counter // per-item rejections inside accepted batches
	rejectedRate   *obs.Counter // reports refused by the rate limiter (429)
	rejectedRoom   *obs.Counter // reports refused past maxTierReports (400)
	rejectedWAL    *obs.Counter // reports refused because the WAL append failed (500)

	// WAL records written by served writes, by what the log kept: the
	// sealed delta, or the raw frame, JSON batch or /merge envelope.
	loggedDelta, loggedFrame, loggedBatch, loggedEnvelope *obs.Counter

	merged  *obs.Counter
	latency *obs.Histogram
}

// loggedRaw is the logged-records counter of a raw record of type typ.
func (m *tierMetrics) loggedRaw(typ byte) *obs.Counter {
	switch typ {
	case recBinaryBatch:
		return m.loggedFrame
	case recBatch:
		return m.loggedBatch
	}
	return m.loggedEnvelope
}

func newTierMetrics(reg *obs.Registry, tier string) *tierMetrics {
	const (
		reportsName  = "mcim_ingest_reports_total"
		reportsHelp  = "Reports accepted through the HTTP ingest endpoints, by tier and wire format (WAL replay excluded)."
		batchesName  = "mcim_ingest_batches_total"
		batchesHelp  = "Batch requests accepted on the /reports endpoints, by tier and wire format."
		rejectedName = "mcim_ingest_rejected_total"
		rejectedHelp = "Ingest rejections by tier and reason: body (over size cap), decode (unreadable envelope/frame), item (per-item), rate_limited, headroom (tier full), wal (append failed)."
		loggedName   = "mcim_tier_logged_records_total"
		loggedHelp   = "WAL records written by served writes, by tier and record: delta (the write's sealed count table), frame, batch or envelope (raw input kept because it was no larger than the delta; envelope = /merge)."
	)
	return &tierMetrics{
		reportsJSON:   reg.Counter(reportsName, reportsHelp, "tier", tier, "wire", "json"),
		reportsBinary: reg.Counter(reportsName, reportsHelp, "tier", tier, "wire", "binary"),
		batchesJSON:   reg.Counter(batchesName, batchesHelp, "tier", tier, "wire", "json"),
		batchesBinary: reg.Counter(batchesName, batchesHelp, "tier", tier, "wire", "binary"),
		bytes: reg.Counter("mcim_ingest_bytes_total",
			"Request-body bytes read on the batch ingest endpoints, by tier.", "tier", tier),
		rejectedBody:   reg.Counter(rejectedName, rejectedHelp, "tier", tier, "reason", "body"),
		rejectedDecode: reg.Counter(rejectedName, rejectedHelp, "tier", tier, "reason", "decode"),
		rejectedItem:   reg.Counter(rejectedName, rejectedHelp, "tier", tier, "reason", "item"),
		rejectedRate:   reg.Counter(rejectedName, rejectedHelp, "tier", tier, "reason", "rate_limited"),
		rejectedRoom:   reg.Counter(rejectedName, rejectedHelp, "tier", tier, "reason", "headroom"),
		rejectedWAL:    reg.Counter(rejectedName, rejectedHelp, "tier", tier, "reason", "wal"),
		loggedDelta:    reg.Counter(loggedName, loggedHelp, "tier", tier, "record", "delta"),
		loggedFrame:    reg.Counter(loggedName, loggedHelp, "tier", tier, "record", "frame"),
		loggedBatch:    reg.Counter(loggedName, loggedHelp, "tier", tier, "record", "batch"),
		loggedEnvelope: reg.Counter(loggedName, loggedHelp, "tier", tier, "record", "envelope"),
		merged: reg.Counter("mcim_merge_reports_total",
			"Reports contributed by federation envelopes accepted on POST /merge, by tier.", "tier", tier),
		latency: reg.Histogram("mcim_ingest_latency_seconds",
			"Batch ingest handler latency in seconds, by tier.", obs.LatencyBuckets, "tier", tier),
	}
}

// observeIngestError classifies a refused batch (the rate limiter or the
// write-ahead append) into the rejection counters; n is the report count
// that was refused.
func (m *tierMetrics) observeIngestError(err error, n int) {
	if m == nil {
		return
	}
	var rl *RateLimitedError
	switch {
	case errors.As(err, &rl):
		m.rejectedRate.Add(int64(n))
	case errors.Is(err, errNoHeadroom):
		m.rejectedRoom.Add(int64(n))
	default:
		m.rejectedWAL.Add(int64(n))
	}
}

// NewWALMetrics builds the wal.Metrics hook set for one log, labeled
// log=<name> (freq, mean, topk — and "registry" for the tenant control
// plane), plus the gauge recording the duration of the startup replay.
func NewWALMetrics(reg *obs.Registry, name string) (*wal.Metrics, *obs.Gauge) {
	m := &wal.Metrics{
		Appends: reg.Counter("mcim_wal_appends_total",
			"Records appended to the write-ahead log, by log.", "log", name),
		AppendedBytes: reg.Counter("mcim_wal_appended_bytes_total",
			"Framed record bytes appended to the write-ahead log, by log.", "log", name),
		Fsyncs: reg.Counter("mcim_wal_fsyncs_total",
			"Successful explicit fsyncs of a WAL segment (per append, per tick, per roll, per Sync), by log.", "log", name),
		SyncErrors: reg.Counter("mcim_wal_sync_errors_total",
			"WAL flushes that failed (segment or directory fsync, close of a rolled segment), by log.", "log", name),
		LockWait: reg.Histogram("mcim_wal_append_lock_wait_seconds",
			"Time an append waited for the log mutex (behind a roll or another writer) in seconds, by log.",
			obs.LatencyBuckets, "log", name),
		Rolls: reg.Counter("mcim_wal_segment_rolls_total",
			"WAL segment rotations (size, torn-quarantine, compaction roll), by log.", "log", name),
		Seals: reg.Counter("mcim_wal_compactions_total",
			"Durable compaction snapshots sealed, by log.", "log", name),
		TornTruncations: reg.Counter("mcim_wal_torn_truncations_total",
			"Torn WAL tails handled (failed writes clipped, corrupt frames ending a replay), by log.", "log", name),
		TornBytes: reg.Counter("mcim_wal_torn_bytes_total",
			"Segment bytes WAL replay skipped after a torn or corrupt frame, by log.", "log", name),
		ReplayedRecords: reg.Counter("mcim_wal_replayed_records_total",
			"Intact records re-applied from the write-ahead log at startup, by log.", "log", name),
		ReplayedBytes: reg.Counter("mcim_wal_replayed_bytes_total",
			"Framed bytes of the intact records re-applied from the write-ahead log at startup, by log.", "log", name),
	}
	g := reg.Gauge("mcim_wal_replay_seconds",
		"Duration of the startup WAL replay in seconds, by log.", "log", name)
	return m, g
}

// EdgeMetrics is the upstream-push instrumentation of an edge collector
// (cmd/mcimedge): per-outcome push counters matching the pusher's verdict
// classification, the size distribution of drained envelopes, and the
// reports still held locally after the last push.
type EdgeMetrics struct {
	PushOK        *obs.Counter
	PushRetriable *obs.Counter
	PushPermanent *obs.Counter
	PushAmbiguous *obs.Counter
	DrainReports  *obs.Histogram
	Unpushed      *obs.Gauge
}

// NewEdgeMetrics registers the edge-push series on reg (normally the edge
// server's own registry, so one /metrics covers ingest and push).
func NewEdgeMetrics(reg *obs.Registry) *EdgeMetrics {
	const (
		pushName = "mcim_edge_push_total"
		pushHelp = "Upstream envelope pushes by outcome: ok (ingested), retriable (held for retry), permanent (dropped, operator error), ambiguous (dropped, transport died mid-exchange)."
	)
	return &EdgeMetrics{
		PushOK:        reg.Counter(pushName, pushHelp, "outcome", "ok"),
		PushRetriable: reg.Counter(pushName, pushHelp, "outcome", "retriable"),
		PushPermanent: reg.Counter(pushName, pushHelp, "outcome", "permanent"),
		PushAmbiguous: reg.Counter(pushName, pushHelp, "outcome", "ambiguous"),
		DrainReports: reg.Histogram("mcim_edge_drain_reports",
			"Reports per drained envelope handed to an upstream push.", obs.SizeBuckets),
		Unpushed: reg.Gauge("mcim_edge_unpushed_reports",
			"Reports still held locally after the last push attempt."),
	}
}

// WithLogger sets the structured logger the server (and its tiers) log
// through; the default is slog.Default().
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) {
		if l != nil {
			s.logger = l
		}
	}
}

// Metrics returns the server's metrics registry — the same one GET
// /metrics renders. Mounting layers (the tenant registry, cmd/mcimedge)
// register their own series on it and merge it into roll-up views.
func (s *Server) Metrics() *obs.Registry { return s.obs }

// initObs builds the registry and the server-wide series. Called from
// NewServer after options are applied, before the tiers are built (each
// registers its own pre-resolved handles on the registry, see newTier and
// sessionHub.init) and before the WALs open (their hooks register here
// too).
func (s *Server) initObs() {
	s.obs = obs.NewRegistry()
	if s.logger == nil {
		s.logger = slog.Default()
	}
	s.started = time.Now()
	obs.RegisterBuildInfo(s.obs)
	s.obs.GaugeFunc("mcim_uptime_seconds",
		"Seconds since this collection server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
}
