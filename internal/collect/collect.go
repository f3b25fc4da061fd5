// Package collect implements the HTTP collection pipeline around the
// frequency-estimation protocols — the way LDP frequency oracles are
// deployed in practice (RAPPOR in Chrome, Apple's HCMS): clients perturb
// locally and POST opaque reports; the server accumulates them and serves
// calibrated classwise estimates.
//
// The pipeline is mechanism-generic: the server is built around a
// core.Protocol (hec, ptj, pts or ptscp), it holds one count table of that
// protocol's shape (state.Table), and the wire codec, the fold into the
// table and its calibration are delegated to the protocol, so all four
// frameworks stream through the same endpoints. /config advertises the
// protocol name and clients reconstruct the matching Encoder from it.
//
// The wire format is JSON; unary-encoded reports are carried as set-bit
// indices — the natural sparse encoding of an OUE-style bit vector — and
// value reports (GRR, OLH) as a bare value plus optional hash seed.
//
// The ingestion path is built for population-scale traffic: reports can be
// submitted one per request (POST /report) or, preferably, in batches
// (POST /reports, JSON array, NDJSON stream or binary frame). Concurrent
// requests decode, validate and log in parallel and serialize only on the
// fold into the tier's one table of integer counts, which is why the
// served estimates are bit-identical to an offline aggregator fed the same
// reports in any order.
//
// Two production affordances sit on top (see durable.go and merge.go): a
// write-ahead log (WithWAL) that makes the table survive unclean shutdowns
// bit-identically, and a federation endpoint (POST /merge) that accepts
// another server's fingerprinted state envelope, which is how edge
// collectors (cmd/mcimedge) push their drained tables up to a root server.
//
// All of that lifecycle is written once, in the generic report-tier engine
// (tier.go): the frequency tier (this file) and the numeric mean tier
// (mean.go) are two instantiations that each supply only a codec over their
// protocol, and a new report tier is a one-file addition of the same shape.
// The interactive top-k mining tier (topk.go) is a planner per session
// behind one lock and shares just the durable log helper (durable.go).
// Clients mirror the split: one buffered batch client (client.go) under
// Client and MeanClient, configured by a single ClientOption set.
package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/wal"
)

// DefaultMaxBodyBytes caps request bodies: generous enough for batches of
// thousands of sparse reports, small enough to bound per-request memory.
const DefaultMaxBodyBytes = 8 << 20

// DefaultMergeMaxBodyBytes caps POST /merge bodies separately and far more
// generously: a state envelope is one per edge per push interval (not
// per-client traffic), and it is one count table — the route counts plus
// rows×cols cells, each a uvarint of at most 10 bytes — whose size the
// protocol's domain sets, whatever the edge's report count. The cap admits
// tables of about 26 million cells at worst-case varint width, where the
// batch limit would refuse every push of a large domain. It must stay below
// wal.MaxRecordBytes: a WAL-backed server logs every merged envelope as
// one record (plus a type byte), and accepting an envelope it cannot make
// durable would 500 the push after reading it.
const DefaultMergeMaxBodyBytes = 256 << 20

// The /merge cap fits one WAL record: the constant below fails to compile
// (negative uint) the day it does not.
const _ = uint(wal.MaxRecordBytes - 1 - DefaultMergeMaxBodyBytes)

// WireConfig describes the collection round so clients can self-configure.
// Protocol names the frequency-estimation framework (hec, ptj, pts, ptscp)
// whose Encoder clients must run; MaxBodyBytes advertises the server's
// request-body cap so batching clients can size their batches to fit.
type WireConfig struct {
	Protocol     string  `json:"protocol"`
	Classes      int     `json:"classes"`
	Items        int     `json:"items"`
	Epsilon      float64 `json:"epsilon"`
	Split        float64 `json:"split"`
	MaxBodyBytes int64   `json:"max_body_bytes,omitempty"`
	// Wire lists the batch encodings the server accepts on POST /reports
	// ("json", "binary"). Servers predating the field speak JSON only;
	// clients must not post binary frames unless it is advertised.
	Wire []string `json:"wire,omitempty"`
}

// WireReport is one perturbed report on the wire: the protocol-generic
// payload (label plus set-bit indices, or label plus value and optional hash
// seed). The server validates every report against its protocol's shape and
// rejects violations per item.
type WireReport = core.WirePayload

// WireEstimates is the server's calibrated output.
type WireEstimates struct {
	Reports     int         `json:"reports"`
	Frequencies [][]float64 `json:"frequencies"` // [class][item]
	ClassSizes  []float64   `json:"class_sizes"`
}

// WireStats is the server's operational snapshot served at /stats.
type WireStats struct {
	Protocol string `json:"protocol"`
	Reports  int    `json:"reports"`
	// WAL is present only on servers running with a write-ahead log.
	WAL *WireWALStats `json:"wal,omitempty"`
	// TopK is present only on servers hosting interactive mining sessions:
	// open sessions, each one's live round and how many reports it has
	// folded this round.
	TopK *WireTopKStats `json:"topk,omitempty"`
	// Mean is present only on servers hosting the numeric mean tier.
	Mean *WireMeanStats `json:"mean,omitempty"`
	// UptimeSeconds is how long ago this server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Build identifies the binary: Go toolchain version and VCS revision.
	Build *obs.BuildInfo `json:"build,omitempty"`
}

// WireWALStats is the durability slice of /stats: how much log a restart
// would replay and when the state was last compacted into a snapshot.
type WireWALStats struct {
	Segments             int    `json:"segments"`
	BytesSinceCompaction int64  `json:"bytes_since_compaction"`
	LastSnapshot         string `json:"last_snapshot,omitempty"` // RFC 3339; empty if never
}

// Server accumulates perturbed reports over HTTP for up to three tiers: a
// frequency tier, a numeric mean tier (both instances of the report-tier
// engine, see tier.go) and interactive top-k mining sessions. It is safe
// for concurrent use.
type Server struct {
	proto     *core.Protocol
	meanProto *core.NumericProtocol
	meanSet   bool // WithMean was given (even a nil protocol, which NewServer refuses)
	maxBody   int64

	walDir       string
	walFreqSub   string // subdirectory of walDir holding the frequency log ("" = walDir itself)
	walOpts      wal.Options
	compactAfter int64

	// limit, when set, rate-limits ingestion across every report endpoint
	// (see ratelimit.go); nil means unlimited.
	limit *rateLimiter

	// cacheDisabled (WithEstimateCacheDisabled) turns every tier's estimate
	// cache off (see cache.go).
	cacheDisabled bool

	// The tiers; each is nil unless mounted. freq serves proto, mean serves
	// meanProto (WithMean), topk hosts interactive mining sessions
	// (WithTopKSessions, see topk.go).
	freq *tier[WireReport]
	mean *tier[WireMeanReport]
	topk *sessionHub

	// Observability (see obs.go): the registry behind GET /metrics and the
	// structured logger. Each tier carries its own pre-resolved hot-path
	// handles.
	obs     *obs.Registry
	logger  *slog.Logger
	started time.Time
}

// ServerOption configures a Server beyond the protocol parameters.
type ServerOption func(*Server)

// WithMaxBodyBytes caps the accepted request body size for report
// submissions. Oversized requests are rejected with 413. n < 1 restores
// DefaultMaxBodyBytes.
func WithMaxBodyBytes(n int64) ServerOption {
	return func(s *Server) {
		if n < 1 {
			n = DefaultMaxBodyBytes
		}
		s.maxBody = n
	}
}

// DefaultCompactAfterBytes is the WAL auto-compaction threshold: once this
// many record bytes accumulate past the last snapshot, the server folds
// them into a fresh snapshot in the background.
const DefaultCompactAfterBytes = 64 << 20

// WithWAL makes the server durable: every accepted report batch (and every
// merged envelope) is appended to a write-ahead log under dir before it
// touches an aggregator, and NewServer replays snapshot + tail from dir so
// a restarted server resumes with bit-identical estimates. An empty dir
// disables the WAL (the default).
func WithWAL(dir string) ServerOption {
	return func(s *Server) { s.walDir = dir }
}

// WithWALOptions tunes the log opened by WithWAL: segment roll size and
// fsync policy (see wal.Options). Zero values keep the WAL defaults.
func WithWALOptions(o wal.Options) ServerOption {
	return func(s *Server) { s.walOpts = o }
}

// WithWALTierLayout moves the frequency tier's log into a freq/
// subdirectory of the WAL directory, so a server's durable state lays out
// as <dir>/{freq,mean,topk} — one subdirectory per tier. The default keeps
// the frequency log at the directory root, which is what every WAL
// directory created before this option holds; opting in on such a
// directory would silently orphan its history, so the layout is explicit,
// not sniffed. Multi-tenant registries (internal/tenant) use it for every
// tenant directory.
func WithWALTierLayout() ServerOption {
	return func(s *Server) { s.walFreqSub = "freq" }
}

// WithCompactAfter sets how many WAL bytes may accumulate past the last
// snapshot before the server compacts in the background. n < 1 restores
// DefaultCompactAfterBytes; use a huge value to effectively disable
// auto-compaction (Compact can always be called explicitly).
func WithCompactAfter(n int64) ServerOption {
	return func(s *Server) {
		if n < 1 {
			n = DefaultCompactAfterBytes
		}
		s.compactAfter = n
	}
}

// NewServer builds a collection server for the given protocol's reports;
// build one with core.NewProtocol. p may be nil when the server hosts
// another tier — NewServer(nil, WithMean(np)) serves the numeric mean tier
// alone, with the frequency endpoints unmounted.
//
// A caveat for OLH-backed protocols (pts+olh): OLH recovers a report's
// supports by rehashing every item under the report's seed, so each report
// costs d hashes to ingest. The state stays a fixed-size count table; prefer
// a unary-encoded protocol where ingest throughput matters.
func NewServer(p *core.Protocol, opts ...ServerOption) (*Server, error) {
	if p != nil {
		// Clients rebuild their encoder from the name in /config alone, so a
		// name that core.NewProtocol cannot resolve — or one that resolves to
		// different mechanisms than the server actually aggregates with, which
		// would decode cleanly but calibrate wrongly — would serve a round no
		// client can correctly join. Fail at construction instead.
		rebuilt, err := core.NewProtocol(p.Name(), p.Classes(), p.Items(), p.Epsilon(), p.Split())
		if err != nil {
			return nil, fmt.Errorf("collect: protocol name %q is not client-reconstructible (use a canonical name or \"pts+<item>\"): %w", p.Name(), err)
		}
		if err := p.WireCompatible(rebuilt); err != nil {
			return nil, fmt.Errorf("collect: protocol %q does not match what clients reconstruct from that name: %w", p.Name(), err)
		}
	}
	s := &Server{
		proto:        p,
		maxBody:      DefaultMaxBodyBytes,
		compactAfter: DefaultCompactAfterBytes,
	}
	for _, opt := range opts {
		opt(s)
	}
	if p == nil && !s.meanSet && s.topk == nil {
		return nil, fmt.Errorf("collect: nil protocol and no other tier to serve (WithMean, WithTopKSessions)")
	}
	if s.meanSet {
		// The mean tier's clients self-configure from /mean/config the same
		// way frequency clients do from /config, so the same
		// reconstructibility check applies.
		np := s.meanProto
		if np == nil {
			return nil, fmt.Errorf("collect: nil numeric protocol")
		}
		rebuilt, err := core.NewNumericProtocol(np.Name(), np.Classes(), np.Epsilon(), np.Split())
		if err != nil {
			return nil, fmt.Errorf("collect: numeric protocol name %q is not client-reconstructible: %w", np.Name(), err)
		}
		if err := np.WireCompatible(rebuilt); err != nil {
			return nil, fmt.Errorf("collect: numeric protocol %q does not match what clients reconstruct from that name: %w", np.Name(), err)
		}
	}
	// Metrics before the WALs open: the logs' hook counters and the replay
	// instrumentation live on the registry built here.
	s.initObs()
	if p != nil {
		s.freq = newTier[WireReport](s, freqCodec{p}, "freq", "")
	}
	if s.meanSet {
		s.mean = newTier[WireMeanReport](s, meanCodec{s.meanProto}, "mean", "mean ")
	}
	if s.topk != nil {
		s.topk.init(s)
	}
	if s.walDir != "" {
		if err := s.openWALs(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// openWALs opens and replays each mounted tier's log. The frequency log
// sits at the directory root by default; under WithWALTierLayout it moves
// into freq/ (Join with "" is the identity).
func (s *Server) openWALs() error {
	if s.freq != nil {
		if err := s.freq.openWAL(s, s.walFreqSub); err != nil {
			return err
		}
	}
	if s.mean != nil {
		if err := s.mean.openWAL(s, "mean"); err != nil {
			return err
		}
	}
	if s.topk != nil {
		return s.topk.openWAL(s)
	}
	return nil
}

// Protocol returns the protocol the server aggregates for.
func (s *Server) Protocol() *core.Protocol { return s.proto }

// Handler returns the HTTP routes:
//
//	GET  /config    → WireConfig (protocol name + round parameters)
//	POST /report    → accept one WireReport
//	POST /reports   → accept a batch of WireReports (JSON array or NDJSON)
//	POST /merge     → accept a fingerprinted aggregator state envelope
//	                  (routed to the frequency or mean tier by fingerprint)
//	GET  /estimates → WireEstimates (the protocol's calibrated frequencies)
//	GET  /stats     → WireStats (reports ingested, protocol, WAL)
//	GET  /metrics   → Prometheus text exposition of the server's registry
//	GET  /healthz   → 200 ok
//
// With WithMean, the numeric mean tier is mounted too (the frequency
// endpoints are omitted when the server was built with a nil protocol):
//
//	GET  /mean/config    → WireMeanConfig
//	POST /mean/report    → accept one WireMeanReport
//	POST /mean/reports   → accept a batch (JSON array or NDJSON)
//	GET  /mean/estimates → WireMeanEstimates (means + class sizes)
//
// With WithTopKSessions, the interactive mining tier is mounted too:
//
//	POST   /topk/sessions               → create a mining session
//	GET    /topk/sessions/{id}          → session info (attach/resume)
//	DELETE /topk/sessions/{id}          → evict a session, freeing its slot
//	GET    /topk/sessions/{id}/round    → live round broadcast
//	POST   /topk/sessions/{id}/reports  → batch of round reports (410 when sealed)
//	GET    /topk/sessions/{id}/result   → per-class rankings
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	if s.freq != nil {
		s.freq.mount(mux, "")
	}
	mux.HandleFunc("POST /merge", s.handleMerge)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.obs.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if s.mean != nil {
		s.mean.mount(mux, "/mean")
	}
	if s.topk != nil {
		mux.HandleFunc("POST /topk/sessions", s.handleTopKCreate)
		mux.HandleFunc("GET /topk/sessions/{id}", s.handleTopKInfo)
		mux.HandleFunc("DELETE /topk/sessions/{id}", s.handleTopKDelete)
		mux.HandleFunc("GET /topk/sessions/{id}/round", s.handleTopKRound)
		mux.HandleFunc("POST /topk/sessions/{id}/reports", s.handleTopKReports)
		mux.HandleFunc("GET /topk/sessions/{id}/result", s.handleTopKResult)
	}
	return mux
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.StatsSnapshot())
}

// StatsSnapshot assembles the operational snapshot served at GET /stats.
// Exported so mounting layers (the multi-tenant registry) can embed one
// server's view inside a larger stats document.
func (s *Server) StatsSnapshot() WireStats {
	build := obs.Build()
	st := WireStats{
		Reports:       s.Reports(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Build:         &build,
	}
	if s.freq != nil {
		st.Protocol = s.proto.Name()
		st.WAL = s.freq.walStats()
	}
	if s.mean != nil {
		st.Mean = &WireMeanStats{
			Protocol: s.meanProto.Name(),
			Reports:  s.mean.reports(),
			WAL:      s.mean.walStats(),
		}
	}
	if s.topk != nil {
		st.TopK = s.topk.stats()
	}
	return st
}

// bodyPool recycles request-body buffers across the hot batch endpoints,
// where body allocation would otherwise dominate the per-request cost of a
// zero-alloc decode path.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBodyBytes caps what goes back into bodyPool so one outsized
// batch does not pin megabytes per pooled buffer forever.
const maxPooledBodyBytes = 4 << 20

// readBodyPooled is readBody backed by a pooled buffer. The returned bytes
// alias the buffer: callers must be done with them (and anything aliasing
// them) before calling release, and must call release exactly once on
// every ok return. m is the calling tier's instrumentation: bodies over
// the size cap count under its body-rejection series.
func readBodyPooled(w http.ResponseWriter, r *http.Request, limit int64, m *tierMetrics) (body []byte, release func(), ok bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	release = func() {
		if buf.Cap() <= maxPooledBodyBytes {
			bodyPool.Put(buf)
		}
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		release()
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			m.rejectedBody.Inc()
			http.Error(w, fmt.Sprintf("collect: body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		}
		return nil, nil, false
	}
	return buf.Bytes(), release, true
}

// readBody drains the request body under limit — the server's report-batch
// size cap, or POST /merge's own, larger one — answering 413 (and returning
// false) when the cap is exceeded.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("collect: body exceeds %d bytes", limit), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return body, true
}

// freqCodec adapts a core.Protocol to the report-tier engine (see tier.go);
// the embedded protocol supplies the naming, table and envelope half of the
// codec.
type freqCodec struct{ *core.Protocol }

func (c freqCodec) config(maxBody int64) any {
	return WireConfig{
		Protocol:     c.Name(),
		Classes:      c.Classes(),
		Items:        c.Items(),
		Epsilon:      c.Epsilon(),
		Split:        c.Split(),
		MaxBodyBytes: maxBody,
		Wire:         wireFormats(),
	}
}

func (c freqCodec) decode(wires []WireReport) ([]WireReport, func(*state.Table), []WireItemError) {
	accepted, reps, rejected := decodeEach(wires, c.DecodeReport)
	return accepted, func(t *state.Table) {
		for _, rep := range reps {
			c.Fold(t, rep)
		}
	}, rejected
}

func (c freqCodec) validateBinary(frame []byte) (core.CheckedFrame, error) {
	return c.ValidateBinaryBatch(frame)
}

func (c freqCodec) appendEstimates(dst []byte, t *state.Table) ([]byte, error) {
	freq, sizes := c.Calibrate(t)
	return appendFrequencies(dst, t.N, freq, sizes)
}

// decodeEach runs one tier's per-report wire decoder over a batch: the wire
// forms that decoded, their decoded forms (same order), and an itemized
// error per refused report, indexed into wires.
func decodeEach[W, R any](wires []W, decode func(W) (R, error)) (accepted []W, reps []R, rejected []WireItemError) {
	accepted, reps = make([]W, 0, len(wires)), make([]R, 0, len(wires))
	for i, w := range wires {
		rep, err := decode(w)
		if err != nil {
			rejected = append(rejected, WireItemError{Index: i, Error: err.Error()})
			continue
		}
		accepted, reps = append(accepted, w), append(reps, rep)
	}
	return accepted, reps, rejected
}

// Reports returns the number of frequency reports accumulated so far (0
// without a frequency tier).
func (s *Server) Reports() int {
	if s.freq == nil {
		return 0
	}
	return s.freq.reports()
}

// errNoFrequencyTier is returned by the frequency state operations on a
// server built without a frequency protocol (NewServer(nil, ...)).
func errNoFrequencyTier() error {
	return fmt.Errorf("collect: server has no frequency tier (built with a nil protocol)")
}

// Snapshot serializes the aggregation state (one count table, never an
// individual report) into a versioned, fingerprinted state envelope, so the
// server can checkpoint across restarts or ship its aggregate to a
// federation peer. Every protocol supports it.
func (s *Server) Snapshot() ([]byte, error) {
	if s.freq == nil {
		return nil, errNoFrequencyTier()
	}
	return s.freq.snapshot(), nil
}

// Restore replaces the aggregation state with a Snapshot envelope taken
// from a server with the identical protocol fingerprint; a mismatched or
// corrupt envelope is refused and the running state is untouched. On a
// WAL-backed server the restored state also becomes the log's new snapshot,
// superseding every record written before the restore.
func (s *Server) Restore(data []byte) error {
	if s.freq == nil {
		return errNoFrequencyTier()
	}
	return s.freq.restore(data)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
