package collect

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the report-tier engine. The paper's frameworks all reduce to
// one server contract — aggregators of integer counts that add, merge
// exactly and calibrate on read — so the lifecycle around them is written
// once: ingestion (JSON and binary) into one aggregate behind one lock,
// write-ahead durability with compaction, clone-on-read behind the versioned
// estimate cache, snapshot/restore/drain, federation merges and the four
// HTTP endpoints. tier[A, W] is instantiated once per report tier (the
// frequency tier in collect.go, the numeric mean tier in mean.go); what a
// tier supplies is a codec. The engine never asks which tier it serves:
// anything tier-specific is a codec method or a string handed to newTier.

// aggregator is the slice of the server contract the engine itself relies
// on; Add and the calibrated reads stay behind the codec.
type aggregator[A any] interface {
	N() int
	Merge(other A) error
	Clone() A
}

// codec adapts one protocol family to the engine. The first five methods
// are exactly what *core.Protocol and *core.NumericProtocol already
// export, so an adapter embeds its protocol and adds the rest. Every
// per-report loop lives behind these methods, in the adapter's concrete
// code: the engine makes one dynamic call per batch or frame, never one per
// report.
type codec[A any, W any] interface {
	Name() string
	Fingerprint() string
	NewAggregator() A
	MarshalAggregator(A) ([]byte, error)
	UnmarshalAggregator([]byte) (A, error)

	// config is the tier's /config body.
	config(maxBody int64) any
	// decode validates wire reports against the protocol's shape. It
	// returns the wire forms that passed (what a durable tier logs), add —
	// which folds their decoded forms into one aggregator — and one
	// itemized error per refused report, indexed into wires.
	decode(wires []W) (accepted []W, add func(A), rejected []WireItemError)
	// validateBinary checks a binary frame end to end (CRC, header, every
	// record); applyBinary folds the frame it vouched for into acc, which
	// cannot fail.
	validateBinary(frame []byte) (core.CheckedFrame, error)
	applyBinary(acc A, f core.CheckedFrame)
	// estimates is the tier's /estimates body for a copy of the aggregate.
	estimates(acc A) any
}

// tier is one report tier's whole server-side state: one aggregate of
// integer counts behind one mutex. Everything a request costs per report —
// JSON decode, validation, the WAL append — happens before the lock; only
// the fold into the counts is under it (≈25 ns a report for a bit-vector
// frame, one add per occupied cell for a mean frame), and a read copies the
// counts under it and calibrates and renders outside it. The embedded
// durableLog's ingestMu orders report-stream writes (reader side) against
// whole-state transitions — restore, drain, compaction (writer side) — so a
// WAL append and its aggregator apply are atomic with respect to the
// segment boundary a compaction snapshot covers.
type tier[A aggregator[A], W any] struct {
	durableLog
	c codec[A, W]
	// name labels the tier's metrics, logger and WAL ("freq", "mean"); tag
	// qualifies its error messages ("" for the frequency tier, whose
	// messages predate tiers, "mean " otherwise).
	name, tag string
	cfg       any
	maxBody   int64
	limit     *rateLimiter

	// mu guards acc. total mirrors acc.N() and gen counts whole-state
	// swaps; both are written under mu and read without it, so acks and the
	// estimate cache's version check never take the lock.
	mu    sync.Mutex
	acc   A
	total atomic.Int64
	gen   atomic.Int64

	cache *estimateCache
	m     *tierMetrics
	// lockWait observes how long each served write waited for mu.
	lockWait *obs.Histogram
}

// newTier builds a tier for s from its resolved options. Called from
// NewServer once the registry exists, before any WAL opens.
func newTier[A aggregator[A], W any](s *Server, c codec[A, W], name, tag string) *tier[A, W] {
	t := &tier[A, W]{
		c: c, name: name, tag: tag,
		cfg:     c.config(s.maxBody),
		maxBody: s.maxBody,
		limit:   s.limit,
		acc:     c.NewAggregator(),
		m:       newTierMetrics(s.obs, name),
		lockWait: s.obs.Histogram("mcim_tier_lock_wait_seconds",
			"Time a write (batch, frame or merged envelope) waited for the lock around the tier's aggregate in seconds, by tier (WAL replay excluded).",
			obs.LatencyBuckets, "tier", name),
		cache: newEstimateCache(s.cacheDisabled, s.cacheStaleReports, s.cacheStaleAge,
			newCacheMetrics(s.obs, name)),
	}
	t.logger = s.logger.With("tier", name)
	return t
}

// mount registers the tier's four endpoints under prefix ("" or "/mean").
func (t *tier[A, W]) mount(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("GET "+prefix+"/config", t.handleConfig)
	mux.HandleFunc("POST "+prefix+"/report", t.handleReport)
	mux.HandleFunc("POST "+prefix+"/reports", t.handleBatch)
	mux.HandleFunc("GET "+prefix+"/estimates", t.handleEstimates)
}

// reports returns the number of reports accumulated so far. It reads a
// single atomic counter, so request acknowledgements do not serialize on
// the aggregate's lock.
func (t *tier[A, W]) reports() int { return int(t.total.Load()) }

// ---------------------------------------------------------------------------
// HTTP handlers.
// ---------------------------------------------------------------------------

func (t *tier[A, W]) handleConfig(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, t.cfg)
}

func (t *tier[A, W]) handleReport(w http.ResponseWriter, r *http.Request) {
	m := t.m
	body, ok := readBody(w, r, t.maxBody)
	if !ok {
		return
	}
	var rep W
	if err := json.Unmarshal(body, &rep); err != nil {
		m.rejectedDecode.Inc()
		http.Error(w, "decode: "+err.Error(), http.StatusBadRequest)
		return
	}
	accepted, add, rejected := t.c.decode([]W{rep})
	if len(rejected) > 0 {
		m.rejectedItem.Inc()
		http.Error(w, rejected[0].Error, http.StatusBadRequest)
		return
	}
	if err := t.ingest(accepted, add); err != nil {
		m.observeIngestError(err, 1)
		writeIngestError(w, err)
		return
	}
	m.reportsJSON.Inc()
	writeJSON(w, map[string]int{"reports": t.reports()})
}

// handleBatch ingests a batch of reports submitted as a JSON array of wire
// reports, an NDJSON stream (one object per line), or — selected by the
// BinaryContentType media type — one binary wire frame. The whole body is
// subject to the server's size cap (413 beyond it); a syntactically
// unreadable envelope is a 400; individually invalid items (bad label,
// out-of-range bit index, malformed NDJSON record) are rejected per item
// while the rest of the batch is accepted. Binary frames are all-or-nothing
// instead (see binary.go).
func (t *tier[A, W]) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	m := t.m
	body, release, ok := readBodyPooled(w, r, t.maxBody, m)
	if !ok {
		return
	}
	defer release()
	m.bytes.Add(int64(len(body)))
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		t.handleBinaryBatch(w, body, start)
		return
	}
	wires, itemErrs, droppedTail, err := decodeBatchItems[W](body)
	if err != nil {
		m.rejectedDecode.Inc()
		http.Error(w, "decode batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	accepted, add, rejected := t.c.decode(wires)
	itemErrs = append(itemErrs, rejected...)
	if err := t.ingest(accepted, add); err != nil {
		m.observeIngestError(err, len(accepted))
		writeIngestError(w, err)
		return
	}
	m.batchesJSON.Inc()
	m.reportsJSON.Add(int64(len(accepted)))
	m.rejectedItem.Add(int64(len(itemErrs) + droppedTail))
	ack := WireBatchAck{
		Accepted: len(accepted),
		Rejected: len(itemErrs) + droppedTail,
		Reports:  t.reports(),
	}
	if len(itemErrs) > maxBatchErrors {
		itemErrs = itemErrs[:maxBatchErrors]
		ack.ErrorsTruncated = true
	}
	ack.Errors = itemErrs
	writeJSON(w, ack)
	m.latency.Observe(time.Since(start).Seconds())
}

// handleBinaryBatch ingests one binary frame: validated end to end first
// (CRC, header, every record against the protocol's wire shape), then
// logged and applied — so a 400 frame provably left no trace, and the WAL
// only ever holds frames that replay cleanly.
func (t *tier[A, W]) handleBinaryBatch(w http.ResponseWriter, body []byte, start time.Time) {
	m := t.m
	f, err := t.c.validateBinary(body)
	if err != nil {
		m.rejectedDecode.Inc()
		http.Error(w, "decode batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	count := f.Count()
	if count > 0 {
		if err := t.ingestBinary(body, f); err != nil {
			m.observeIngestError(err, count)
			writeIngestError(w, err)
			return
		}
	}
	m.batchesBinary.Inc()
	m.reportsBinary.Add(int64(count))
	writeJSON(w, WireBatchAck{Accepted: count, Reports: t.reports()})
	m.latency.Observe(time.Since(start).Seconds())
}

func (t *tier[A, W]) handleEstimates(w http.ResponseWriter, _ *http.Request) {
	// The live cache version: total BEFORE gen, so a read torn by a
	// concurrent swap mislabels the total under the old — dead —
	// generation (see cache.go for why that is safe).
	total := t.total.Load()
	t.cache.serve(w, cacheVersion{gen: t.gen.Load(), total: total}, t.renderEstimates)
}

// renderEstimates recomputes the /estimates body from a copy of the
// aggregate and returns the version it must be cached under. The generation
// is read before the copy is taken, so an entry rendered across a concurrent
// Restore/Drain is keyed under the superseded generation and can never be
// served.
func (t *tier[A, W]) renderEstimates() ([]byte, cacheVersion, error) {
	gen := t.gen.Load()
	acc := t.clone()
	body, err := encodeJSONBody(t.c.estimates(acc))
	return body, cacheVersion{gen: gen, total: int64(acc.N())}, err
}

// ---------------------------------------------------------------------------
// Ingestion.
// ---------------------------------------------------------------------------

// ingest admits a batch of accepted reports against the rate limiter, makes
// it durable (when a WAL is attached, the wire forms are logged before any
// aggregator sees them — write-ahead) and folds the decoded forms into the
// aggregate. A WAL append failure rejects the whole batch: nothing was
// applied, so the client may safely retry.
func (t *tier[A, W]) ingest(wires []W, add func(A)) error {
	n := len(wires)
	if n == 0 {
		return nil
	}
	if err := t.limit.admit(n); err != nil {
		return err
	}
	t.ingestMu.RLock()
	if t.log != nil {
		rec, err := json.Marshal(wires)
		if err == nil {
			err = t.appendRecord(recBatch, rec)
		}
		if err != nil {
			t.ingestMu.RUnlock()
			return t.notLogged(n, err)
		}
	}
	wait := t.apply(n, add)
	t.ingestMu.RUnlock()
	t.lockWait.Observe(wait.Seconds())
	t.maybeCompact()
	return nil
}

// ingestBinary is ingest for a binary frame and the proof of its validation:
// the raw frame is logged write-ahead (the record replays through the same
// validate+apply path), then folded into the aggregate.
func (t *tier[A, W]) ingestBinary(frame []byte, f core.CheckedFrame) error {
	count := f.Count()
	if err := t.limit.admit(count); err != nil {
		return err
	}
	t.ingestMu.RLock()
	if t.log != nil {
		if err := t.appendRecord(recBinaryBatch, frame); err != nil {
			t.ingestMu.RUnlock()
			return t.notLogged(count, err)
		}
	}
	wait := t.applyBinary(f)
	t.ingestMu.RUnlock()
	t.lockWait.Observe(wait.Seconds())
	t.maybeCompact()
	return nil
}

// notLogged reports a failed write-ahead append of n admitted reports.
// Nothing was applied and the client is told to retry (500), so the rate
// limiter's charge is returned: the client's own 5xx retries would
// otherwise pay for the same reports again on every attempt and turn a disk
// hiccup into 429s.
func (t *tier[A, W]) notLogged(n int, err error) error {
	t.limit.refund(n)
	return fmt.Errorf("collect: %swal append: %w", t.tag, err)
}

// lock takes mu and returns how long the caller waited for it. An
// uncontended acquire reads no clock — the shape wal.Log.append uses for
// the log mutex. The serving paths observe the wait under
// mcim_tier_lock_wait_seconds; WAL replay drops it, like the tier's other
// series.
func (t *tier[A, W]) lock() (wait time.Duration) {
	if !t.mu.TryLock() {
		start := time.Now()
		t.mu.Lock()
		wait = time.Since(start)
	}
	return wait
}

// apply folds n decoded reports into the aggregate under one lock
// acquisition. The total is advanced while the lock is still held, so a
// swap cannot interleave between a write and its count.
func (t *tier[A, W]) apply(n int, add func(A)) time.Duration {
	wait := t.lock()
	add(t.acc)
	t.total.Add(int64(n))
	t.mu.Unlock()
	return wait
}

// applyBinary folds a validated frame into the aggregate under the same
// discipline as apply. The bit-vector protocols sum the frame's packed rows
// by column straight into their accumulator counts — nothing is allocated or
// re-validated under the lock.
func (t *tier[A, W]) applyBinary(f core.CheckedFrame) time.Duration {
	wait := t.lock()
	t.c.applyBinary(t.acc, f)
	t.total.Add(int64(f.Count()))
	t.mu.Unlock()
	return wait
}

// ---------------------------------------------------------------------------
// Clone-on-read and whole-state transitions.
// ---------------------------------------------------------------------------

// clone returns a point-in-time copy of the aggregate. The lock is held
// only for the copy of its count table, so calibrating and rendering an
// estimate never holds up ingestion.
func (t *tier[A, W]) clone() A {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acc.Clone()
}

// snapshot serializes the aggregate into a fingerprinted state envelope.
func (t *tier[A, W]) snapshot() ([]byte, error) {
	return t.c.MarshalAggregator(t.clone())
}

// restore replaces the aggregate with a snapshot envelope from the
// identical protocol fingerprint; a mismatched or corrupt envelope is
// refused and the running state is untouched.
func (t *tier[A, W]) restore(data []byte) error {
	restored, err := t.c.UnmarshalAggregator(data)
	if err != nil {
		return err
	}
	t.ingestMu.Lock()
	defer t.ingestMu.Unlock()
	// The WAL must be moved past its history (roll, then seal the restored
	// state as the new snapshot) BEFORE the memory swap: if either step
	// fails, the running state is genuinely untouched, whereas swapping
	// first would leave the server serving state the log does not replay
	// to. Ingestion is quiesced (ingestMu held exclusively) across all of
	// it, so no record lands between the roll boundary and the swap.
	if err := t.supersede(data); err != nil {
		return fmt.Errorf("collect: %srestore: %w", t.tag, err)
	}
	t.swap(restored)
	return nil
}

// swap replaces the whole aggregate with agg and returns the one it
// replaced. Holding mu across the exchange and the counter reset means
// concurrent ingestion is either fully before (handed out or wiped, and
// uncounted) or fully after (kept and counted) — never half of each. The
// generation is bumped before the total is stored (the estimate cache's
// version read order depends on it — see cache.go).
func (t *tier[A, W]) swap(agg A) A {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.acc
	t.gen.Add(1)
	t.acc = agg
	t.total.Store(int64(agg.N()))
	return old
}

// drain atomically removes and returns the entire aggregate, leaving the
// tier empty. It is atomic: when the WAL cannot be moved past the drained
// state, the aggregate is put back, nothing is handed out, and the error is
// returned — handing the state out anyway would let a restart
// replay (and the caller push) the same reports twice.
func (t *tier[A, W]) drain() (A, error) {
	// ingestMu is held exclusively across the take AND the WAL roll+seal:
	// releasing it between them would let a concurrent background
	// compaction seal the post-drain state and prune the drained records,
	// after which the memory-only undo below could no longer claim "the
	// records are still in the log".
	t.ingestMu.Lock()
	defer t.ingestMu.Unlock()
	taken := t.swap(t.c.NewAggregator())
	if t.log != nil {
		empty, err := t.c.MarshalAggregator(t.c.NewAggregator())
		if err == nil {
			err = t.supersede(empty)
		}
		if err != nil {
			// The drained records are still in the log (the seal that would
			// have superseded them failed), so put the state back in memory
			// only — a WAL append here would double them on replay. Every
			// writer holds ingestMu's reader side, so the empty aggregate
			// being replaced is still empty.
			t.swap(taken)
			var none A
			return none, fmt.Errorf("collect: %sdrain: %w", t.tag, err)
		}
	}
	return taken, nil
}

// ---------------------------------------------------------------------------
// Federation merges.
// ---------------------------------------------------------------------------

// mergeDurable is the tier's half of MergeState: the envelope (already
// matched to this tier by fingerprint) is logged write-ahead and folded
// into the aggregate, returning the reports it contributed.
func (t *tier[A, W]) mergeDurable(env []byte) (int, error) {
	agg, err := t.c.UnmarshalAggregator(env)
	if err != nil {
		return 0, err
	}
	n := agg.N()
	if n == 0 {
		return 0, nil
	}
	t.ingestMu.RLock()
	if t.log != nil {
		if err := t.appendRecord(recEnvelope, env); err != nil {
			t.ingestMu.RUnlock()
			return 0, fmt.Errorf("%w: %swal append: %v", errNotDurable, t.tag, err)
		}
	}
	wait, err := t.mergeIn(agg)
	t.ingestMu.RUnlock()
	if err != nil {
		return 0, err
	}
	t.lockWait.Observe(wait.Seconds())
	t.m.merged.Add(int64(n))
	t.maybeCompact()
	return n, nil
}

// mergeIn folds agg into the aggregate. Like apply, the total is advanced
// under the lock so a swap cannot interleave between the merge and its
// count.
func (t *tier[A, W]) mergeIn(agg A) (time.Duration, error) {
	wait := t.lock()
	defer t.mu.Unlock()
	if err := t.acc.Merge(agg); err != nil {
		// The envelope fingerprint matched this protocol, so the aggregator
		// types match by construction.
		return wait, fmt.Errorf("collect: merge %sstate: %w", t.tag, err)
	}
	t.total.Add(int64(agg.N()))
	return wait, nil
}

// ---------------------------------------------------------------------------
// Write-ahead log.
// ---------------------------------------------------------------------------

// openWAL opens the tier's log under <dir>/sub and replays it into the
// (still unserved) aggregate: the latest snapshot becomes the base state, the
// record tail is re-ingested on top — across the configured replay workers,
// since the records are commutative integer folds.
func (t *tier[A, W]) openWAL(s *Server, sub string) error {
	return t.open(s, sub, t.name, true, t.snapshot,
		func(snap []byte) error {
			agg, err := t.c.UnmarshalAggregator(snap)
			if err != nil {
				return fmt.Errorf("collect: %swal snapshot does not match protocol %s: %w", t.tag, t.c.Name(), err)
			}
			t.swap(agg)
			return nil
		},
		t.replayRecord)
}

// replayRecord re-applies one WAL record. Records were validated before
// they were written, so a record that fails to decode means the log does
// not belong to this tier's protocol configuration — an operator error
// worth failing loudly on, not skipping.
func (t *tier[A, W]) replayRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("collect: empty %swal record", t.tag)
	}
	switch rec[0] {
	case recBatch:
		var wires []W
		if err := json.Unmarshal(rec[1:], &wires); err != nil {
			return fmt.Errorf("collect: %swal batch record: %w", t.tag, err)
		}
		accepted, add, rejected := t.c.decode(wires)
		if len(rejected) > 0 {
			return fmt.Errorf("collect: %swal batch record does not match protocol %s: %s", t.tag, t.c.Name(), rejected[0].Error)
		}
		if len(accepted) > 0 {
			t.apply(len(accepted), add)
		}
		return nil
	case recBinaryBatch:
		f, err := t.c.validateBinary(rec[1:])
		if err != nil {
			return fmt.Errorf("collect: %swal binary batch record does not match protocol %s: %w", t.tag, t.c.Name(), err)
		}
		t.applyBinary(f)
		return nil
	case recEnvelope:
		agg, err := t.c.UnmarshalAggregator(rec[1:])
		if err != nil {
			return fmt.Errorf("collect: %swal envelope record: %w", t.tag, err)
		}
		_, err = t.mergeIn(agg)
		return err
	default:
		return fmt.Errorf("collect: unknown %swal record type %#x", t.tag, rec[0])
	}
}
