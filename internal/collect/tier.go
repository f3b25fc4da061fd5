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
	"repro/internal/state"
)

// This file is the report-tier engine. Every estimator of the paper is a
// closed-form calibration of integer counts, so a report tier's whole state
// is one count table (state.Table) and the lifecycle around it is written
// once: ingestion (JSON and binary) into that table behind one lock,
// write-ahead durability with compaction, clone-on-read behind the versioned
// estimate cache, snapshot/restore/drain, federation merges and the four
// HTTP endpoints. Every whole-state operation is a table operation: a read
// copies the table (Table.Clone), a federation envelope is added in
// (Table.Merge), and snapshot, restore, drain and WAL replay move the table
// through the protocol's fingerprinted envelope. tier[W] is instantiated
// once per report tier over its wire report type (the frequency tier in
// collect.go, the numeric mean tier in mean.go); what a tier supplies is a
// codec. The engine never asks which tier it serves: anything tier-specific
// is a codec method or a string handed to newTier.

// codec adapts one protocol family to the engine. The first five methods
// are exactly what *core.Protocol and *core.NumericProtocol already
// export, so an adapter embeds its protocol and adds the rest. Every
// per-report loop lives behind these methods, in the adapter's concrete
// code: the engine makes one dynamic call per batch or frame, never one per
// report.
type codec[W any] interface {
	Name() string
	// NewTable returns an empty table of the protocol's shape.
	NewTable() state.Table
	// SealTable wraps a table in the protocol's fingerprinted envelope;
	// OpenTable is its validating inverse, and the one place the protocol
	// check lives: another protocol's envelope is core.ErrIncompatibleState,
	// a corrupt envelope or an impossible table a plain error.
	SealTable(*state.Table) []byte
	OpenTable(env []byte) (state.Table, error)
	// FoldChecked folds a frame validateBinary vouched for into a table,
	// which cannot fail.
	FoldChecked(*state.Table, core.CheckedFrame)

	// config is the tier's /config body.
	config(maxBody int64) any
	// decode validates wire reports against the protocol's shape. It
	// returns the wire forms that passed (what a durable tier logs), add —
	// which folds their decoded forms into a table — and one itemized error
	// per refused report, indexed into wires.
	decode(wires []W) (accepted []W, add func(*state.Table), rejected []WireItemError)
	// validateBinary checks a binary frame end to end (CRC, header, every
	// record).
	validateBinary(frame []byte) (core.CheckedFrame, error)
	// estimates is the tier's /estimates body for a copy of the table.
	estimates(*state.Table) any
}

// tier is one report tier's whole server-side state: one table of integer
// counts behind one mutex. Everything a request costs per report — JSON
// decode, validation, the WAL append — happens before the lock; only the
// fold into the counts is under it (≈25 ns a report for a bit-vector frame,
// one add per occupied cell for a mean frame), and a read copies the table
// under it and calibrates and renders outside it. The embedded durableLog's
// ingestMu orders report-stream writes (reader side) against whole-state
// transitions — restore, drain, compaction (writer side) — so a WAL append
// and its fold are atomic with respect to the segment boundary a compaction
// snapshot covers.
type tier[W any] struct {
	durableLog
	c codec[W]
	// name labels the tier's metrics, logger and WAL ("freq", "mean"); tag
	// qualifies its error messages ("" for the frequency tier, whose
	// messages predate tiers, "mean " otherwise).
	name, tag string
	cfg       any
	maxBody   int64
	limit     *rateLimiter

	// mu guards acc. total mirrors acc.N and gen counts whole-state swaps;
	// both are written under mu and read without it, so acks and the
	// estimate cache's version check never take the lock.
	mu    sync.Mutex
	acc   state.Table
	total atomic.Int64
	gen   atomic.Int64
	// mergeMu serializes federation merges from their headroom check to
	// their fold (see maxTierReports).
	mergeMu sync.Mutex

	cache *estimateCache
	m     *tierMetrics
	// lockWait observes how long each served write waited for mu.
	lockWait *obs.Histogram
}

// newTier builds a tier for s from its resolved options. Called from
// NewServer once the registry exists, before any WAL opens.
func newTier[W any](s *Server, c codec[W], name, tag string) *tier[W] {
	t := &tier[W]{
		c: c, name: name, tag: tag,
		cfg:     c.config(s.maxBody),
		maxBody: s.maxBody,
		limit:   s.limit,
		acc:     c.NewTable(),
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
func (t *tier[W]) mount(mux *http.ServeMux, prefix string) {
	mux.HandleFunc("GET "+prefix+"/config", t.handleConfig)
	mux.HandleFunc("POST "+prefix+"/report", t.handleReport)
	mux.HandleFunc("POST "+prefix+"/reports", t.handleBatch)
	mux.HandleFunc("GET "+prefix+"/estimates", t.handleEstimates)
}

// reports returns the number of reports accumulated so far. It reads a
// single atomic counter, so request acknowledgements do not serialize on
// the table's lock.
func (t *tier[W]) reports() int { return int(t.total.Load()) }

// ---------------------------------------------------------------------------
// HTTP handlers.
// ---------------------------------------------------------------------------

func (t *tier[W]) handleConfig(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, t.cfg)
}

func (t *tier[W]) handleReport(w http.ResponseWriter, r *http.Request) {
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
func (t *tier[W]) handleBatch(w http.ResponseWriter, r *http.Request) {
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
func (t *tier[W]) handleBinaryBatch(w http.ResponseWriter, body []byte, start time.Time) {
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

func (t *tier[W]) handleEstimates(w http.ResponseWriter, _ *http.Request) {
	// The live cache version: total BEFORE gen, so a read torn by a
	// concurrent swap mislabels the total under the old — dead —
	// generation (see cache.go for why that is safe).
	total := t.total.Load()
	t.cache.serve(w, cacheVersion{gen: t.gen.Load(), total: total}, t.renderEstimates)
}

// renderEstimates recomputes the /estimates body from a copy of the table
// and returns the version it must be cached under. The generation is read
// before the copy is taken, so an entry rendered across a concurrent
// Restore/Drain is keyed under the superseded generation and can never be
// served.
func (t *tier[W]) renderEstimates() ([]byte, cacheVersion, error) {
	gen := t.gen.Load()
	acc := t.clone()
	body, err := encodeJSONBody(t.c.estimates(&acc))
	return body, cacheVersion{gen: gen, total: acc.N}, err
}

// ---------------------------------------------------------------------------
// Ingestion.
// ---------------------------------------------------------------------------

// ingest admits a batch of accepted reports against the rate limiter, makes
// it durable (when a WAL is attached, the wire forms are logged before the
// table sees them — write-ahead) and folds the decoded forms into the
// table. A WAL append failure rejects the whole batch: nothing was applied,
// so the client may safely retry.
func (t *tier[W]) ingest(wires []W, add func(*state.Table)) error {
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
	wait := t.apply(add)
	t.ingestMu.RUnlock()
	t.lockWait.Observe(wait.Seconds())
	t.maybeCompact()
	return nil
}

// ingestBinary is ingest for a binary frame and the proof of its validation:
// the raw frame is logged write-ahead (the record replays through the same
// validate+apply path), then folded into the table.
func (t *tier[W]) ingestBinary(frame []byte, f core.CheckedFrame) error {
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
func (t *tier[W]) notLogged(n int, err error) error {
	t.limit.refund(n)
	return fmt.Errorf("collect: %swal append: %w", t.tag, err)
}

// lock takes mu and returns how long the caller waited for it. An
// uncontended acquire reads no clock — the shape wal.Log.append uses for
// the log mutex. The serving paths observe the wait under
// mcim_tier_lock_wait_seconds; WAL replay drops it, like the tier's other
// series.
func (t *tier[W]) lock() (wait time.Duration) {
	if !t.mu.TryLock() {
		start := time.Now()
		t.mu.Lock()
		wait = time.Since(start)
	}
	return wait
}

// apply folds decoded reports into the table under one lock acquisition.
// The total is stored while the lock is still held, so a swap cannot
// interleave between a write and its count.
func (t *tier[W]) apply(add func(*state.Table)) time.Duration {
	wait := t.lock()
	add(&t.acc)
	t.total.Store(t.acc.N)
	t.mu.Unlock()
	return wait
}

// applyBinary folds a validated frame into the table under the same
// discipline as apply. The bit-vector protocols sum the frame's packed rows
// by column straight into the table's rows — nothing is allocated or
// re-validated under the lock.
func (t *tier[W]) applyBinary(f core.CheckedFrame) time.Duration {
	wait := t.lock()
	t.c.FoldChecked(&t.acc, f)
	t.total.Store(t.acc.N)
	t.mu.Unlock()
	return wait
}

// ---------------------------------------------------------------------------
// Clone-on-read and whole-state transitions.
// ---------------------------------------------------------------------------

// clone returns a point-in-time copy of the table. The lock is held only
// for the copy, so calibrating and rendering an estimate never holds up
// ingestion.
func (t *tier[W]) clone() state.Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acc.Clone()
}

// snapshot seals a copy of the table into the protocol's envelope.
func (t *tier[W]) snapshot() []byte {
	acc := t.clone()
	return t.c.SealTable(&acc)
}

// restore replaces the table with a snapshot envelope from the identical
// protocol fingerprint; a mismatched or corrupt envelope is refused and the
// running state is untouched.
func (t *tier[W]) restore(data []byte) error {
	restored, err := t.c.OpenTable(data)
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

// swap replaces the whole table with tab and returns the one it replaced.
// Holding mu across the exchange and the counter reset means concurrent
// ingestion is either fully before (handed out or wiped, and uncounted) or
// fully after (kept and counted) — never half of each. The generation is
// bumped before the total is stored (the estimate cache's version read
// order depends on it — see cache.go).
func (t *tier[W]) swap(tab state.Table) state.Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	old := t.acc
	t.gen.Add(1)
	t.acc = tab
	t.total.Store(tab.N)
	return old
}

// drain atomically empties the tier and returns the envelope of the table
// it took, with that table's report count. It is atomic: when the WAL
// cannot be moved past the drained state, the table is put back, nothing is
// handed out, and the error is returned — handing the state out anyway
// would let a restart replay (and the caller push) the same reports twice.
func (t *tier[W]) drain() ([]byte, int, error) {
	// ingestMu is held exclusively across the take AND the WAL roll+seal:
	// releasing it between them would let a concurrent background
	// compaction seal the post-drain state and prune the drained records,
	// after which the memory-only undo below could no longer claim "the
	// records are still in the log".
	t.ingestMu.Lock()
	defer t.ingestMu.Unlock()
	taken := t.swap(t.c.NewTable())
	if t.log != nil {
		empty := t.c.NewTable()
		if err := t.supersede(t.c.SealTable(&empty)); err != nil {
			// The drained records are still in the log (the seal that would
			// have superseded them failed), so put the state back in memory
			// only — a WAL append here would double them on replay. Every
			// writer holds ingestMu's reader side, so the empty table being
			// replaced is still empty.
			t.swap(taken)
			return nil, 0, fmt.Errorf("collect: %sdrain: %w", t.tag, err)
		}
	}
	return t.c.SealTable(&taken), int(taken.N), nil
}

// ---------------------------------------------------------------------------
// Federation merges.
// ---------------------------------------------------------------------------

// maxTierReports bounds the reports a tier may hold once a federation
// envelope is folded in: 2⁶², half what the int64 count can hold. An
// envelope that would take the tier past it is refused before it is logged,
// because one logged and then refused by Table.Merge's overflow check would
// fail every replay and the server could never restart. The check is safe
// against concurrent writers: it runs under mergeMu and ingestMu's reader
// side, so no other merge, restore or drain moves the total between the
// check and the fold. Only ingestion can, and the headroom the bound leaves
// (MaxInt64 − 2⁶² ≈ 4.6·10¹⁸ reports) would take over a century to fill at
// 10⁹ reports a second.
const maxTierReports = 1 << 62

// mergeDurable is the tier's half of MergeState: an envelope that opens
// under this tier's protocol is logged write-ahead and added into the
// table, returning the reports it contributed.
func (t *tier[W]) mergeDurable(env []byte) (int, error) {
	delta, err := t.c.OpenTable(env)
	if err != nil {
		return 0, err
	}
	if delta.N == 0 {
		return 0, nil
	}
	t.mergeMu.Lock()
	defer t.mergeMu.Unlock()
	t.ingestMu.RLock()
	if held := t.total.Load(); delta.N > maxTierReports-held {
		t.ingestMu.RUnlock()
		return 0, fmt.Errorf("collect: %senvelope of %d reports would take the tier's %d past %d",
			t.tag, delta.N, held, int64(maxTierReports))
	}
	if t.log != nil {
		if err := t.appendRecord(recEnvelope, env); err != nil {
			t.ingestMu.RUnlock()
			return 0, fmt.Errorf("%w: %swal append: %v", errNotDurable, t.tag, err)
		}
	}
	wait, err := t.mergeIn(&delta)
	t.ingestMu.RUnlock()
	if err != nil {
		return 0, err
	}
	t.lockWait.Observe(wait.Seconds())
	t.m.merged.Add(delta.N)
	t.maybeCompact()
	return int(delta.N), nil
}

// mergeIn adds delta into the table. Like apply, the total is stored under
// the lock so a swap cannot interleave between the merge and its count.
func (t *tier[W]) mergeIn(delta *state.Table) (time.Duration, error) {
	wait := t.lock()
	defer t.mu.Unlock()
	if err := t.acc.Merge(delta); err != nil {
		return wait, fmt.Errorf("collect: merge %sstate: %w", t.tag, err)
	}
	t.total.Store(t.acc.N)
	return wait, nil
}

// ---------------------------------------------------------------------------
// Write-ahead log.
// ---------------------------------------------------------------------------

// openWAL opens the tier's log under <dir>/sub and replays it into the
// (still unserved) table: the latest snapshot becomes the base state, the
// record tail is re-ingested on top — across the configured replay workers,
// since the records are commutative integer folds.
func (t *tier[W]) openWAL(s *Server, sub string) error {
	return t.open(s, sub, t.name, true,
		func() ([]byte, error) { return t.snapshot(), nil },
		func(snap []byte) error {
			tab, err := t.c.OpenTable(snap)
			if err != nil {
				return fmt.Errorf("collect: %swal snapshot does not match protocol %s: %w", t.tag, t.c.Name(), err)
			}
			t.swap(tab)
			return nil
		},
		t.replayRecord)
}

// replayRecord re-applies one WAL record. Records were validated before
// they were written, so a record that fails to decode means the log does
// not belong to this tier's protocol configuration — an operator error
// worth failing loudly on, not skipping.
func (t *tier[W]) replayRecord(rec []byte) error {
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
			t.apply(add)
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
		delta, err := t.c.OpenTable(rec[1:])
		if err != nil {
			return fmt.Errorf("collect: %swal envelope record: %w", t.tag, err)
		}
		_, err = t.mergeIn(&delta)
		return err
	default:
		return fmt.Errorf("collect: unknown %swal record type %#x", t.tag, rec[0])
	}
}
