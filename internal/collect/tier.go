package collect

import (
	"encoding/json"
	"errors"
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
// HTTP endpoints. A large write is a table delta: a batch or frame folds
// into a pooled table of its own and commit logs the delta and adds it in
// (Table.Merge), and a federation envelope is checked and added straight
// from its bytes (Table.MergeChecked); a small write is logged raw and
// folded straight into the table (see small). Every whole-state operation
// is a table operation too: a read copies the table (Table.Clone), and
// snapshot, restore, drain and WAL replay move the table through the
// protocol's fingerprinted envelope. tier[W] is instantiated
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
	// AppendTable appends a table's fingerprinted envelope to dst;
	// CheckEnvelope is its validating inverse, and the one place the
	// protocol check lives: another protocol's envelope is
	// core.ErrIncompatibleState, a corrupt envelope or an impossible table a
	// plain error. OpenTableInto is CheckEnvelope into a table.
	AppendTable(dst []byte, t *state.Table) []byte
	CheckEnvelope(env []byte) (state.CheckedTable, error)
	OpenTableInto(dst *state.Table, env []byte) error
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
	// appendEstimates appends the tier's /estimates body for a copy of the
	// table to dst (see render.go).
	appendEstimates(dst []byte, t *state.Table) ([]byte, error)
}

// tier is one report tier's whole server-side state: one table of integer
// counts behind one mutex. JSON decode, validation and the WAL append
// happen before the lock. A large write also folds into a delta table and
// is sealed before it, so the lock's work is Table.Merge of the delta, one
// add per cell (a checked envelope's MergeChecked, for a /merge or a
// replayed 'E' record); a small write's fold is the lock's work instead, as
// cheap as its few reports (see small). A read copies the table under it and
// calibrates and renders outside it.
// The embedded durableLog's ingestMu orders writes (reader side) against
// whole-state transitions — restore, drain, compaction (writer side) — so
// a WAL append and its merge are atomic with respect to the segment
// boundary a compaction snapshot covers.
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
	// their add (see maxTierReports).
	mergeMu sync.Mutex
	// cells is acc's cell count; deltas pools the *delta tables and
	// buffers of large writes.
	cells  int
	deltas sync.Pool

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
	t.cells = len(t.acc.Cells)
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
	if err := t.ingest(accepted, add, len(body)); err != nil {
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
	if err := t.ingest(accepted, add, len(body)); err != nil {
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
// logged and added in — so a 400 frame provably left no trace, and the WAL
// only ever holds records that replay cleanly.
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
	// The ack is far below net/http's response buffer, so the server frames
	// it by length itself; setting Content-Length by hand, as
	// writeJSONBody does, measured ≈5 % more server CPU on small frames.
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendBinaryAck(make([]byte, 0, 80), count, t.reports()))
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
	body, err := t.c.appendEstimates(nil, &acc)
	return body, cacheVersion{gen: gen, total: acc.N}, err
}

// ---------------------------------------------------------------------------
// Ingestion.
// ---------------------------------------------------------------------------

// ingest admits a batch of accepted reports against the rate limiter and
// writes them; size is the request body's length. The batch's raw record,
// should the log take it, is the wire forms as a JSON array.
func (t *tier[W]) ingest(wires []W, add func(*state.Table), size int) error {
	n := len(wires)
	if n == 0 {
		return nil
	}
	if err := t.limit.admit(n); err != nil {
		return err
	}
	var raw []byte
	if t.log != nil {
		var err error
		if raw, err = json.Marshal(wires); err != nil {
			return t.refund(n, fmt.Errorf("collect: %swal batch record: %w", t.tag, err))
		}
	}
	return t.refund(n, t.write(int64(n), recBatch, raw, size, add))
}

// ingestBinary is ingest for a binary frame and the proof of its
// validation; the raw record is the frame itself.
func (t *tier[W]) ingestBinary(frame []byte, f core.CheckedFrame) error {
	n := f.Count()
	if err := t.limit.admit(n); err != nil {
		return err
	}
	return t.refund(n, t.write(int64(n), recBinaryBatch, frame, len(frame),
		func(tab *state.Table) { t.c.FoldChecked(tab, f) }))
}

// refund returns the rate limiter's charge for n admitted reports when err
// says they were not applied. The client is told to retry (or, out of
// headroom, that it cannot), so its own retries would otherwise pay for the
// same reports again on every attempt and turn a disk hiccup into 429s.
func (t *tier[W]) refund(n int, err error) error {
	if err != nil {
		t.limit.refund(n)
	}
	return err
}

// small reports whether a write whose request body is size bytes long is
// folded straight into the table under mu instead of into a delta. A sealed delta costs at least a byte a cell, so such a write is
// logged raw whatever its path, and its fold — O(its reports) — is cheaper
// under the lock than emptying and merging a whole table. At ptscp's c = 5,
// d = 1,000 (5,005 cells, 129 bytes a report) a frame of up to 38 reports
// and a JSON batch of about four are small; every benchmark write is large
// (512- and 4,096-report frames).
func (t *tier[W]) small(size int) bool { return size <= t.cells }

// write commits n reports that add folds into a table: under mu straight
// into the table when the write is small, else into a pooled delta outside
// every lock.
func (t *tier[W]) write(n int64, typ byte, raw []byte, size int, add func(*state.Table)) error {
	if t.small(size) {
		return t.commit(n, typ, raw, nil, func(acc *state.Table) error {
			add(acc)
			return nil
		})
	}
	d := t.getDelta()
	defer t.deltas.Put(d)
	add(&d.tab)
	return t.commit(n, typ, raw, d, func(acc *state.Table) error { return acc.Merge(&d.tab) })
}

// delta is one large write in flight: the table it folds into outside
// every lock, and the buffer its sealed envelope is appended to.
type delta struct {
	tab state.Table
	env []byte
}

// getDelta returns an empty pooled delta of the tier's shape.
func (t *tier[W]) getDelta() *delta {
	d, _ := t.deltas.Get().(*delta)
	if d == nil {
		return &delta{tab: t.c.NewTable()}
	}
	d.tab.Reset(d.tab.Shape)
	return d
}

// errNoHeadroom marks a write refused by the maxTierReports bound. Nothing
// was logged or applied; retrying cannot help, so it answers 400.
var errNoHeadroom = errors.New("collect: no headroom")

// commit is the one way a served write of n reports reaches the table: a
// headroom check (maxTierReports), then write-ahead logging, then add under
// mu. A large write arrives as the delta d, and add is Table.Merge of it,
// O(cells); the log takes the delta sealed as an 'E' record when that is
// smaller than the raw record the write came from (typ, raw), and raw
// otherwise. A small write (d nil) is logged raw and add folds it. An
// envelope (typ recEnvelope, d nil) is already a delta: it is logged as it
// came and add is its checked add. A refused or unlogged write left no
// trace, so the caller may retry it.
func (t *tier[W]) commit(n int64, typ byte, raw []byte, d *delta, add func(*state.Table) error) error {
	t.ingestMu.RLock()
	if held := t.total.Load(); n > maxTierReports-held {
		t.ingestMu.RUnlock()
		return fmt.Errorf("%w: %d reports would take the %stier's %d past %d",
			errNoHeadroom, n, t.tag, held, int64(maxTierReports))
	}
	if t.log != nil {
		if err := t.logWrite(d, typ, raw); err != nil {
			t.ingestMu.RUnlock()
			return fmt.Errorf("%w: %swal append: %v", errNotDurable, t.tag, err)
		}
	}
	wait, err := t.addIn(add)
	t.ingestMu.RUnlock()
	if err != nil {
		return err
	}
	t.lockWait.Observe(wait.Seconds())
	t.maybeCompact()
	return nil
}

// logWrite appends commit's record. Raw input no longer than the cell
// count is logged without sealing.
func (t *tier[W]) logWrite(d *delta, typ byte, raw []byte) error {
	logged := t.m.loggedRaw(typ)
	if d != nil && len(raw) > t.cells {
		if d.env = t.c.AppendTable(d.env[:0], &d.tab); len(d.env) < len(raw) {
			typ, raw, logged = recEnvelope, d.env, t.m.loggedDelta
		}
	}
	if err := t.appendRecord(typ, raw); err != nil {
		return err
	}
	logged.Inc()
	return nil
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

// addIn runs add on the table under mu: a delta's merge, an envelope's
// checked add or a small write's fold. The total is stored under the lock,
// so a swap cannot interleave between a write and its count.
func (t *tier[W]) addIn(add func(*state.Table) error) (time.Duration, error) {
	wait := t.lock()
	defer t.mu.Unlock()
	if err := add(&t.acc); err != nil {
		return wait, fmt.Errorf("collect: merge %sstate: %w", t.tag, err)
	}
	t.total.Store(t.acc.N)
	return wait, nil
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
	return t.c.AppendTable(nil, &acc)
}

// restore replaces the table with a snapshot envelope from the identical
// protocol fingerprint; a mismatched or corrupt envelope is refused and the
// running state is untouched.
func (t *tier[W]) restore(data []byte) error {
	var restored state.Table
	if err := t.c.OpenTableInto(&restored, data); err != nil {
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
		if err := t.supersede(t.c.AppendTable(nil, &empty)); err != nil {
			// The drained records are still in the log (the seal that would
			// have superseded them failed), so put the state back in memory
			// only — a WAL append here would double them on replay. Every
			// writer holds ingestMu's reader side, so the empty table being
			// replaced is still empty.
			t.swap(taken)
			return nil, 0, fmt.Errorf("collect: %sdrain: %w", t.tag, err)
		}
	}
	return t.c.AppendTable(nil, &taken), int(taken.N), nil
}

// ---------------------------------------------------------------------------
// Federation merges.
// ---------------------------------------------------------------------------

// maxTierReports bounds the reports a tier may hold once a write is added
// in: 2⁶², half what the int64 count can hold. commit refuses a write that
// would take the tier past it before it is logged, because a record logged
// and then refused by Table.Merge's overflow check would fail every replay
// and the server could never restart. The check runs under ingestMu's
// reader side, so no restore or drain moves the total between the check
// and the add; merges also hold mergeMu, so no other envelope does. Frames
// and batches can, but each carries at most a body's worth of reports, and
// the headroom the bound leaves (MaxInt64 − 2⁶² ≈ 4.6·10¹⁸ reports) would
// take over a century to fill at 10⁹ reports a second.
const maxTierReports = 1 << 62

// mergeDurable is the tier's half of MergeState: an envelope that checks
// under this tier's protocol is committed like any other delta, added
// straight from its bytes, returning the reports it contributed.
func (t *tier[W]) mergeDurable(env []byte) (int, error) {
	c, err := t.c.CheckEnvelope(env)
	if err != nil {
		return 0, err
	}
	if c.N() == 0 {
		return 0, nil
	}
	t.mergeMu.Lock()
	err = t.commit(c.N(), recEnvelope, env, nil, func(acc *state.Table) error { return acc.MergeChecked(c) })
	t.mergeMu.Unlock()
	if err != nil {
		return 0, err
	}
	t.m.merged.Add(c.N())
	return int(c.N()), nil
}

// ---------------------------------------------------------------------------
// Write-ahead log.
// ---------------------------------------------------------------------------

// openWAL opens the tier's log under <dir>/sub and replays it into the
// (still unserved) table: the latest snapshot becomes the base state, the
// record tail is re-ingested on top.
func (t *tier[W]) openWAL(s *Server, sub string) error {
	return t.open(s, sub, t.name, true,
		func() ([]byte, error) { return t.snapshot(), nil },
		func(snap []byte) error {
			var tab state.Table
			if err := t.c.OpenTableInto(&tab, snap); err != nil {
				return fmt.Errorf("collect: %swal snapshot does not match protocol %s: %w", t.tag, t.c.Name(), err)
			}
			t.swap(tab)
			return nil
		},
		t.replayRecord)
}

// replayRecord adds the reports one WAL record logged into the table: an
// envelope is checked and added straight from the record's bytes, a raw
// record is folded straight in whatever its size. The live write path's
// delta exists to shorten lock holds under concurrent writers, and replay
// runs before the handler is served, so nothing waits on mu. Records were
// validated before they were written, so a record that fails to decode
// means the log does not belong to this tier's protocol configuration — an
// operator error worth failing loudly on, not skipping.
func (t *tier[W]) replayRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("collect: empty %swal record", t.tag)
	}
	var add func(*state.Table) error
	switch rec[0] {
	case recBatch:
		var wires []W
		if err := json.Unmarshal(rec[1:], &wires); err != nil {
			return fmt.Errorf("collect: %swal batch record: %w", t.tag, err)
		}
		_, fold, rejected := t.c.decode(wires)
		if len(rejected) > 0 {
			return fmt.Errorf("collect: %swal batch record does not match protocol %s: %s", t.tag, t.c.Name(), rejected[0].Error)
		}
		add = func(acc *state.Table) error { fold(acc); return nil }
	case recBinaryBatch:
		f, err := t.c.validateBinary(rec[1:])
		if err != nil {
			return fmt.Errorf("collect: %swal binary batch record does not match protocol %s: %w", t.tag, t.c.Name(), err)
		}
		add = func(acc *state.Table) error { t.c.FoldChecked(acc, f); return nil }
	case recEnvelope:
		c, err := t.c.CheckEnvelope(rec[1:])
		if err != nil {
			return fmt.Errorf("collect: %swal envelope record: %w", t.tag, err)
		}
		add = func(acc *state.Table) error { return acc.MergeChecked(c) }
	default:
		return fmt.Errorf("collect: unknown %swal record type %#x", t.tag, rec[0])
	}
	_, err := t.addIn(add)
	return err
}
