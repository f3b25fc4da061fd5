package collect

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/topk"
)

// This file is the interactive mining tier: the collection server hosts
// top-k mining sessions, each a server-side topk.Planner driven round by
// round by untrusted clients. The protocol is the paper's iterative scheme
// made deployable: the server broadcasts a shrinking candidate space, each
// user group answers exactly one round, the round seals automatically when
// its quota of reports is in, and the final round yields the per-class
// rankings.
//
//	POST   /topk/sessions               create a session (topk.SessionParams)
//	GET    /topk/sessions/{id}          session info (attach/resume)
//	DELETE /topk/sessions/{id}          evict a session, freeing its slot
//	GET    /topk/sessions/{id}/round    live round broadcast (topk.RoundConfig)
//	POST   /topk/sessions/{id}/reports  batch of topk.RoundReports (JSON array
//	                                    or NDJSON; sealed rounds answer 410
//	                                    with the live round index)
//	GET    /topk/sessions/{id}/result   per-class rankings once done
//
// Sessions are deterministic functions of their params and the absorbed
// reports, so durability is the same write-ahead discipline as frequency
// ingestion: creates and accepted report batches are logged before they
// touch a planner, and compaction folds the log into one snapshot of every
// session's marshaled state (an internal/state envelope per session). A
// restarted server replays snapshot + tail and resumes mid-flight sessions
// to bit-identical results.
//
// Concurrency: a session is a planner behind one mutex. Rounds are
// interlocked — every report validates against and mutates the live round,
// and round t+1's candidate space is a function of round t's counts — so a
// session has no parallelism to offer beyond what can be done against the
// round's layout outside the lock. A report batch reads the round's layout
// pointer under the lock and re-locks to commit (commitRound) only if the
// pointer is still the live round's. In between, unlocked, a JSON batch is
// validated against that immutable layout, and a binary frame is folded
// into a pooled delta of it in one walk that validates, routes and VP-drops
// every record (topk.RoundPartial.AbsorbFrame), so its commit only merges
// the delta. Concurrent posters to one session therefore serialise on that
// merge (≈0.35 µs a frame) for binary frames, and on the report-by-report
// absorb for JSON; sessions are independent of each other.
//
// Lock order: hub.ingestMu → liveSession.mu → hub.mu.

// DefaultMaxTopKSessions caps concurrently tracked sessions (open and
// completed-but-unqueried); each holds candidate-space state proportional
// to its item domain.
const DefaultMaxTopKSessions = 64

// TopKOptions configures the interactive mining tier.
type TopKOptions struct {
	// MaxSessions caps tracked sessions; creates beyond it are answered
	// with 429. <1 means DefaultMaxTopKSessions.
	MaxSessions int
}

// WithTopKSessions enables the /topk/sessions endpoints. On a WAL-backed
// server (WithWAL) sessions get their own log under <dir>/topk with the
// same sync options, so in-flight sessions survive restarts.
func WithTopKSessions(o TopKOptions) ServerOption {
	return func(s *Server) {
		if o.MaxSessions < 1 {
			o.MaxSessions = DefaultMaxTopKSessions
		}
		s.topk = &sessionHub{
			sessions:    make(map[string]*liveSession),
			maxSessions: o.MaxSessions,
		}
	}
}

// liveSession is one hosted mining session. mu guards the planner and
// deleted; report handlers hold it from their quota arithmetic through their
// WAL append and absorb, which is what makes a round's WAL records precede
// its seal — and any deletion record — in log order.
type liveSession struct {
	mu sync.Mutex
	id string
	pl *topk.Planner
	// deleted marks a session evicted while a report handler already held
	// a reference: the handler must not append WAL records for it after
	// its deletion record (replay order would break).
	deleted bool
	// deltas pools the round partials binary frames are folded into outside
	// mu. Every partial in it is empty; one of a sealed round's layout is
	// dropped when it comes out.
	deltas sync.Pool
}

// delta returns an empty partial for the round of layout l.
func (sess *liveSession) delta(l *topk.RoundLayout) *topk.RoundPartial {
	if p, _ := sess.deltas.Get().(*topk.RoundPartial); p != nil && p.Layout() == l {
		return p
	}
	return topk.NewRoundPartial(l)
}

// ackLocked is an acknowledgement carrying the session's live position, for
// the handler to fill in what it accepted and rejected. Caller holds mu.
func (sess *liveSession) ackLocked() WireTopKAck {
	return WireTopKAck{Round: sess.pl.Round(), Received: sess.pl.Received(), Done: sess.pl.Done()}
}

// sessionHub owns the hosted sessions and, through the embedded durableLog,
// their write-ahead log.
type sessionHub struct {
	// durableLog.ingestMu orders session mutations (reader side: creates,
	// report batches) against whole-state transitions (writer side:
	// compaction), so a WAL append and its planner apply are atomic with
	// respect to the segment boundary a compaction snapshot covers.
	// Per-session locks nest inside it.
	durableLog

	mu       sync.Mutex // guards sessions, order, nextID, reserved
	sessions map[string]*liveSession
	order    []string // creation order, for deterministic stats and snapshots
	nextID   uint64
	reserved int // creates past the cap check but before install

	maxSessions int

	// m is the tier's ingest instrumentation; /stats reads its accepted-report
	// counters, so /stats and /metrics agree exactly (replay excluded).
	m      *tierMetrics
	rounds *obs.Counter // rounds sealed by live ingestion (replay excluded)
	stale  *obs.Counter // whole batches answered 410 Gone
}

// init resolves the hub against the server's options and registers its
// series. Called from NewServer before the WAL opens.
func (h *sessionHub) init(s *Server) {
	h.logger = s.logger.With("tier", "topk")
	h.m = newTierMetrics(s.obs, "topk")
	h.rounds = s.obs.Counter("mcim_topk_rounds_advanced_total",
		"Mining-session rounds sealed and advanced by report ingestion (WAL replay excluded).")
	h.stale = s.obs.Counter("mcim_topk_stale_batches_total",
		"Round-report batches rejected whole with 410 Gone because their round had sealed.")
	s.obs.GaugeFunc("mcim_topk_sessions",
		"Mining sessions currently tracked (open and completed-but-unqueried).",
		func() float64 { return float64(h.stats().Sessions) })
	s.obs.GaugeFunc("mcim_topk_open_sessions",
		"Mining sessions still mid-protocol.",
		func() float64 { return float64(h.stats().Open) })
}

// list returns the tracked sessions in creation order.
func (h *sessionHub) list() []*liveSession {
	h.mu.Lock()
	defer h.mu.Unlock()
	sessions := make([]*liveSession, len(h.order))
	for i, id := range h.order {
		sessions[i] = h.sessions[id]
	}
	return sessions
}

// Session WAL record types (first byte of every record).
const (
	// recSessionCreate frames a JSON wireSessionCreate.
	recSessionCreate = 'C'
	// recSessionReports frames a JSON wireSessionReports of accepted
	// round reports.
	recSessionReports = 'T'
	// recSessionDelete frames a JSON wireSessionDelete.
	recSessionDelete = 'D'
	// recSessionBinaryFrame frames an accepted binary round-report frame,
	// raw: the record is the session-tier MCBW frame exactly as it arrived
	// (self-addressed and CRC-sealed), re-validated on replay.
	recSessionBinaryFrame = 'W'
)

// wireSessionDelete is the WAL form of a session eviction.
type wireSessionDelete struct {
	ID string `json:"id"`
}

// wireSessionCreate is the WAL form of a session creation.
type wireSessionCreate struct {
	ID     string             `json:"id"`
	Params topk.SessionParams `json:"params"`
}

// wireSessionReports is the WAL form of an accepted report batch.
type wireSessionReports struct {
	ID      string             `json:"id"`
	Reports []topk.RoundReport `json:"reports"`
}

// hubFingerprint tags the hub's compaction snapshots.
const hubFingerprint = "mcim/topk-hub/v1"

// hubSnapshot is the gob payload of a hub compaction snapshot: every
// session's marshaled planner (itself an internal/state envelope), in
// creation order.
type hubSnapshot struct {
	NextID   uint64
	Sessions []hubSessionSnapshot
}

type hubSessionSnapshot struct {
	ID    string
	State []byte
}

// openWAL opens and replays the session log under <dir>/topk. Session
// rounds are ordered (absorb order is the round order), so this log is not
// commutative. Replay absorbs into the same planners the handlers then
// serve.
func (h *sessionHub) openWAL(s *Server) error {
	return h.open(s, "topk", "topk", false, h.marshalSessions, h.installSnapshot, h.replayRecord, nil)
}

// installSnapshot restores every session from a compaction snapshot.
func (h *sessionHub) installSnapshot(snap []byte) error {
	fp, payload, err := state.Decode(snap)
	if err != nil {
		return fmt.Errorf("collect: topk snapshot: %w", err)
	}
	if fp != hubFingerprint {
		return fmt.Errorf("collect: topk snapshot fingerprint %q, want %q", fp, hubFingerprint)
	}
	var hs hubSnapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&hs); err != nil {
		return fmt.Errorf("collect: topk snapshot: %w", err)
	}
	sessions := make(map[string]*liveSession, len(hs.Sessions))
	order := make([]string, 0, len(hs.Sessions))
	for _, ss := range hs.Sessions {
		pl, err := topk.UnmarshalSession(ss.State)
		if err != nil {
			return fmt.Errorf("collect: topk session %s: %w", ss.ID, err)
		}
		// A snapshot is never taken of a full round (the batch that fills one
		// seals it under the same lock), but nothing in its bytes says so,
		// and commitRound relies on a live round having room.
		advanceOnQuota(pl)
		sessions[ss.ID] = &liveSession{id: ss.ID, pl: pl}
		order = append(order, ss.ID)
	}
	h.sessions, h.order, h.nextID = sessions, order, hs.NextID
	return nil
}

// replayRecord re-applies one session WAL record. Records were validated
// before they were written, so a record that fails to apply means the log
// is foreign or damaged — fail loudly, do not skip.
func (h *sessionHub) replayRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("collect: empty topk wal record")
	}
	switch rec[0] {
	case recSessionCreate:
		var c wireSessionCreate
		if err := json.Unmarshal(rec[1:], &c); err != nil {
			return fmt.Errorf("collect: topk create record: %w", err)
		}
		if _, exists := h.sessions[c.ID]; exists {
			return fmt.Errorf("collect: topk create record for existing session %s", c.ID)
		}
		pl, err := topk.NewSession(c.Params)
		if err != nil {
			return fmt.Errorf("collect: topk create record: %w", err)
		}
		advanceEmptyRounds(pl)
		h.sessions[c.ID] = &liveSession{id: c.ID, pl: pl}
		h.order = append(h.order, c.ID)
		return nil
	case recSessionReports:
		var t wireSessionReports
		if err := json.Unmarshal(rec[1:], &t); err != nil {
			return fmt.Errorf("collect: topk reports record: %w", err)
		}
		sess, ok := h.sessions[t.ID]
		if !ok {
			return fmt.Errorf("collect: topk reports record for unknown session %s", t.ID)
		}
		for _, rep := range t.Reports {
			if err := sess.pl.Absorb(rep); err != nil {
				return fmt.Errorf("collect: topk reports record: %w", err)
			}
			advanceOnQuota(sess.pl)
		}
		return nil
	case recSessionBinaryFrame:
		// The record is the accepted frame verbatim: re-peek (CRC, header),
		// resolve the session it addresses itself to, and re-validate
		// against the live round before absorbing — a frame that no longer
		// applies means the log is foreign or damaged.
		f, err := topk.PeekRoundFrame(rec[1:])
		if err != nil {
			return fmt.Errorf("collect: topk binary record: %w", err)
		}
		sess, ok := h.sessions[string(f.SID)]
		if !ok {
			return fmt.Errorf("collect: topk binary record for unknown session %s", f.SID)
		}
		if err := sess.pl.AbsorbRoundFrame(f); err != nil {
			return fmt.Errorf("collect: topk binary record: %w", err)
		}
		advanceOnQuota(sess.pl)
		return nil
	case recSessionDelete:
		var d wireSessionDelete
		if err := json.Unmarshal(rec[1:], &d); err != nil {
			return fmt.Errorf("collect: topk delete record: %w", err)
		}
		if _, ok := h.sessions[d.ID]; !ok {
			return fmt.Errorf("collect: topk delete record for unknown session %s", d.ID)
		}
		h.removeLocked(d.ID)
		return nil
	default:
		return fmt.Errorf("collect: unknown topk wal record type %#x", rec[0])
	}
}

// advanceEmptyRounds advances past rounds with a zero quota (sessions
// planned for fewer users than rounds), which no report would ever seal.
func advanceEmptyRounds(pl *topk.Planner) {
	for !pl.Done() && pl.Quota() == 0 {
		if err := pl.Advance(); err != nil {
			return
		}
	}
}

// advanceOnQuota seals the live round once its quota is in, then skips any
// empty rounds behind it.
func advanceOnQuota(pl *topk.Planner) {
	if !pl.Done() && pl.Received() >= pl.Quota() {
		if err := pl.Advance(); err != nil {
			return
		}
		advanceEmptyRounds(pl)
	}
}

// marshalSessions is the hub's compaction snapshot: every session's planner
// — its live round's counts included — marshaled in creation order.
// durableLog.compact calls it with ingestMu held exclusively, so no create
// sits between claiming its id and installing its session, and no report is
// mid-apply.
func (h *sessionHub) marshalSessions() ([]byte, error) {
	hs := hubSnapshot{NextID: h.nextID}
	for _, sess := range h.list() {
		sess.mu.Lock()
		blob, err := sess.pl.MarshalBinary()
		sess.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("collect: marshal topk session %s: %w", sess.id, err)
		}
		hs.Sessions = append(hs.Sessions, hubSessionSnapshot{ID: sess.id, State: blob})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(hs); err != nil {
		return nil, err
	}
	return state.Encode(hubFingerprint, buf.Bytes()), nil
}

// lookup returns the session by id.
func (h *sessionHub) lookup(id string) (*liveSession, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sess, ok := h.sessions[id]
	return sess, ok
}

// removeLocked drops a session from the map and the creation order.
// Caller holds h.mu (or, during replay, has exclusive access).
func (h *sessionHub) removeLocked(id string) {
	delete(h.sessions, id)
	for i, o := range h.order {
		if o == id {
			h.order = append(h.order[:i], h.order[i+1:]...)
			break
		}
	}
}

// ---------------------------------------------------------------------------
// Wire types.
// ---------------------------------------------------------------------------

// WireTopKSessionInfo describes a hosted session: its normalized params,
// total round count, live position, and the report wire formats the server
// accepts on the reports endpoint.
type WireTopKSessionInfo struct {
	ID     string             `json:"id"`
	Params topk.SessionParams `json:"params"`
	Rounds int                `json:"rounds"`
	Round  int                `json:"round"`
	Done   bool               `json:"done"`
	Wire   []string           `json:"wire,omitempty"`
}

// WireTopKRound is the live round broadcast (or the done marker). Wire
// lists the report formats the server accepts, so clients negotiate the
// binary lane from the broadcast alone.
type WireTopKRound struct {
	Done     bool              `json:"done"`
	Received int               `json:"received"`
	Config   *topk.RoundConfig `json:"config,omitempty"`
	Wire     []string          `json:"wire,omitempty"`
}

// WireTopKAck acknowledges a round-report batch. Round and Received are
// the live position after processing, so clients learn immediately when
// their batch sealed the round. A batch rejected entirely because its
// round already sealed is answered with status 410 and this same body.
type WireTopKAck struct {
	Accepted        int             `json:"accepted"`
	Rejected        int             `json:"rejected"`
	Round           int             `json:"round"`
	Received        int             `json:"received"`
	Done            bool            `json:"done"`
	Errors          []WireItemError `json:"errors,omitempty"`
	ErrorsTruncated bool            `json:"errors_truncated,omitempty"`
}

// WireTopKStats is the /stats slice of the interactive mining tier.
type WireTopKStats struct {
	// Sessions counts tracked sessions; Open those still mid-protocol.
	Sessions int `json:"sessions"`
	Open     int `json:"open"`
	// ReportsJSON and ReportsBinary are accepted round reports by wire
	// format since startup (replay excluded) — the /stats twins of
	// mcim_ingest_reports_total{tier="topk"}.
	ReportsJSON   int64                 `json:"reports_json"`
	ReportsBinary int64                 `json:"reports_binary"`
	Detail        []WireTopKSessionStat `json:"detail,omitempty"`
	// WAL is present only on servers running with a write-ahead log.
	WAL *WireWALStats `json:"wal,omitempty"`
}

// WireTopKSessionStat is one session's live position.
type WireTopKSessionStat struct {
	ID        string `json:"id"`
	Framework string `json:"framework"`
	Round     int    `json:"round"`
	Rounds    int    `json:"rounds"`
	Received  int    `json:"received"`
	Quota     int    `json:"quota"`
	Done      bool   `json:"done"`
}

// stats snapshots every session's position in creation order.
func (h *sessionHub) stats() *WireTopKStats {
	sessions := h.list()
	st := &WireTopKStats{
		Sessions:      len(sessions),
		ReportsJSON:   h.m.reportsJSON.Value(),
		ReportsBinary: h.m.reportsBinary.Value(),
		WAL:           h.walStats(),
	}
	for _, sess := range sessions {
		sess.mu.Lock()
		pl := sess.pl
		stat := WireTopKSessionStat{
			ID:        sess.id,
			Framework: pl.Params().Framework,
			Round:     pl.Round(),
			Rounds:    pl.Rounds(),
			Received:  pl.Received(),
			Quota:     pl.Quota(),
			Done:      pl.Done(),
		}
		sess.mu.Unlock()
		if !stat.Done {
			st.Open++
		}
		st.Detail = append(st.Detail, stat)
	}
	return st
}

// ---------------------------------------------------------------------------
// Handlers.
// ---------------------------------------------------------------------------

func sessionInfo(id string, pl *topk.Planner) WireTopKSessionInfo {
	return WireTopKSessionInfo{
		ID:     id,
		Params: pl.Params(),
		Rounds: pl.Rounds(),
		Round:  pl.Round(),
		Done:   pl.Done(),
		Wire:   wireFormats(),
	}
}

// handleTopKCreate creates a session from a topk.SessionParams body.
func (s *Server) handleTopKCreate(w http.ResponseWriter, r *http.Request) {
	h := s.topk
	body, ok := readBody(w, r, s.maxBody)
	if !ok {
		return
	}
	var params topk.SessionParams
	if err := json.Unmarshal(body, &params); err != nil {
		http.Error(w, "decode session params: "+err.Error(), http.StatusBadRequest)
		return
	}
	pl, err := topk.NewSession(params)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// The session must be answerable over the wire: the client half has to
	// accept the broadcast (domain caps, joint-domain bounds). Catch it at
	// creation, not when the first client fails.
	if cfg := pl.Config(); cfg != nil {
		if _, err := topk.NewRoundEncoder(cfg); err != nil {
			http.Error(w, "session is not servable: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	advanceEmptyRounds(pl)

	h.ingestMu.RLock()
	defer h.ingestMu.RUnlock()
	// The cap check and the slot claim are one critical section (reserved
	// bridges the WAL-append gap below), so concurrent creates cannot
	// overshoot maxSessions. Completed sessions are evicted with DELETE,
	// which frees their slot.
	h.mu.Lock()
	if len(h.sessions)+h.reserved >= h.maxSessions {
		h.mu.Unlock()
		http.Error(w, fmt.Sprintf("collect: session limit %d reached (DELETE finished sessions to free slots)",
			h.maxSessions), http.StatusTooManyRequests)
		return
	}
	h.reserved++
	h.nextID++
	id := fmt.Sprintf("s%06d", h.nextID)
	h.mu.Unlock()
	if h.log != nil {
		rec, err := json.Marshal(wireSessionCreate{ID: id, Params: pl.Params()})
		if err == nil {
			err = h.appendRecord(recSessionCreate, rec)
		}
		if err != nil {
			h.mu.Lock()
			h.reserved--
			h.mu.Unlock()
			http.Error(w, "collect: wal append: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	h.mu.Lock()
	h.reserved--
	h.sessions[id] = &liveSession{id: id, pl: pl}
	h.order = append(h.order, id)
	h.mu.Unlock()
	writeJSON(w, sessionInfo(id, pl))
}

// handleTopKDelete evicts a session — the way finished (or abandoned)
// sessions release their slot under the MaxSessions cap. The eviction is
// write-ahead logged, so a restarted server does not resurrect it.
func (s *Server) handleTopKDelete(w http.ResponseWriter, r *http.Request) {
	h := s.topk
	sess, ok := s.topkSession(w, r)
	if !ok {
		return
	}
	h.ingestMu.RLock()
	defer h.ingestMu.RUnlock()
	// Report batches append their WAL records under the session lock, so
	// none for this session can land after its deletion record.
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.deleted {
		http.Error(w, fmt.Sprintf("collect: no session %q", sess.id), http.StatusNotFound)
		return
	}
	if h.log != nil {
		rec, err := json.Marshal(wireSessionDelete{ID: sess.id})
		if err == nil {
			err = h.appendRecord(recSessionDelete, rec)
		}
		if err != nil {
			http.Error(w, "collect: wal append: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	sess.deleted = true
	h.mu.Lock()
	h.removeLocked(sess.id)
	h.mu.Unlock()
	writeJSON(w, map[string]string{"deleted": sess.id})
}

// topkSession resolves the {id} path segment, answering 404 itself.
func (s *Server) topkSession(w http.ResponseWriter, r *http.Request) (*liveSession, bool) {
	id := r.PathValue("id")
	sess, ok := s.topk.lookup(id)
	if !ok {
		http.Error(w, fmt.Sprintf("collect: no session %q", id), http.StatusNotFound)
		return nil, false
	}
	return sess, true
}

// handleTopKInfo describes an existing session — what a client that only
// holds the id (e.g. resuming after a server restart) attaches through.
func (s *Server) handleTopKInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.topkSession(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	info := sessionInfo(sess.id, sess.pl)
	sess.mu.Unlock()
	writeJSON(w, info)
}

// handleTopKRound serves the live round broadcast.
func (s *Server) handleTopKRound(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.topkSession(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	out := WireTopKRound{
		Done:     sess.pl.Done(),
		Received: sess.pl.Received(),
		Config:   sess.pl.Config(),
		Wire:     wireFormats(),
	}
	sess.mu.Unlock()
	writeJSON(w, out)
}

// handleTopKResult serves the final rankings; 409 until the session is
// done (the body names the live round so clients know how far along it is).
func (s *Server) handleTopKResult(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.topkSession(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	res, err := sess.pl.Result()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, res)
}

// writeStaleAck answers a whole-batch 410 Gone: the body is the regular
// ack, whose round index tells the client what is live now.
func (h *sessionHub) writeStaleAck(w http.ResponseWriter, ack WireTopKAck) {
	h.stale.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusGone)
	json.NewEncoder(w).Encode(ack) //nolint:errcheck — best-effort error body
}

// liveRound reads what a report batch validates against — the live round's
// layout, nil once the session is done — together with the position a
// header-stale answer carries. It answers 404 itself for a session evicted
// since the lookup.
func (s *Server) liveRound(w http.ResponseWriter, sess *liveSession) (*topk.RoundLayout, WireTopKAck, bool) {
	sess.mu.Lock()
	layout, _ := sess.pl.Layout()
	deleted, ack := sess.deleted, sess.ackLocked()
	sess.mu.Unlock()
	if deleted {
		http.Error(w, fmt.Sprintf("collect: no session %q", sess.id), http.StatusNotFound)
		return nil, ack, false
	}
	return layout, ack, true
}

// roundBatch is a validated report batch on its way into a session's live
// round: what the two wires hand commitRound. A binary frame arrives
// already folded into a delta, so its absorb is the delta's merge.
type roundBatch struct {
	// layout is the round the batch was validated against (liveRound); nil
	// when the session was already done, and then n is 0.
	layout *topk.RoundLayout
	// n reports passed validation and ask for quota. whole marks a binary
	// frame, which takes all n or nothing; a JSON batch takes what fits.
	n     int
	whole bool
	// record renders the WAL record of the first take reports, absorb folds
	// those into the planner. Both run under the session lock, after the
	// quota and the rate limiter have said yes.
	record func(take int) (typ byte, payload []byte, err error)
	absorb func(pl *topk.Planner, take int) error
}

// commitRound is the one critical section of round ingestion, shared by
// both wires: if the round the batch was validated against is still live,
// it takes quota (plain arithmetic — the session lock is the only writer),
// draws from the server-wide rate bucket, logs the accepted reports
// write-ahead as one record, absorbs them (a binary frame's: merges its
// delta), seals the round if that filled it, and reads the position the ack
// carries. A batch whose round sealed in the meantime comes back with stale
// set — the error a report for that round would now be rejected with — and
// left no trace: not logged, not charged.
// Refusals are answered here and return ok false: 404 for a session evicted
// meanwhile, 409 for a frame larger than the round's remaining quota, 429
// from the rate limiter (resubmit after the hinted delay), 500 for a failed
// WAL append (charge refunded: the client's retry must not pay twice).
func (s *Server) commitRound(w http.ResponseWriter, sess *liveSession, b roundBatch) (take int, stale error, ack WireTopKAck, ok bool) {
	h := s.topk
	h.ingestMu.RLock()
	take, stale, ack, err := s.commitLocked(sess, b)
	h.ingestMu.RUnlock()
	if err != nil {
		var refused *statusError
		if errors.As(err, &refused) {
			http.Error(w, refused.msg, refused.Code)
		} else {
			h.m.observeIngestError(err, take)
			writeIngestError(w, err)
		}
		return 0, nil, ack, false
	}
	h.maybeCompact()
	return take, stale, ack, true
}

// commitLocked is commitRound under the session lock. Caller holds
// ingestMu.RLock.
func (s *Server) commitLocked(sess *liveSession, b roundBatch) (take int, stale error, ack WireTopKAck, err error) {
	h, pl := s.topk, sess.pl
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.deleted {
		// Evicted between lookup and lock: a report record appended now
		// would follow the deletion record on replay.
		return 0, nil, ack, &statusError{http.StatusNotFound, fmt.Sprintf("collect: no session %q", sess.id)}
	}
	if cur, _ := pl.Layout(); cur != b.layout {
		stale = topk.ErrSessionDone
		if !pl.Done() {
			stale = &topk.RoundMismatchError{Got: b.layout.Round, Live: pl.Round()}
		}
		return 0, stale, sess.ackLocked(), nil
	}
	room := pl.Quota() - pl.Received()
	take = min(b.n, room)
	if b.whole && take < b.n {
		// The frame is live but larger than the round's remaining quota; a
		// frame is all-or-nothing, so the client must resize it (the error
		// carries the live position).
		return 0, nil, ack, &statusError{http.StatusConflict, fmt.Sprintf(
			"collect: frame of %d reports exceeds the %d remaining in round %d", b.n, room, pl.Round())}
	}
	if err := s.limit.admit(take); err != nil {
		return take, nil, ack, err
	}
	if take > 0 {
		// Durability before application, so a crash replays exactly what
		// was acknowledged.
		if h.log != nil {
			typ, rec, err := b.record(take)
			if err == nil {
				err = h.appendRecord(typ, rec)
			}
			if err != nil {
				s.limit.refund(take)
				return take, nil, ack, fmt.Errorf("collect: wal append: %w", err)
			}
		}
		// Every report passed validation against the layout the planner
		// still holds, so this cannot fail.
		if err := b.absorb(pl, take); err != nil {
			return take, nil, ack, &statusError{http.StatusInternalServerError, "collect: absorb accepted report: " + err.Error()}
		}
		// Seal before acking, so the ack — and the 410 of whoever comes
		// next — carries the advanced round index.
		before := pl.Round()
		advanceOnQuota(pl)
		h.rounds.Add(int64(pl.Round() - before))
	}
	return take, nil, sess.ackLocked(), nil
}

// handleTopKReports ingests a batch of round reports — a JSON array or
// NDJSON under the same body cap and 413 behavior as /reports, or (by the
// BinaryContentType media type) one binary session frame. Reports land in
// the live round, which seals automatically when its quota is in — reports
// after the seal (in this batch or a later one) are rejected, and a batch
// rejected entirely for that reason is answered 410 Gone with the live
// round index.
func (s *Server) handleTopKReports(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h, m := s.topk, s.topk.m
	sess, ok := s.topkSession(w, r)
	if !ok {
		return
	}
	body, release, ok := readBodyPooled(w, r, s.maxBody, m)
	if !ok {
		return
	}
	defer release()
	m.bytes.Add(int64(len(body)))
	if isBinaryContentType(r.Header.Get("Content-Type")) {
		s.ingestTopKBinary(w, sess, body, start)
		return
	}
	items, itemErrs, droppedTail, err := decodeBatchItems[topk.RoundReport](body)
	if err != nil {
		m.rejectedDecode.Inc()
		http.Error(w, "decode batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	layout, _, ok := s.liveRound(w, sess)
	if !ok {
		return
	}
	// Classify against the layout, outside the lock. Acceptance is
	// order-dependent only through the quota, settled in the commit. at[i] is
	// accepted[i]'s position in the submitted batch, so a rejection decided
	// there can still be attributed.
	accepted := make([]topk.RoundReport, 0, len(items))
	at := make([]int, 0, len(items))
	staleRejects := 0
	for i, rep := range items {
		cerr := error(topk.ErrSessionDone)
		if layout != nil {
			cerr = layout.CheckReport(rep)
		}
		if cerr != nil {
			var rm *topk.RoundMismatchError
			if layout == nil || errors.As(cerr, &rm) {
				staleRejects++
			}
			itemErrs = append(itemErrs, WireItemError{Index: i, Error: cerr.Error()})
			continue
		}
		accepted, at = append(accepted, rep), append(at, i)
	}
	take, stale, ack, ok := s.commitRound(w, sess, roundBatch{
		layout: layout,
		n:      len(accepted),
		record: func(take int) (byte, []byte, error) {
			rec, err := json.Marshal(wireSessionReports{ID: sess.id, Reports: accepted[:take]})
			return recSessionReports, rec, err
		},
		absorb: func(pl *topk.Planner, take int) error {
			for _, rep := range accepted[:take] {
				if err := pl.Absorb(rep); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if !ok {
		return
	}
	// Everything past take was posting to a round this batch, or a
	// concurrent one, sealed.
	if stale == nil && take < len(at) {
		stale = fmt.Errorf("topk: round %d sealed by this batch", layout.Round)
	}
	for _, i := range at[take:] {
		staleRejects++
		itemErrs = append(itemErrs, WireItemError{Index: i, Error: stale.Error()})
	}
	ack.Accepted, ack.Rejected = take, len(itemErrs)+droppedTail

	m.batchesJSON.Inc()
	m.reportsJSON.Add(int64(take))
	m.rejectedItem.Add(int64(ack.Rejected))
	// Decided on the full error list: the ack carries at most
	// maxBatchErrors of it.
	wholeStale := take == 0 && len(items) > 0 && staleRejects == len(itemErrs)
	if len(itemErrs) > maxBatchErrors {
		itemErrs = itemErrs[:maxBatchErrors]
		ack.ErrorsTruncated = true
	}
	ack.Errors = itemErrs
	if wholeStale {
		h.writeStaleAck(w, ack)
		return
	}
	writeJSON(w, ack)
	m.latency.Observe(time.Since(start).Seconds())
}

// ingestTopKBinary ingests one binary session frame ('T' tier, see
// internal/topk/binwire.go): peek answers addressing and staleness from
// the header alone; outside the session lock, one walk validates every
// record against the live round's layout and, once all have passed, the
// packed bit-vectors are summed by column into a pooled delta without ever
// materializing report structs; the commit takes the whole frame or
// nothing, logs the raw frame bytes write-ahead, and merges the delta into
// the round's counts. body is the pooled request body (already counted into
// the byte series); the caller's deferred release reclaims it.
func (s *Server) ingestTopKBinary(w http.ResponseWriter, sess *liveSession, body []byte, start time.Time) {
	m := s.topk.m
	f, err := topk.PeekRoundFrame(body)
	if err != nil {
		m.rejectedDecode.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if string(f.SID) != sess.id {
		m.rejectedDecode.Inc()
		http.Error(w, fmt.Sprintf("collect: frame addresses session %q, posted to %q", f.SID, sess.id),
			http.StatusBadRequest)
		return
	}
	layout, ack, ok := s.liveRound(w, sess)
	if !ok {
		return
	}
	if layout == nil || f.Round != layout.Round {
		// Stale (or done) by the header alone — the records were never
		// decoded. The ack names the live round.
		s.staleFrame(w, f.Count, ack)
		return
	}
	delta := sess.delta(layout)
	if err := delta.AbsorbFrame(f); err != nil {
		sess.deltas.Put(delta) // a rejected frame left it empty
		m.rejectedDecode.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.commitTopKFrame(w, sess, delta, f.Count, body, start)
}

// staleFrame answers a frame whose round is no longer live: 410, every
// record rejected, the live position in the body.
func (s *Server) staleFrame(w http.ResponseWriter, count int, ack WireTopKAck) {
	s.topk.m.rejectedItem.Add(int64(count))
	ack.Rejected = count
	s.topk.writeStaleAck(w, ack)
}

// commitTopKFrame commits a frame of count reports, folded into delta
// against the delta's layout, and answers it. The round may have sealed
// since the fold: the commit notices (the layout pointer moved) and the
// frame is answered like any other stale one.
func (s *Server) commitTopKFrame(w http.ResponseWriter, sess *liveSession, delta *topk.RoundPartial,
	count int, body []byte, start time.Time) {
	m := s.topk.m
	take, stale, ack, ok := s.commitDelta(w, sess, delta, count, body)
	if !ok {
		return
	}
	if stale != nil {
		s.staleFrame(w, count, ack)
		return
	}
	ack.Accepted = take
	m.batchesBinary.Inc()
	m.reportsBinary.Add(int64(take))
	writeJSON(w, ack)
	m.latency.Observe(time.Since(start).Seconds())
}

// commitDelta is commitRound for a frame folded into delta: the raw frame is
// logged, and the delta merged into the live round is all the work done
// under the session lock. A merged delta is empty again and goes back to
// the session's pool; one the commit refused is dropped.
func (s *Server) commitDelta(w http.ResponseWriter, sess *liveSession, delta *topk.RoundPartial,
	count int, body []byte) (take int, stale error, ack WireTopKAck, ok bool) {
	take, stale, ack, ok = s.commitRound(w, sess, roundBatch{
		layout: delta.Layout(),
		n:      count,
		whole:  true,
		// The accepted frame is logged raw — no re-encode, and replay
		// re-folds the same bytes.
		record: func(int) (byte, []byte, error) { return recSessionBinaryFrame, body, nil },
		absorb: func(pl *topk.Planner, _ int) error { return pl.MergePartial(delta) },
	})
	if delta.Received() == 0 {
		sess.deltas.Put(delta)
	}
	return take, stale, ack, ok
}

// ---------------------------------------------------------------------------
// Client half.
// ---------------------------------------------------------------------------

// TopKSession is the client handle for one hosted mining session: create
// it (NewTopKSession), then per round fetch the broadcast, encode each
// user's pair locally with topk.NewRoundEncoder — raw pairs never leave
// the process — and post the reports.
type TopKSession struct {
	base string
	http *http.Client
	info WireTopKSessionInfo
}

// NewTopKSession creates a session on the server at baseURL.
func NewTopKSession(baseURL string, hc *http.Client, params topk.SessionParams) (*TopKSession, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	body, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Post(baseURL+"/topk/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("collect: create session: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("collect: create session status %s", resp.Status)
	}
	var info WireTopKSessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("collect: decode session info: %w", err)
	}
	return &TopKSession{base: baseURL, http: hc, info: info}, nil
}

// OpenTopKSession attaches to an existing session by id — how a client
// resumes driving a session a restarted server recovered from its WAL.
func OpenTopKSession(baseURL string, hc *http.Client, id string) (*TopKSession, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	ts := &TopKSession{base: baseURL, http: hc, info: WireTopKSessionInfo{ID: id}}
	if err := ts.get("", &ts.info); err != nil {
		return nil, err
	}
	return ts, nil
}

// Info returns the creation response (normalized params, round count).
func (ts *TopKSession) Info() WireTopKSessionInfo { return ts.info }

// ID returns the server-assigned session id.
func (ts *TopKSession) ID() string { return ts.info.ID }

func (ts *TopKSession) get(path string, out any) error {
	resp, err := ts.http.Get(ts.base + "/topk/sessions/" + ts.info.ID + path)
	if err != nil {
		return fmt.Errorf("collect: session %s: %w", ts.info.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &statusError{resp.StatusCode, fmt.Sprintf("collect: session %s%s status %s", ts.info.ID, path, resp.Status)}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Round fetches the live round broadcast.
func (ts *TopKSession) Round() (*WireTopKRound, error) {
	var out WireTopKRound
	if err := ts.get("/round", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PostReports ships one batch of round reports. A batch the server
// answers 410 (the round sealed while the batch was in flight) comes back
// as an error carrying that status (see StatusCode) plus the ack naming
// the live round.
func (ts *TopKSession) PostReports(reps []topk.RoundReport) (*WireTopKAck, error) {
	body, err := json.Marshal(reps)
	if err != nil {
		return nil, err
	}
	return ts.postReports("application/json", body)
}

// postReports posts one encoded batch and decodes its acknowledgement.
func (ts *TopKSession) postReports(contentType string, body []byte) (*WireTopKAck, error) {
	resp, err := ts.http.Post(ts.base+"/topk/sessions/"+ts.info.ID+"/reports", contentType, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("collect: session %s reports: %w", ts.info.ID, err)
	}
	defer resp.Body.Close()
	var ack WireTopKAck
	decodeErr := json.NewDecoder(resp.Body).Decode(&ack)
	if resp.StatusCode != http.StatusOK {
		err := &statusError{resp.StatusCode, fmt.Sprintf("collect: session %s reports status %s", ts.info.ID, resp.Status)}
		if resp.StatusCode == http.StatusGone && decodeErr == nil {
			return &ack, err
		}
		return nil, err
	}
	if decodeErr != nil {
		return nil, fmt.Errorf("collect: decode reports ack: %w", decodeErr)
	}
	return &ack, nil
}

// PostReportsBinary ships one batch of round reports as a binary session
// frame ('T' tier): the reports are validated locally against the round
// broadcast's layout, packed into one CRC-sealed frame from a pooled
// buffer, and applied server-side all-or-nothing. It refuses to run
// against a server that does not advertise "binary" in the session's wire
// formats. The 410 contract matches PostReports: a sealed round comes back
// as a status-carrying error plus the ack naming the live round.
func (ts *TopKSession) PostReportsBinary(cfg *topk.RoundConfig, reps []topk.RoundReport) (*WireTopKAck, error) {
	if !wireSupports(ts.info.Wire, "binary") {
		return nil, fmt.Errorf("collect: session %s: server does not advertise binary round reports (wire %v)",
			ts.info.ID, ts.info.Wire)
	}
	layout, err := topk.LayoutOf(cfg)
	if err != nil {
		return nil, err
	}
	bufp := encodeBufPool.Get().(*[]byte)
	frame, err := topk.AppendRoundFrame((*bufp)[:0], ts.info.ID, layout, reps)
	if err != nil {
		encodeBufPool.Put(bufp)
		return nil, err
	}
	*bufp = frame[:0]
	defer encodeBufPool.Put(bufp)
	return ts.postReports(BinaryContentType, frame)
}

// Result fetches the final per-class rankings; it errors (with a 409
// status, see StatusCode) while the session is still mid-protocol.
func (ts *TopKSession) Result() (*topk.Result, error) {
	var out topk.Result
	if err := ts.get("/result", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete evicts the session server-side, freeing its slot under the
// server's session cap. Call it after Result.
func (ts *TopKSession) Delete() error {
	req, err := http.NewRequest(http.MethodDelete, ts.base+"/topk/sessions/"+ts.info.ID, nil)
	if err != nil {
		return err
	}
	resp, err := ts.http.Do(req)
	if err != nil {
		return fmt.Errorf("collect: delete session %s: %w", ts.info.ID, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for connection reuse
	if resp.StatusCode != http.StatusOK {
		return &statusError{resp.StatusCode, fmt.Sprintf("collect: delete session %s status %s", ts.info.ID, resp.Status)}
	}
	return nil
}
