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
	"sync/atomic"
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

// liveSession is one hosted mining session. Two locks split its state by
// lifetime: mu serializes planner access (round seals, snapshots, the
// done-state reads), while roundMu guards the lane pointer — the live
// round's shared ingest state. Rounds are interlocked (every report both
// validates against and mutates the live round), but within one round
// absorption is associative, so report batches only take roundMu.RLock plus
// one shard lock and never touch the planner; the seal takes roundMu.Lock,
// waits out in-flight batches, and merges the shards exactly once.
//
// Lock order: hub.ingestMu → roundMu → hub.mu → mu. position() and the
// seal take roundMu before mu; nothing takes them in the other order.
type liveSession struct {
	mu sync.Mutex
	id string
	pl *topk.Planner

	// roundMu guards lane and deleted. Report handlers hold the read side
	// from the lane lookup through their WAL append and shard apply, which
	// is what makes a round's WAL records precede its seal — and any
	// deletion record — in log order.
	roundMu sync.RWMutex
	// lane is the live round's ingest lane; nil once the session is done.
	lane *topkLane
	// deleted marks a session evicted while a report handler already held
	// a reference: the handler must not append WAL records for it after
	// its deletion record (replay order would break).
	deleted bool
}

// topkLane is one round's shared ingest state: the layout snapshot reports
// validate against without the planner, the remaining-quota gate, and the
// shard partials they absorb into. A lane is immutable except through its
// atomics and shard locks, and is replaced wholesale at the seal.
type topkLane struct {
	round  int
	quota  int
	layout *topk.RoundLayout

	// remaining is the round's unreserved quota. Reservations are taken
	// before the WAL append (and returned on its failure), so the round
	// never over-admits: whoever drives it to zero triggers the seal.
	remaining atomic.Int64
	// next round-robins batches over the shards.
	next   atomic.Uint64
	shards []*topkShard
}

// topkShard is one absorb shard: a partial aggregate behind its own lock,
// so concurrent batches on one session contend 1/shardN of the time.
type topkShard struct {
	mu   sync.Mutex
	part *topk.RoundPartial
}

// reserveUpTo takes up to n reports of the remaining quota and returns how
// many it got — the JSON path's reservation, where a batch's tail past the
// seal is rejected per item.
func (l *topkLane) reserveUpTo(n int64) int64 {
	for {
		r := l.remaining.Load()
		take := min(r, n)
		if take <= 0 {
			return 0
		}
		if l.remaining.CompareAndSwap(r, r-take) {
			return take
		}
	}
}

// reserveExact takes exactly n or nothing — the binary path's reservation,
// where a frame applies whole or not at all.
func (l *topkLane) reserveExact(n int64) bool {
	for {
		r := l.remaining.Load()
		if r < n {
			return false
		}
		if l.remaining.CompareAndSwap(r, r-n) {
			return true
		}
	}
}

// unreserve returns a failed reservation (admission or WAL append refused
// the reports after the quota was taken).
func (l *topkLane) unreserve(n int64) { l.remaining.Add(n) }

// installLane builds the live round's lane from the planner, or clears it
// once the session is done. Caller holds roundMu exclusively and mu (or has
// exclusive access during startup), with the planner advanced past any
// empty rounds first.
func (sess *liveSession) installLane(shardN int) {
	layout, ok := sess.pl.Layout()
	if !ok {
		sess.lane = nil
		return
	}
	lane := &topkLane{round: layout.Round, quota: sess.pl.Quota(), layout: layout}
	// A snapshot-restored session resumes mid-round: the lane starts with
	// the quota that is actually still unfilled.
	lane.remaining.Store(int64(max0(lane.quota - sess.pl.Received())))
	lane.shards = make([]*topkShard, shardN)
	for i := range lane.shards {
		lane.shards[i] = &topkShard{part: topk.NewRoundPartial(layout)}
	}
	sess.lane = lane
}

// position snapshots the session's live coordinates for acks, broadcasts
// and stats. Mid-round the lane is ahead of the planner (reports rest in
// shard partials until the seal), so its reservation count is the received
// figure clients should see. Caller must not hold roundMu or mu.
func (sess *liveSession) position() (round, received, quota int, done bool) {
	sess.roundMu.RLock()
	lane := sess.lane
	sess.roundMu.RUnlock()
	sess.mu.Lock()
	round, received, quota, done = sess.pl.Round(), sess.pl.Received(), sess.pl.Quota(), sess.pl.Done()
	sess.mu.Unlock()
	if lane != nil && lane.round == round {
		quota = lane.quota
		received = lane.quota - int(lane.remaining.Load())
	}
	return round, received, quota, done
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
	shardN      int // absorb shards per session lane (the server's shard count)

	// Accepted-report totals by wire format, advanced at the same handler
	// sites as the mcim_ingest_reports_total series so /stats and /metrics
	// agree exactly (replay excluded).
	reportsJSON   atomic.Int64
	reportsBinary atomic.Int64

	rounds *obs.Counter // rounds sealed by live ingestion (replay excluded)
	stale  *obs.Counter // whole batches answered 410 Gone
}

// init resolves the hub against the server's options and registers its
// series. Called from NewServer before the WAL opens.
func (h *sessionHub) init(s *Server) {
	// Session rounds absorb through per-session shard lanes sized like the
	// report tiers' aggregator shards.
	h.shardN = max(1, s.shardN)
	h.logger = s.logger.With("tier", "topk")
	s.topkM = newTierMetrics(s.obs, "topk")
	h.rounds = s.obs.Counter("mcim_topk_rounds_advanced_total",
		"Mining-session rounds sealed and advanced by report ingestion (WAL replay excluded).")
	h.stale = s.obs.Counter("mcim_topk_stale_batches_total",
		"Round-report batches rejected whole with 410 Gone because their round had sealed.")
	s.obs.GaugeFunc("mcim_topk_sessions",
		"Mining sessions currently tracked (open and completed-but-unqueried).",
		func() float64 { n, _ := h.counts(); return float64(n) })
	s.obs.GaugeFunc("mcim_topk_open_sessions",
		"Mining sessions still mid-protocol.",
		func() float64 { _, open := h.counts(); return float64(open) })
}

// counts snapshots the tracked-session totals for the gauges: every session
// currently in the map, and the subset still mid-protocol.
func (h *sessionHub) counts() (total, open int) {
	h.mu.Lock()
	sessions := make([]*liveSession, 0, len(h.sessions))
	for _, sess := range h.sessions {
		sessions = append(sessions, sess)
	}
	h.mu.Unlock()
	for _, sess := range sessions {
		sess.mu.Lock()
		done := sess.pl.Done()
		sess.mu.Unlock()
		if !done {
			open++
		}
	}
	return len(sessions), open
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
// rounds are ordered (absorb order is the round order), so this log always
// replays sequentially regardless of WithWALReplayWorkers.
func (h *sessionHub) openWAL(s *Server) error {
	if err := h.open(s, "topk", "topk", false, h.marshalSessions, h.installSnapshot, h.replayRecord); err != nil {
		return err
	}
	// Replay applied reports straight into the planners (single writer, no
	// lanes); stand up the live rounds' ingest lanes now, before handlers
	// run.
	for _, sess := range h.sessions {
		advanceOnQuota(sess.pl)
		sess.installLane(h.shardN)
	}
	return nil
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

// sealSession seals the session's live round if its quota is fully in:
// waits out in-flight report batches (roundMu write side), merges every
// shard partial into the planner, advances it, and installs the next
// round's lane. Any handler that observes remaining == 0 calls this — the
// batch that took the last reservation and any batch that lost the race to
// it — and exactly one performs the work: latecomers find either a live
// lane with quota left or a done session, and return 0. Returns the rounds
// advanced (the handler's feed for the rounds counter; replay never comes
// through here). Caller holds ingestMu (either side) and must not hold
// roundMu or sess.mu.
func (h *sessionHub) sealSession(sess *liveSession) int64 {
	sess.roundMu.Lock()
	defer sess.roundMu.Unlock()
	lane := sess.lane
	if lane == nil || lane.remaining.Load() != 0 {
		return 0
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for _, sh := range lane.shards {
		// No batch can hold a shard lock here (they nest under
		// roundMu.RLock), but keep the discipline uniform.
		sh.mu.Lock()
		err := sess.pl.MergePartial(sh.part)
		sh.mu.Unlock()
		if err != nil {
			// Unreachable by the seal protocol (partials only ever hold the
			// lane's round); refuse to advance on a corrupt merge.
			h.logger.Error("topk shard merge failed", "session", sess.id, "err", err)
			return 0
		}
	}
	before := sess.pl.Round()
	advanceOnQuota(sess.pl)
	sess.installLane(h.shardN)
	return int64(sess.pl.Round() - before)
}

// drainPartialsLocked folds every session's shard partials into its
// planner, so a snapshot taken next marshals the complete mid-round state.
// Caller holds ingestMu exclusively (no batch is mid-flight, so reserved
// equals absorbed and the lanes' remaining counters stay consistent).
func (h *sessionHub) drainPartialsLocked() error {
	h.mu.Lock()
	sessions := make([]*liveSession, 0, len(h.sessions))
	for _, sess := range h.sessions {
		sessions = append(sessions, sess)
	}
	h.mu.Unlock()
	for _, sess := range sessions {
		sess.roundMu.Lock()
		lane := sess.lane
		sess.mu.Lock()
		var err error
		if lane != nil {
			for _, sh := range lane.shards {
				if err = sess.pl.MergePartial(sh.part); err != nil {
					break
				}
			}
		}
		sess.mu.Unlock()
		sess.roundMu.Unlock()
		if err != nil {
			return fmt.Errorf("collect: drain topk session %s: %w", sess.id, err)
		}
	}
	return nil
}

// marshalSessions is the hub's compaction snapshot (durableLog.compact calls
// it with ingestMu held exclusively). Shard partials hold reports the
// planners haven't seen yet; they are folded in first so the snapshot is
// the complete applied state. The lanes stay installed — their reservation
// counters already match the merged totals.
func (h *sessionHub) marshalSessions() ([]byte, error) {
	if err := h.drainPartialsLocked(); err != nil {
		return nil, err
	}
	return h.snapshotLocked()
}

// snapshotLocked marshals every session in creation order. Caller holds
// ingestMu exclusively (no report is mid-apply).
func (h *sessionHub) snapshotLocked() ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := hubSnapshot{NextID: h.nextID}
	for _, id := range h.order {
		sess := h.sessions[id]
		sess.mu.Lock()
		blob, err := sess.pl.MarshalBinary()
		sess.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("collect: marshal topk session %s: %w", id, err)
		}
		hs.Sessions = append(hs.Sessions, hubSessionSnapshot{ID: id, State: blob})
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

// topkStats snapshots every session's position in creation order.
func (h *sessionHub) stats() *WireTopKStats {
	h.mu.Lock()
	order := append([]string(nil), h.order...)
	sessions := make([]*liveSession, 0, len(order))
	for _, id := range order {
		sessions = append(sessions, h.sessions[id])
	}
	h.mu.Unlock()
	st := &WireTopKStats{
		Sessions:      len(sessions),
		ReportsJSON:   h.reportsJSON.Load(),
		ReportsBinary: h.reportsBinary.Load(),
		WAL:           h.walStats(),
	}
	for _, sess := range sessions {
		round, received, quota, done := sess.position()
		sess.mu.Lock()
		framework, rounds := sess.pl.Params().Framework, sess.pl.Rounds()
		sess.mu.Unlock()
		stat := WireTopKSessionStat{
			ID:        sess.id,
			Framework: framework,
			Round:     round,
			Rounds:    rounds,
			Received:  received,
			Quota:     quota,
			Done:      done,
		}
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
	sess := &liveSession{id: id, pl: pl}
	sess.installLane(h.shardN)
	h.mu.Lock()
	h.reserved--
	h.sessions[id] = sess
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
	// The write side of roundMu waits out in-flight report batches (they
	// hold the read side through their WAL appends), so no report record
	// for this session can land after its deletion record.
	sess.roundMu.Lock()
	defer sess.roundMu.Unlock()
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
	// Hold the round steady while building the broadcast: seals take
	// roundMu exclusively, so the config and the lane-derived received
	// figure describe the same round.
	sess.roundMu.RLock()
	lane := sess.lane
	sess.mu.Lock()
	out := WireTopKRound{
		Done:     sess.pl.Done(),
		Received: sess.pl.Received(),
		Config:   sess.pl.Config(),
		Wire:     wireFormats(),
	}
	sess.mu.Unlock()
	if lane != nil {
		out.Received = lane.quota - int(lane.remaining.Load())
	}
	sess.roundMu.RUnlock()
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

// ackAt builds an acknowledgement carrying the session's live position.
// Caller must not hold roundMu or sess.mu.
func ackAt(sess *liveSession, accepted, rejected int) WireTopKAck {
	round, received, _, done := sess.position()
	return WireTopKAck{
		Accepted: accepted,
		Rejected: rejected,
		Round:    round,
		Received: received,
		Done:     done,
	}
}

// writeStaleAck answers a whole-batch 410 Gone: the body is the regular
// ack, whose round index tells the client what is live now.
func (h *sessionHub) writeStaleAck(w http.ResponseWriter, ack WireTopKAck) {
	h.stale.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusGone)
	json.NewEncoder(w).Encode(ack) //nolint:errcheck — best-effort error body
}

// indexedReport pairs a round report with its position in the submitted
// batch, so rejections decided after filtering (the quota reservation) can
// still be attributed.
type indexedReport struct {
	index  int
	report topk.RoundReport
}

// handleTopKReports ingests a batch of round reports — a JSON array or
// NDJSON under the same body cap and 413 behavior as /reports, or (by the
// BinaryContentType media type) one binary session frame. Reports land in
// the live round, which seals automatically when its quota is in — reports
// after the seal (in this batch or a later one) are rejected, and a batch
// rejected entirely for that reason is answered 410 Gone with the live
// round index.
//
// Concurrency: the handler validates against the lane's immutable layout
// snapshot, reserves quota with one atomic, and absorbs into one shard
// partial — the session mutex is never taken mid-round, so batches on one
// session proceed in parallel. Whoever observes the quota hit zero runs
// the seal (sealSession), which merges the shards into the planner exactly
// once; merged state is bit-identical to sequential absorption.
func (s *Server) handleTopKReports(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	h, m := s.topk, s.topkM
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

	h.ingestMu.RLock()
	sess.roundMu.RLock()
	if sess.deleted {
		// Evicted between lookup and lock: a report record appended now
		// would follow the deletion record on replay.
		sess.roundMu.RUnlock()
		h.ingestMu.RUnlock()
		http.Error(w, fmt.Sprintf("collect: no session %q", sess.id), http.StatusNotFound)
		return
	}
	lane := sess.lane
	// Pass 1 (read-only): classify against the lane's layout snapshot.
	// Acceptance is order-dependent only through the quota, settled below
	// by the reservation.
	accepted := make([]indexedReport, 0, len(items))
	staleRejects := 0
	for i, rep := range items {
		if lane == nil {
			staleRejects++
			itemErrs = append(itemErrs, WireItemError{Index: i, Error: topk.ErrSessionDone.Error()})
			continue
		}
		if cerr := lane.layout.CheckReport(rep); cerr != nil {
			var rm *topk.RoundMismatchError
			if errors.As(cerr, &rm) {
				staleRejects++
			}
			itemErrs = append(itemErrs, WireItemError{Index: i, Error: cerr.Error()})
			continue
		}
		accepted = append(accepted, indexedReport{index: i, report: rep})
	}
	// Reserve quota for as much of the batch as the round still has room
	// for; everything past the reservation is posting to a round this batch
	// (or a concurrent one) is sealing.
	take := 0
	if lane != nil && len(accepted) > 0 {
		take = int(lane.reserveUpTo(int64(len(accepted))))
	}
	for _, it := range accepted[take:] {
		staleRejects++
		itemErrs = append(itemErrs, WireItemError{Index: it.index,
			Error: fmt.Sprintf("topk: round %d sealed by this batch", lane.round)})
	}
	accepted = accepted[:take]
	// The round reports draw from the same server-wide rate bucket as the
	// other tiers; a refused batch left no trace (not logged, not absorbed,
	// reservation returned) and may be resubmitted after the hinted delay.
	if err := s.limit.admit(len(accepted)); err != nil {
		if lane != nil {
			lane.unreserve(int64(take))
		}
		sess.roundMu.RUnlock()
		h.ingestMu.RUnlock()
		m.observeIngestError(err, len(accepted))
		writeIngestError(w, err)
		return
	}
	// Durability before application: the accepted reports are logged as
	// one record, so a crash replays exactly what was acknowledged.
	if h.log != nil && len(accepted) > 0 {
		reps := make([]topk.RoundReport, len(accepted))
		for i, it := range accepted {
			reps[i] = it.report
		}
		rec, err := json.Marshal(wireSessionReports{ID: sess.id, Reports: reps})
		if err == nil {
			err = h.appendRecord(recSessionReports, rec)
		}
		if err != nil {
			s.limit.refund(take) // not ingested: the client's retry must not pay twice
			lane.unreserve(int64(take))
			sess.roundMu.RUnlock()
			h.ingestMu.RUnlock()
			m.rejectedWAL.Add(int64(len(accepted)))
			http.Error(w, "collect: wal append: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	// Apply into one shard. Every accepted report passed CheckReport
	// against the same immutable layout the partial validates with, so
	// failures are impossible here.
	if len(accepted) > 0 {
		sh := lane.shards[lane.next.Add(1)%uint64(len(lane.shards))]
		sh.mu.Lock()
		var aerr error
		for _, it := range accepted {
			if aerr = sh.part.Absorb(it.report); aerr != nil {
				break
			}
		}
		sh.mu.Unlock()
		if aerr != nil {
			sess.roundMu.RUnlock()
			h.ingestMu.RUnlock()
			http.Error(w, "collect: absorb accepted report: "+aerr.Error(), http.StatusInternalServerError)
			return
		}
	}
	sealNow := lane != nil && lane.remaining.Load() == 0
	sess.roundMu.RUnlock()
	if sealNow {
		// Either this batch took the last of the quota, or it lost the race
		// to the batch that did: seal (idempotently) before acking so the
		// ack — and a whole-batch 410 — carries the advanced round index.
		h.rounds.Add(h.sealSession(sess))
	}
	ack := ackAt(sess, len(accepted), len(itemErrs)+droppedTail)
	h.ingestMu.RUnlock()
	h.maybeCompact()

	m.batchesJSON.Inc()
	m.reportsJSON.Add(int64(len(accepted)))
	h.reportsJSON.Add(int64(len(accepted)))
	m.rejectedItem.Add(int64(len(itemErrs) + droppedTail))
	if len(itemErrs) > maxBatchErrors {
		itemErrs = itemErrs[:maxBatchErrors]
		ack.ErrorsTruncated = true
	}
	ack.Errors = itemErrs
	if ack.Accepted == 0 && len(items) > 0 && staleRejects == len(itemErrs) {
		h.writeStaleAck(w, ack)
		return
	}
	writeJSON(w, ack)
	m.latency.Observe(time.Since(start).Seconds())
}

// ingestTopKBinary ingests one binary session frame ('T' tier, see
// internal/topk/binwire.go): peek answers addressing and staleness from
// the header alone, the records are validated in full against the lane's
// layout, the whole frame reserves quota atomically (all-or-nothing), the
// raw frame bytes are write-ahead logged, and the packed bit-vectors fold
// word-wise into one shard partial without ever materializing report
// structs. body is the pooled request body (already counted into the
// byte series); the caller's deferred release reclaims it.
func (s *Server) ingestTopKBinary(w http.ResponseWriter, sess *liveSession, body []byte, start time.Time) {
	h, m := s.topk, s.topkM
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

	h.ingestMu.RLock()
	sess.roundMu.RLock()
	if sess.deleted {
		sess.roundMu.RUnlock()
		h.ingestMu.RUnlock()
		http.Error(w, fmt.Sprintf("collect: no session %q", sess.id), http.StatusNotFound)
		return
	}
	lane := sess.lane
	if lane == nil || f.Round != lane.round {
		// Stale (or done) by the header alone — the records were never
		// decoded. The ack names the live round.
		sess.roundMu.RUnlock()
		m.rejectedItem.Add(int64(f.Count))
		h.writeStaleAck(w, ackAt(sess, 0, f.Count))
		h.ingestMu.RUnlock()
		return
	}
	checked, err := f.Check(lane.layout)
	if err != nil {
		sess.roundMu.RUnlock()
		h.ingestMu.RUnlock()
		m.rejectedDecode.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if f.Count == 0 {
		sess.roundMu.RUnlock()
		ack := ackAt(sess, 0, 0)
		h.ingestMu.RUnlock()
		m.batchesBinary.Inc()
		writeJSON(w, ack)
		m.latency.Observe(time.Since(start).Seconds())
		return
	}
	if !lane.reserveExact(int64(f.Count)) {
		sess.roundMu.RUnlock()
		if lane.remaining.Load() == 0 {
			// Lost the race to the sealing batch: resolve the seal, then
			// 410 with the advanced round.
			h.rounds.Add(h.sealSession(sess))
			m.rejectedItem.Add(int64(f.Count))
			h.writeStaleAck(w, ackAt(sess, 0, f.Count))
			h.ingestMu.RUnlock()
			return
		}
		// The frame is live but larger than the round's remaining quota; a
		// frame is all-or-nothing, so the client must resize it (the error
		// carries the live position).
		_, received, quota, _ := sess.position()
		h.ingestMu.RUnlock()
		http.Error(w, fmt.Sprintf("collect: frame of %d reports exceeds the %d remaining in round %d",
			f.Count, quota-received, f.Round), http.StatusConflict)
		return
	}
	if err := s.limit.admit(f.Count); err != nil {
		lane.unreserve(int64(f.Count))
		sess.roundMu.RUnlock()
		h.ingestMu.RUnlock()
		m.observeIngestError(err, f.Count)
		writeIngestError(w, err)
		return
	}
	// Durability before application: the accepted frame is logged raw —
	// no re-encode, and replay re-validates the same bytes.
	if h.log != nil {
		if err := h.appendRecord(recSessionBinaryFrame, body); err != nil {
			s.limit.refund(f.Count) // not ingested: the client's retry must not pay twice
			lane.unreserve(int64(f.Count))
			sess.roundMu.RUnlock()
			h.ingestMu.RUnlock()
			m.rejectedWAL.Add(int64(f.Count))
			http.Error(w, "collect: wal append: "+err.Error(), http.StatusInternalServerError)
			return
		}
	}
	sh := lane.shards[lane.next.Add(1)%uint64(len(lane.shards))]
	sh.mu.Lock()
	sh.part.AbsorbChecked(checked)
	sh.mu.Unlock()
	sealNow := lane.remaining.Load() == 0
	sess.roundMu.RUnlock()
	if sealNow {
		h.rounds.Add(h.sealSession(sess))
	}
	ack := ackAt(sess, f.Count, 0)
	h.ingestMu.RUnlock()
	h.maybeCompact()

	m.batchesBinary.Inc()
	m.reportsBinary.Add(int64(f.Count))
	h.reportsBinary.Add(int64(f.Count))
	writeJSON(w, ack)
	m.latency.Observe(time.Since(start).Seconds())
}

func max0(n int) int {
	if n < 0 {
		return 0
	}
	return n
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
	resp, err := ts.http.Post(ts.base+"/topk/sessions/"+ts.info.ID+"/reports", "application/json", bytes.NewReader(body))
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
	resp, err := ts.http.Post(ts.base+"/topk/sessions/"+ts.info.ID+"/reports", BinaryContentType, bytes.NewReader(frame))
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
