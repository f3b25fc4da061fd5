package collect

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/wal"
)

// This file is the durable half every tier shares. The durability
// contract: every write to a report tier — batch, frame or federation
// envelope — is appended to the tier's WAL before the table sees it, so
// replaying snapshot + tail after an unclean shutdown reconstructs the
// table bit-identically — integer counts make replay order irrelevant. The
// log keeps the smaller of the write's sealed count-table delta and the raw
// input it came from (a write no longer than the table's cell count is
// logged raw without sealing), so a large frame is logged as its few
// kilobytes of counts, and the raw frames behind those counts are not kept
// on disk.
// Compaction periodically folds the log down to one state snapshot plus a
// short tail, bounding both disk usage and restart time. Each tier keeps
// its own log (<dir>/ or <dir>/freq, <dir>/mean, <dir>/topk) with the same
// sync options, so the tiers' records never interleave and each compacts
// independently.

// WAL record types of the report tiers: the first byte of every record
// says how to rebuild the reports it logged. (The mining-session log has its
// own set, see topk.go.)
const (
	// recEnvelope frames a fingerprinted table envelope: a write's sealed
	// delta, or an envelope merged through MergeState as it came. Replay
	// checks it and adds it straight from the record's bytes.
	recEnvelope = 'E'
	// recBatch frames a JSON array of accepted wire reports, and
	// recBinaryBatch one validated binary wire frame (see
	// internal/core/binwire.go), each kept raw when the write was small or
	// its sealed delta no smaller; replay re-validates and re-folds them
	// through the decoder the endpoint used.
	recBatch       = 'B'
	recBinaryBatch = 'W'
)

// durableLog is one tier's write-ahead log and its compaction machinery —
// embedded by the report tiers and by the mining-session hub. The zero
// value (log == nil) is a tier without durability: every method but
// appendRecord is then a no-op.
type durableLog struct {
	// ingestMu orders the owner's logged writes (reader side) against
	// whole-state transitions (writer side: compaction, and whatever else
	// the owner quiesces ingestion for), so a WAL append and its apply are
	// atomic with respect to the segment boundary a snapshot covers.
	ingestMu sync.RWMutex
	log      *wal.Log
	logger   *slog.Logger

	compactAfter int64
	// marshalState serializes the owner's complete applied state for a
	// compaction snapshot; called with ingestMu held exclusively.
	marshalState func() ([]byte, error)
	// compactMu is held for the lifetime of a background compaction: its
	// TryLock is the single-flight gate, and close takes it to wait the
	// compaction out. closed (guarded by it) refuses compactions after close.
	compactMu sync.Mutex
	closed    bool
}

// open opens the log under <s.walDir>/sub with the server's sync options,
// the log=<name> metric hooks and logger, and replays it in log order —
// onSnapshot for the latest snapshot, then onRecord for every tail record,
// then replayed, when set, to finish what the records began. The replay
// gauge times all three.
// commutative is the owner's one declaration that its records fold in any
// order: the log then flushes rolled segments behind its appenders
// (wal.Options.Commutative); an ordered log never writes past an unflushed
// segment. Called from NewServer before the handler is exposed, so the
// callbacks need no locking beyond their own.
func (d *durableLog) open(s *Server, sub, name string, commutative bool,
	marshalState func() ([]byte, error), onSnapshot, onRecord func([]byte) error, replayed func()) error {
	opts := s.walOpts
	wm, replayG := NewWALMetrics(s.obs, name)
	opts.Metrics, opts.Logger, opts.Commutative = wm, s.logger.With("log", name), commutative
	l, err := wal.Open(filepath.Join(s.walDir, sub), opts)
	if err != nil {
		return fmt.Errorf("collect: %s wal: %w", name, err)
	}
	start := time.Now()
	if err := l.Replay(onSnapshot, onRecord); err != nil {
		l.Close()
		return err
	}
	if replayed != nil {
		replayed()
	}
	replayG.Set(time.Since(start).Seconds())
	d.log, d.compactAfter, d.marshalState = l, s.compactAfter, marshalState
	return nil
}

// appendRecord logs one typed record. Caller checked log != nil (so that
// building the payload is skipped on non-durable tiers) and holds
// ingestMu.RLock.
func (d *durableLog) appendRecord(typ byte, payload []byte) error {
	return d.log.AppendTyped(typ, payload)
}

// maybeCompact kicks off a background compaction when the log has
// accumulated compactAfter bytes past its last snapshot. At most one runs
// at a time; extra triggers are dropped, not queued.
func (d *durableLog) maybeCompact() {
	if d.log == nil || d.log.BytesSinceSeal() < d.compactAfter {
		return
	}
	if !d.compactMu.TryLock() {
		return
	}
	if d.closed {
		d.compactMu.Unlock()
		return
	}
	go func() {
		defer d.compactMu.Unlock()
		if err := d.compact(); err != nil {
			// Loud but non-fatal: the log keeps growing and replay still works.
			d.logger.Error("background wal compaction failed",
				"segments", d.log.Stats().Segments, "err", err)
		}
	}()
}

// compact folds the log down to a snapshot of the current state plus an
// empty tail: writes are quiesced just long enough to roll the log and
// marshal the state, then the snapshot is sealed and the covered segments
// deleted. A restart after a compaction replays the snapshot instead of
// the raw records.
func (d *durableLog) compact() error {
	d.ingestMu.Lock()
	cover, err := d.log.Roll()
	var snap []byte
	if err == nil {
		snap, err = d.marshalState()
	}
	d.ingestMu.Unlock()
	if err != nil {
		return err
	}
	return d.log.Seal(cover, snap)
}

// supersede moves the log past its whole history: roll, then seal snap as
// the snapshot a restart begins from. A no-op without a log. Caller holds
// ingestMu exclusively and swaps its in-memory state only on success.
func (d *durableLog) supersede(snap []byte) error {
	if d.log == nil {
		return nil
	}
	cover, err := d.log.Roll()
	if err != nil {
		return fmt.Errorf("wal roll: %w", err)
	}
	if err := d.log.Seal(cover, snap); err != nil {
		return fmt.Errorf("wal seal: %w", err)
	}
	return nil
}

// walStats is the tier's durability slice of /stats; nil without a log.
func (d *durableLog) walStats() *WireWALStats {
	if d.log == nil {
		return nil
	}
	ws := d.log.Stats()
	st := &WireWALStats{Segments: ws.Segments, BytesSinceCompaction: ws.BytesSinceCompaction}
	if !ws.LastSnapshot.IsZero() {
		st.LastSnapshot = ws.LastSnapshot.UTC().Format(time.RFC3339)
	}
	return st
}

// close flushes and closes the log, after waiting out an in-flight
// background compaction — closing under it would fail its Roll/Seal with
// "log is closed" and log a spurious compaction error on every graceful
// shutdown that lands mid-compaction.
func (d *durableLog) close() error {
	if d.log == nil {
		return nil
	}
	d.compactMu.Lock()
	d.closed = true
	d.compactMu.Unlock()
	return d.log.Close()
}

// Compact folds the frequency tier's WAL down to a snapshot of the current
// aggregate plus an empty tail. Estimates are unaffected. It errors on
// servers without a frequency WAL.
func (s *Server) Compact() error {
	if s.freq == nil || s.freq.log == nil {
		return fmt.Errorf("collect: server has no WAL to compact")
	}
	return s.freq.compact()
}

// Close flushes and closes the server's logs — the report WAL and, when
// mounted, the mean tier's and the mining session WALs (a no-op without
// them) — waiting for any background compaction to finish first. Serve
// traffic must be quiesced first — http.Server.Shutdown before Close.
func (s *Server) Close() error {
	var err error
	if s.freq != nil {
		err = s.freq.close()
	}
	if s.mean != nil {
		if merr := s.mean.close(); err == nil {
			err = merr
		}
	}
	if s.topk != nil {
		if terr := s.topk.close(); err == nil {
			err = terr
		}
	}
	return err
}
