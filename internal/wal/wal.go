// Package wal implements the segmented write-ahead log behind the
// collection server's durability: every ingested batch is appended as a
// CRC-framed record before it touches an aggregator, so an unclean shutdown
// loses at most the records the chosen fsync policy had not yet pushed to
// disk, and a restart replays snapshot + tail back to bit-identical
// aggregation state.
//
// Layout inside the directory:
//
//	seg-00000042.wal    append-only record segments, rolled at SegmentBytes
//	snap-00000040.snap  compaction snapshots; the number is the first
//	                    segment NOT covered, i.e. replay = snapshot state,
//	                    then every record in segments ≥ 40
//
// Each record is framed as len[u32] crc32c[u32] payload, little-endian.
// Replay verifies every frame; a short or corrupt frame ends that segment's
// replay — the normal signature of a torn write at crash — and replay
// continues with the next segment; the bytes it skipped are counted
// (Metrics.TornBytes) and logged. Every Open starts a fresh segment, so an
// appender never writes after a torn tail, and deletes the empty segments
// earlier runs left behind.
//
// Replay is one sequential pass on the caller's goroutine. It maps segments
// read-only (where the platform has mmap; elsewhere it reads them) rather
// than copying them onto the heap, and unmaps each once its walk ends. So a
// record handed to a replay callback is valid only until the callback
// returns, and a segment that faults underneath the replay — truncated by
// someone else, or unreadable — fails the replay with an error instead of
// crashing the process.
//
// Compaction (Roll + Seal) folds the log back down: the caller quiesces
// appends, Rolls to a new segment, snapshots its aggregation state, and
// Seals — which durably writes the snapshot and deletes the segments it
// covers. The log itself never interprets record payloads.
//
// Locking: Log.mu guards the active-segment pointer and the byte counters,
// and an appender holds it for its two writes. Seal's file work and the
// interval ticker's and Sync's fsync happen outside it, so a compaction does
// not stall ingest. On a log whose records commute (Options.Commutative) an
// outgoing segment is retired (flushed and closed) outside it too, by a
// goroutine fed through a queue of retireQueue segments; a roll that finds
// that queue full waits for room while holding Log.mu, and every appender
// waits with it. On an ordered log the roll retires the segment under
// Log.mu itself.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy says when appended records are fsynced to disk.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append: no acknowledged record is ever
	// lost, at the cost of one disk flush per batch.
	SyncAlways SyncPolicy = "always"
	// SyncInterval fsyncs from a background ticker (Options.SyncEvery): an
	// unclean shutdown loses at most the last interval's records. The
	// default.
	SyncInterval SyncPolicy = "interval"
	// SyncNever leaves flushing to the OS: fastest, loses the page cache on
	// a machine crash (a process kill alone loses nothing — the data is in
	// the kernel).
	SyncNever SyncPolicy = "never"
)

// ParseSyncPolicy maps a flag string onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncAlways, SyncInterval, SyncNever:
		return SyncPolicy(s), nil
	}
	return "", fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// Options tunes a Log.
type Options struct {
	// SegmentBytes is the roll threshold; a segment that would exceed it is
	// closed and a new one started. <= 0 means the 4 MiB default.
	SegmentBytes int64
	// Sync is the fsync policy; empty means SyncInterval.
	Sync SyncPolicy
	// SyncEvery is the background flush cadence under SyncInterval; <= 0
	// means 200ms.
	SyncEvery time.Duration
	// Metrics, when non-nil, receives operational counts. The log never
	// blocks on it; every field is optional.
	Metrics *Metrics
	// Logger receives replay's warnings (a segment's bytes skipped after a
	// torn or corrupt frame); nil means slog.Default().
	Logger *slog.Logger
	// Commutative is the owner's declaration that its records may be applied
	// in any order and that replay tolerates a gap, as a log of integer-count
	// adds does: without any subset of its records it still replays to a
	// valid state, of fewer reports. Under SyncInterval and SyncNever such
	// a log flushes an outgoing segment behind its appenders instead of
	// making the roll wait for it, so a power loss may cost any of the last
	// interval's records rather than a suffix of them. An ordered log (the
	// zero value) never writes to segment N+1 before N is flushed. Set in
	// code by the log's owner; it is not an operator's choice.
	Commutative bool

	// syncFile stands in for (*os.File).Sync in this package's tests, which
	// block or fail a flush through it.
	syncFile func(*os.File) error
}

// Adder is the narrow counter interface the log reports through; an
// obs.Counter satisfies it. The wal package deliberately does not import
// the metrics registry — callers wire the handles in via Options.Metrics.
type Adder interface {
	Add(delta int64)
}

// Observer is the narrow histogram interface the log reports durations
// through; an obs.Histogram satisfies it.
type Observer interface {
	Observe(v float64)
}

// Metrics is the set of counters a Log advances. Any field (or the whole
// struct) may be nil.
type Metrics struct {
	// Appends counts records durably accepted by Append; AppendedBytes
	// counts their framed size.
	Appends       Adder
	AppendedBytes Adder
	// Fsyncs counts successful explicit flushes of a segment (per-append
	// under SyncAlways, ticker flushes under SyncInterval, Sync calls, and
	// the flush of an outgoing segment on roll).
	Fsyncs Adder
	// SyncErrors counts flushes that failed: a segment or directory fsync,
	// or the close of an outgoing segment.
	SyncErrors Adder
	// LockWait observes, in seconds, how long each Append waited for the
	// log mutex — writers stalled behind a roll or behind each other.
	LockWait Observer
	// Rolls counts segment rotations (size-triggered, torn-quarantine, and
	// explicit Roll) — not the fresh segment every Open starts.
	Rolls Adder
	// Seals counts durable compaction snapshots.
	Seals Adder
	// TornTruncations counts torn tails handled: failed writes clipped from
	// the active segment, and corrupt frames that ended a segment's replay.
	// TornBytes counts the segment bytes such a frame made replay skip.
	TornTruncations Adder
	TornBytes       Adder
	// ReplayedRecords counts intact records fed to Replay's onRecord;
	// ReplayedBytes counts their framed size.
	ReplayedRecords Adder
	ReplayedBytes   Adder
}

// add is nil-safe on the field; callers nil-check the receiver before
// touching fields.
func add(c Adder, n int64) {
	if c != nil {
		c.Add(n)
	}
}

func (m *Metrics) noteAppend(frameLen int64) {
	if m == nil {
		return
	}
	add(m.Appends, 1)
	add(m.AppendedBytes, frameLen)
}

func (m *Metrics) noteFsync() {
	if m != nil {
		add(m.Fsyncs, 1)
	}
}

func (m *Metrics) noteSyncError() {
	if m != nil {
		add(m.SyncErrors, 1)
	}
}

func (m *Metrics) noteLockWait(d time.Duration) {
	if m != nil && m.LockWait != nil {
		m.LockWait.Observe(d.Seconds())
	}
}

func (m *Metrics) noteRoll() {
	if m != nil {
		add(m.Rolls, 1)
	}
}

func (m *Metrics) noteSeal() {
	if m != nil {
		add(m.Seals, 1)
	}
}

// noteTorn counts one torn tail whose frame made replay skip skipped
// bytes (0 for a write clipped from the active segment).
func (m *Metrics) noteTorn(skipped int64) {
	if m != nil {
		add(m.TornTruncations, 1)
		add(m.TornBytes, skipped)
	}
}

func (m *Metrics) noteReplayed(frameLen int64) {
	if m != nil {
		add(m.ReplayedRecords, 1)
		add(m.ReplayedBytes, frameLen)
	}
}

// DefaultSegmentBytes is the segment roll threshold when Options does not
// set one.
const DefaultSegmentBytes = 4 << 20

const defaultSyncEvery = 200 * time.Millisecond

// MaxRecordBytes bounds a single record so a corrupt length prefix cannot
// demand an absurd allocation during replay. Exported because callers that
// log variable-size payloads — the collection server's /merge envelopes,
// one count table each, sized by the protocol's domain — must keep their own
// acceptance caps below it, or they would accept bytes they cannot make
// durable.
const MaxRecordBytes = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats is the log's operational snapshot, surfaced by the collection
// server's /stats endpoint.
type Stats struct {
	// Segments is the number of record segments on disk (including the
	// active one).
	Segments int
	// BytesSinceCompaction counts record bytes appended after the segment
	// boundary the last snapshot covers — the replay work a restart would
	// do, and the signal the server's auto-compaction watches.
	BytesSinceCompaction int64
	// LastSnapshot is when the log last sealed a compaction snapshot (zero
	// if never).
	LastSnapshot time.Time
}

// Log is a segmented append-only record log. Append, Roll, Seal, Sync and
// Stats are safe for concurrent use; Replay must complete before the first
// Append (Open + Replay + serve is the intended sequence).
type Log struct {
	dir  string
	opts Options

	// mu guards the active-segment pointer and the bookkeeping below. It is
	// never held across a flush, with two exceptions that are the point of
	// their modes: SyncAlways's per-append fsync, and the retirement of an
	// outgoing segment when that must finish before the next write (see
	// startSegment).
	mu          sync.Mutex
	active      *os.File
	activeSeq   int
	activeBytes int64
	segBytes    map[int]int64 // record bytes of every segment on disk but the active one
	lastSnap    time.Time
	dirty       bool // written since last fsync (interval policy)
	torn        bool // the active segment must not be appended to; the next Append rolls first
	closed      bool

	// sinceSeal is the record bytes in segments the last snapshot does not
	// cover. Written under mu; BytesSinceSeal reads it without.
	sinceSeal atomic.Int64

	// sealMu serialises Seals, whose file work runs outside mu, and guards
	// snaps, the snapshot files on disk.
	sealMu sync.Mutex
	snaps  []int

	// The retirer: one goroutine flushing outgoing segments behind the
	// appenders of a commutative log. retireQ is nil when segments are
	// retired inline. retMu guards retPending (segments queued or in
	// flight) and retErr (the first failure not yet reported); the retirer
	// never takes mu.
	retireQ    chan *os.File
	retireDone chan struct{}
	retMu      sync.Mutex
	retIdle    *sync.Cond
	retPending int
	retErr     error

	stopSync chan struct{}
	syncDone chan struct{}
}

// retireQueue bounds the outgoing segments waiting for their flush: enough
// that a roll rarely finds the queue full while one fsync is in flight, small
// enough that unflushed data stays within a few segments. A roll that does
// find it full waits, as every roll would without the queue.
const retireQueue = 4

// Open prepares dir (creating it if needed), accounts for what a crash left
// behind, starts a fresh active segment numbered after everything on disk,
// and deletes the segments that hold no bytes. It does not read old records
// — call Replay for that.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Sync == "" {
		opts.Sync = SyncInterval
	}
	if _, err := ParseSyncPolicy(string(opts.Sync)); err != nil {
		return nil, err
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, segBytes: make(map[int]int64)}
	segs, snaps, err := l.scan()
	if err != nil {
		return nil, err
	}
	for _, seq := range segs {
		fi, err := os.Stat(l.segPath(seq))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.segBytes[seq] = fi.Size()
	}
	l.snaps = snaps
	// The new active segment must sort after every existing segment AND
	// land inside the latest snapshot's replay range (seq >= its coverage
	// boundary), or a restart would skip the records written this run.
	next := 1
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	if n := len(snaps); n > 0 {
		if snaps[n-1] > next {
			next = snaps[n-1]
		}
		if fi, err := os.Stat(l.snapPath(snaps[n-1])); err == nil {
			l.lastSnap = fi.ModTime()
		}
	}
	if err := l.startSegment(next); err != nil {
		return nil, err
	}
	// A run that appended nothing left its segment empty. Without this, every
	// restart of an idle log would add one more file for replay to open and
	// /stats to count; no compaction would remove it. A segment of 1–7 bytes
	// (a torn header) is not empty and stays.
	for _, seq := range segs {
		if l.segBytes[seq] == 0 && removeFile(l.segPath(seq)) {
			delete(l.segBytes, seq)
		}
	}
	// Make the directory entry itself durable: fsyncing record bytes into a
	// file whose entry a power loss can erase would protect nothing. (Later
	// segments get this from the retirement of the one they replace.)
	if err := l.syncDir(); err != nil {
		l.active.Close()
		os.Remove(l.segPath(next))
		return nil, err
	}
	l.sinceSeal.Store(l.bytesFrom(coveredSeq(snaps)))
	if opts.Commutative && opts.Sync != SyncAlways {
		l.retireQ = make(chan *os.File, retireQueue)
		l.retireDone = make(chan struct{})
		l.retIdle = sync.NewCond(&l.retMu)
		go l.retireLoop()
	}
	if l.opts.Sync == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

// Commutative reports the Options.Commutative declaration the log was
// opened with.
func (l *Log) Commutative() bool { return l.opts.Commutative }

// coveredSeq returns the first segment sequence NOT covered by the latest
// snapshot (0 when there is no snapshot, which covers nothing).
func coveredSeq(snaps []int) int {
	if len(snaps) == 0 {
		return 0
	}
	return snaps[len(snaps)-1]
}

func (l *Log) segPath(seq int) string { return filepath.Join(l.dir, fmt.Sprintf("seg-%08d.wal", seq)) }
func (l *Log) snapPath(seq int) string {
	return filepath.Join(l.dir, fmt.Sprintf("snap-%08d.snap", seq))
}

// scan lists the segment and snapshot sequence numbers on disk, ascending.
func (l *Log) scan() (segs, snaps []int, err error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		var seq int
		switch {
		case matchSeq(e.Name(), "seg-%08d.wal", &seq):
			segs = append(segs, seq)
		case matchSeq(e.Name(), "snap-%08d.snap", &seq):
			snaps = append(snaps, seq)
		}
	}
	sort.Ints(segs)
	sort.Ints(snaps)
	return segs, snaps, nil
}

// matchSeq parses a fixed-format name, rejecting anything Sscanf would
// accept loosely (prefix garbage, short numbers).
func matchSeq(name, format string, seq *int) bool {
	var s int
	if _, err := fmt.Sscanf(name, format, &s); err != nil || fmt.Sprintf(format, s) != name {
		return false
	}
	*seq = s
	return true
}

// bytesFrom sums the record bytes of segments with seq >= from, the active
// one included. Caller holds mu (or is Open).
func (l *Log) bytesFrom(from int) int64 {
	var total int64
	if l.activeSeq >= from {
		total = l.activeBytes
	}
	for seq, n := range l.segBytes {
		if seq >= from {
			total += n
		}
	}
	return total
}

// startSegment creates segment seq, makes it the active one and retires the
// segment it replaces. On a commutative log the outgoing segment goes to
// the retirer and the caller carries on; otherwise it is retired here,
// before any byte reaches the new segment, and a failure fails the roll and
// marks the new segment torn so the next Append rolls afresh — an
// acknowledged record never sits in a segment whose directory entry could
// not be made durable. Caller holds mu (or is Open, with nothing to retire).
func (l *Log) startSegment(seq int) error {
	f, err := os.OpenFile(l.segPath(seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	old := l.active
	if old != nil {
		l.segBytes[l.activeSeq] = l.activeBytes
		l.opts.Metrics.noteRoll()
	}
	l.active, l.activeSeq, l.activeBytes = f, seq, 0
	if old == nil {
		return nil
	}
	if l.retireQ != nil {
		l.retMu.Lock()
		l.retPending++
		l.retMu.Unlock()
		l.retireQ <- old
		return nil
	}
	if err := l.retire(old); err != nil {
		l.torn = true
		return err
	}
	return nil
}

// retire makes an outgoing segment durable and lets go of it: fsync the
// segment, close it, then fsync the directory, which is also what makes
// the entry of the segment that replaced it durable. It takes no lock.
func (l *Log) retire(f *os.File) error {
	err := l.flush(f)
	if cerr := f.Close(); cerr != nil {
		l.opts.Metrics.noteSyncError()
		if err == nil {
			err = fmt.Errorf("wal: close segment: %w", cerr)
		}
	}
	if derr := l.syncDir(); err == nil {
		err = derr
	}
	return err
}

// retireLoop is the retirer goroutine; it ends when Close closes the queue.
func (l *Log) retireLoop() {
	defer close(l.retireDone)
	for f := range l.retireQ {
		err := l.retire(f)
		l.retMu.Lock()
		l.retPending--
		if l.retErr == nil {
			l.retErr = err
		}
		l.retIdle.Broadcast()
		l.retMu.Unlock()
	}
}

// drainRetired waits until every segment handed to the retirer is flushed
// and returns the first failure since the last call.
func (l *Log) drainRetired() error {
	if l.retireQ == nil {
		return nil
	}
	l.retMu.Lock()
	defer l.retMu.Unlock()
	for l.retPending > 0 {
		l.retIdle.Wait()
	}
	err := l.retErr
	l.retErr = nil
	return err
}

// fsync is (*os.File).Sync, or the test seam in its place.
func (l *Log) fsync(f *os.File) error {
	if l.opts.syncFile != nil {
		return l.opts.syncFile(f)
	}
	return f.Sync()
}

// flush fsyncs a segment file, counting the outcome. os.ErrClosed is not a
// failure: the caller raced a roll, whose retirement flushed the file.
func (l *Log) flush(f *os.File) error {
	err := l.fsync(f)
	switch {
	case err == nil:
		l.opts.Metrics.noteFsync()
	case errors.Is(err, os.ErrClosed):
		return nil
	default:
		l.opts.Metrics.noteSyncError()
		err = fmt.Errorf("wal: fsync: %w", err)
	}
	return err
}

// syncDir fsyncs the log directory so file creations, renames and deletes
// are durable, not just the bytes inside the files.
func (l *Log) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		l.opts.Metrics.noteSyncError()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Append durably (per the sync policy) adds one record to the log.
func (l *Log) Append(record []byte) error { return l.append(false, 0, record) }

// AppendTyped is Append of the record typ‖payload — the same bytes on disk
// — without the caller having to build that record.
func (l *Log) AppendTyped(typ byte, payload []byte) error { return l.append(true, typ, payload) }

// crcByte is crc32.Update(crc, castagnoli, []byte{b}) spelt out: a stack
// byte handed to crc32.Update escapes to the heap (the implementation is
// picked through a function value), and append must not allocate.
func crcByte(crc uint32, b byte) uint32 {
	crc = ^crc
	return ^(castagnoli[byte(crc)^b] ^ (crc >> 8))
}

// append writes one record: payload, behind the byte typ when typed. The
// frame header and the CRC are computed before the mutex is taken.
func (l *Log) append(typed bool, typ byte, payload []byte) error {
	var (
		hdr  [9]byte
		head = hdr[:8]
		n    = len(payload)
		crc  uint32
	)
	if typed {
		hdr[8], head, n, crc = typ, hdr[:9], n+1, crcByte(0, typ)
	}
	if n > MaxRecordBytes {
		return fmt.Errorf("wal: record of %d bytes exceeds %d", n, MaxRecordBytes)
	}
	binary.LittleEndian.PutUint32(hdr[:4], uint32(n))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Update(crc, castagnoli, payload))

	// An uncontended append reads no clock.
	var wait time.Duration
	if !l.mu.TryLock() {
		start := time.Now()
		l.mu.Lock()
		wait = time.Since(start)
	}
	err := l.appendLocked(head, payload, int64(8+n))
	l.mu.Unlock()
	l.opts.Metrics.noteLockWait(wait)
	return err
}

// appendLocked is the critical section of append: pick the segment, write
// the frame, bump the counters.
func (l *Log) appendLocked(head, payload []byte, frameLen int64) error {
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	// A failed write may have left a partial frame behind; replay stops a
	// segment at the first torn frame, so appending more records after one
	// would silently lose them on restart. Quarantine the damage by rolling
	// to a fresh segment first (retrying on every Append until the roll
	// succeeds).
	if l.torn || (l.activeBytes > 0 && l.activeBytes+frameLen > l.opts.SegmentBytes) {
		if err := l.startSegment(l.activeSeq + 1); err != nil {
			return err
		}
		l.torn = false
	}
	if _, err := l.active.Write(head); err != nil {
		l.clipActive()
		return fmt.Errorf("wal: append: %w", err)
	}
	if _, err := l.active.Write(payload); err != nil {
		l.clipActive()
		return fmt.Errorf("wal: append: %w", err)
	}
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.flush(l.active); err != nil {
			// The record's durability is unknown; the caller will report
			// failure (and its client may retry), so the record must not
			// survive to replay alongside the retry.
			l.clipActive()
			return err
		}
	case SyncInterval:
		l.dirty = true
	}
	l.activeBytes += frameLen
	l.sinceSeal.Add(frameLen)
	l.opts.Metrics.noteAppend(frameLen)
	return nil
}

// clipActive undoes a possibly-partial frame after a failed write or
// fsync: truncate the active segment back to its last known-good length
// and reseek, so the failed record cannot replay. If even that fails, the
// segment is marked torn and the next Append rolls past it.
func (l *Log) clipActive() {
	l.opts.Metrics.noteTorn(0)
	if l.active.Truncate(l.activeBytes) == nil {
		if _, err := l.active.Seek(l.activeBytes, 0); err == nil {
			return
		}
	}
	l.torn = true
}

// Replay feeds the latest valid snapshot (if any) to onSnapshot, then every
// intact record after it, in order, to onRecord, on the calling goroutine.
// A torn or corrupt frame ends its segment's replay and the next segment
// continues — the expected shape after an unclean shutdown. Either callback
// returning an error aborts the replay with it.
//
// A record's bytes are valid until onRecord returns: segments are mapped
// read-only and unmapped once their walk ends, so a callback that keeps any
// of them must copy. A segment that faults while it is read — the file
// truncated underneath the replay, or a disk error — fails the replay with
// an error naming the segment instead of crashing the process.
func (l *Log) Replay(onSnapshot func(snapshot []byte) error, onRecord func(record []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	segs, snaps, err := l.scan()
	if err != nil {
		return err
	}
	// Latest structurally valid snapshot wins; corrupt ones (torn during
	// seal) fall back to the previous, whose segments Seal only deletes
	// after the newer snapshot is durable.
	from := 0
	for i := len(snaps) - 1; i >= 0; i-- {
		payload, err := readSnapshotFile(l.snapPath(snaps[i]))
		if err != nil {
			continue
		}
		if err := onSnapshot(payload); err != nil {
			return err
		}
		from = snaps[i]
		break
	}
	segs = slices.DeleteFunc(segs, func(seq int) bool { return seq < from || seq == l.activeSeq })
	if len(segs) == 0 {
		return nil
	}
	// Mapped pages fault when their file shrinks or the disk fails; the walk
	// reads them with faults turned into panics, which recoverFault turns
	// into the replay's error.
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for _, seq := range segs {
		if err := l.replaySegment(l.segPath(seq), onRecord); err != nil {
			return err
		}
	}
	return nil
}

// ReplayParallel is Replay; workers is ignored.
//
// Deprecated: replay is one sequential pass. Call Replay.
func (l *Log) ReplayParallel(workers int, onSnapshot func(snapshot []byte) error, onRecord func(record []byte) error) error {
	return l.Replay(onSnapshot, onRecord)
}

// replaySegment maps the segment at path, hands each record of its intact
// prefix to onRecord where the walk finds it, and unmaps the segment when
// the walk ends. The caller has turned page faults into panics.
func (l *Log) replaySegment(path string, onRecord func([]byte) error) (err error) {
	data, release, err := mapSegment(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer func() {
		if rerr := release(); rerr != nil && err == nil {
			err = fmt.Errorf("wal: unmap %s: %w", path, rerr)
		}
	}()
	defer recoverFault(path, &err)
	size := len(data)
	for len(data) >= 8 {
		n := binary.LittleEndian.Uint32(data[:4])
		if uint64(n) > MaxRecordBytes || uint64(n) > uint64(len(data)-8) {
			break // torn length or payload: end of this segment's intact prefix
		}
		payload := data[8 : 8+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
			break // torn payload bytes
		}
		l.opts.Metrics.noteReplayed(8 + int64(n))
		if err := onRecord(payload); err != nil {
			return err
		}
		data = data[8+n:]
	}
	// Bytes left after the intact prefix — a frame that failed a check
	// above, or the 1–7 bytes of a torn header — are a torn write at crash.
	if len(data) > 0 {
		l.opts.Metrics.noteTorn(int64(len(data)))
		logger := l.opts.Logger
		if logger == nil {
			logger = slog.Default()
		}
		logger.Warn("wal replay skipped the rest of a segment after a torn or corrupt frame",
			"segment", path, "offset", size-len(data), "bytes", len(data))
	}
	return nil
}

// recoverFault, deferred by a reader of the segment at path under
// debug.SetPanicOnFault, turns a fault on its mapped pages into *err. Any
// other panic goes on up.
func recoverFault(path string, err *error) {
	r := recover()
	if r == nil {
		return
	}
	f, ok := r.(interface{ Addr() uintptr })
	if !ok {
		panic(r)
	}
	*err = fmt.Errorf("wal: replay of segment %s faulted at %#x: the file shrank or could not be read underneath the replay", path, f.Addr())
}

// readSnapshotFile reads a snapshot file (one record frame) and verifies
// its CRC.
func readSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("wal: snapshot %s truncated", path)
	}
	n := binary.LittleEndian.Uint32(data[:4])
	if uint64(n) != uint64(len(data)-8) {
		return nil, fmt.Errorf("wal: snapshot %s length mismatch", path)
	}
	payload := data[8:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, fmt.Errorf("wal: snapshot %s CRC mismatch", path)
	}
	return payload, nil
}

// Roll closes the active segment and starts a new one, returning the new
// segment's sequence number. Records appended after a Roll land in the new
// segment, so a snapshot of aggregation state taken while appends are
// quiesced covers exactly the segments before it — pass the returned
// sequence to Seal with that snapshot.
func (l *Log) Roll() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if err := l.startSegment(l.activeSeq + 1); err != nil {
		return 0, err
	}
	return l.activeSeq, nil
}

// Seal durably writes snapshot as covering every segment before coverSeq,
// then deletes those segments and any older snapshots. The snapshot file is
// written to a temp name, fsynced, and renamed, so a crash mid-seal leaves
// either the old snapshot chain or the new one — never a half-written
// snapshot that replay would trust. Appends proceed while a Seal runs: it
// takes the log mutex only to pick the segments it will delete and to
// publish the result.
func (l *Log) Seal(coverSeq int, snapshot []byte) error {
	l.sealMu.Lock()
	defer l.sealMu.Unlock()
	l.mu.Lock()
	closed := l.closed
	var covered []int
	for seq := range l.segBytes {
		if seq < coverSeq {
			covered = append(covered, seq)
		}
	}
	l.mu.Unlock()
	if closed {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.writeSnapshot(coverSeq, snapshot); err != nil {
		return err
	}
	// A file that cannot be removed stays in the books — /stats keeps
	// matching the directory — and the next Seal tries it again.
	removed := covered[:0]
	for _, seq := range covered {
		if removeFile(l.segPath(seq)) {
			removed = append(removed, seq)
		}
	}
	snaps := l.snaps[:0]
	for _, seq := range l.snaps {
		if seq > coverSeq || (seq < coverSeq && !removeFile(l.snapPath(seq))) {
			snaps = append(snaps, seq)
		}
	}
	l.snaps = append(snaps, coverSeq)
	err := l.syncDir()

	l.mu.Lock()
	for _, seq := range removed {
		delete(l.segBytes, seq)
	}
	l.sinceSeal.Store(l.bytesFrom(coverSeq))
	l.lastSnap = time.Now()
	l.mu.Unlock()
	l.opts.Metrics.noteSeal()
	return err
}

// writeSnapshot makes snap-<coverSeq> durable: temp file, fsync, rename,
// directory fsync.
func (l *Log) writeSnapshot(coverSeq int, snapshot []byte) error {
	tmp, err := os.CreateTemp(l.dir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: seal: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(snapshot)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(snapshot, castagnoli))
	_, err = tmp.Write(hdr[:])
	if err == nil {
		_, err = tmp.Write(snapshot)
	}
	if err == nil {
		err = l.fsync(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), l.snapPath(coverSeq))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: seal: %w", err)
	}
	// The rename must be durable before anything it supersedes is deleted;
	// otherwise a crash could persist the deletes but not the new snapshot,
	// leaving neither the old segments nor the state that replaced them.
	return l.syncDir()
}

// removeFile reports whether path is gone after trying to remove it.
func removeFile(path string) bool {
	err := os.Remove(path)
	return err == nil || errors.Is(err, fs.ErrNotExist)
}

// BytesSinceSeal returns the record bytes appended beyond the last sealed
// snapshot's coverage — the replay cost a restart would pay right now. It
// takes no lock: the ingest path asks after every batch.
func (l *Log) BytesSinceSeal() int64 { return l.sinceSeal.Load() }

// Stats returns the log's operational snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	// All in-memory bookkeeping: a monitoring poller must not stall the
	// append hot path behind directory I/O.
	return Stats{Segments: len(l.segBytes) + 1, BytesSinceCompaction: l.sinceSeal.Load(), LastSnapshot: l.lastSnap}
}

// Sync flushes everything appended so far to disk regardless of policy:
// the segments still with the retirer, then the active one. It returns the
// first failure, including a retirement's since the last Sync.
func (l *Log) Sync() error {
	l.mu.Lock()
	f := l.active // nil once closed
	l.dirty = false
	l.mu.Unlock()
	// f first, the retirer second: a roll after this point hands f itself
	// to the retirer, and every earlier segment is already in its queue.
	err := l.drainRetired()
	if f != nil {
		if ferr := l.flushActive(f); err == nil {
			err = ferr
		}
	}
	return err
}

// flushActive fsyncs f — the segment that was active when the caller held
// mu, and cleared dirty — outside mu. A failure puts dirty back, so the
// next tick retries.
func (l *Log) flushActive(f *os.File) error {
	err := l.flush(f)
	if err != nil {
		l.mu.Lock()
		l.dirty = true
		l.mu.Unlock()
	}
	return err
}

// syncLoop is the SyncInterval background flusher.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			var f *os.File
			if l.dirty && !l.closed {
				f, l.dirty = l.active, false
			}
			l.mu.Unlock()
			if f != nil {
				l.flushActive(f) // counted, and retried next tick
			}
		case <-l.stopSync:
			return
		}
	}
}

// Close flushes and closes the log, returning the first failure — a
// retirement's since the last Sync included. Appends after Close error.
// Close is idempotent — a second call is a no-op returning nil.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	active := l.active
	l.active = nil
	l.mu.Unlock()
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	var err error
	if l.retireQ != nil {
		// No roll can be sending: they check closed under mu.
		close(l.retireQ)
		<-l.retireDone
		err = l.drainRetired()
	}
	if ferr := l.flush(active); err == nil {
		err = ferr
	}
	if cerr := active.Close(); err == nil {
		err = cerr
	}
	return err
}
