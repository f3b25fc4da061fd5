package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// These tests pin what moved when the log mutex stopped covering flushes:
// who may proceed while an fsync is stuck, who may not, that nothing is
// lost or double-counted under concurrent appends, rolls and seals, that
// the bytes on disk did not change, and that a failing disk is reported.
// They drive flushes through Options.syncFile, the package's one seam.

// testCounter is an Adder.
type testCounter struct{ atomic.Int64 }

func (c *testCounter) Add(d int64) { c.Int64.Add(d) }

type testMetrics struct {
	fsyncs, syncErrors, rolls testCounter
}

func (m *testMetrics) hooks() *Metrics {
	return &Metrics{Fsyncs: &m.fsyncs, SyncErrors: &m.syncErrors, Rolls: &m.rolls}
}

// stuck waits for done on behalf of a test that expects it promptly; the
// bound only turns a deadlock into a failure instead of a package timeout.
func stuck(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not complete", what)
	}
}

// gate is a syncFile hook that holds the flush of files whose base name
// matches, until released.
type gate struct {
	match    func(base string) bool
	entered  chan struct{} // closed when the first matching flush arrives
	release  chan struct{}
	enterOne sync.Once
}

func newGate(match func(string) bool) *gate {
	return &gate{match: match, entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) sync(f *os.File) error {
	if g.match(filepath.Base(f.Name())) {
		g.enterOne.Do(func() { close(g.entered) })
		<-g.release
	}
	return f.Sync()
}

func isSegment(base string) bool  { return strings.HasSuffix(base, ".wal") }
func isSnapshot(base string) bool { return strings.HasPrefix(base, "snap-") }

func TestAppendNotBlockedBySealFlush(t *testing.T) {
	g := newGate(isSnapshot)
	l, err := Open(t.TempDir(), Options{Sync: SyncNever, syncFile: g.sync})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	cover, err := l.Roll()
	if err != nil {
		t.Fatal(err)
	}
	sealed := make(chan error, 1)
	go func() { sealed <- l.Seal(cover, []byte("state")) }()
	stuck(t, g.entered, "the seal's snapshot flush")

	appended := make(chan struct{})
	go func() {
		defer close(appended)
		if err := l.Append([]byte("during")); err != nil {
			t.Error(err)
		}
		l.Stats()
		l.BytesSinceSeal()
	}()
	stuck(t, appended, "Append while a Seal's snapshot fsync is blocked")

	close(g.release)
	if err := <-sealed; err != nil {
		t.Fatal(err)
	}
	if got, want := l.BytesSinceSeal(), int64(8+len("during")); got != want {
		t.Fatalf("bytes since seal %d, want %d (the record appended during the seal)", got, want)
	}
}

func TestAppendNotBlockedByRetireFlush(t *testing.T) {
	g := newGate(isSegment)
	l, err := Open(t.TempDir(), Options{Sync: SyncNever, SegmentBytes: 64, Commutative: true, syncFile: g.sync})
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{'x'}, 40) // 48-byte frames: one per segment
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for i := 0; i < 3; i++ { // two rolls, the first one's flush held
			if err := l.Append(rec); err != nil {
				t.Error(err)
			}
		}
	}()
	stuck(t, g.entered, "the retirement of the first segment")
	stuck(t, appended, "Append while an outgoing segment's fsync is blocked")
	close(g.release)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOrderedRollFlushesBeforeNextWrite: on an ordered log, and on any log
// under SyncAlways, no byte reaches segment N+1 before N's flush returned.
func TestOrderedRollFlushesBeforeNextWrite(t *testing.T) {
	for name, opts := range map[string]Options{
		"ordered-interval":   {Sync: SyncInterval, SyncEvery: time.Hour}, // no tick: it may flush a segment a roll just replaced
		"ordered-never":      {Sync: SyncNever},
		"commutative-always": {Sync: SyncAlways, Commutative: true},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var retired, early atomic.Int64
			nextSize := func(f *os.File) int64 {
				var seq int
				if !matchSeq(filepath.Base(f.Name()), "seg-%08d.wal", &seq) {
					return 0
				}
				fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", seq+1)))
				if err != nil {
					return 0 // not rolled: f is the active segment
				}
				retired.Add(1)
				return fi.Size()
			}
			opts.SegmentBytes = 256
			opts.syncFile = func(f *os.File) error {
				early.Add(nextSize(f))
				err := f.Sync()
				early.Add(nextSize(f))
				return err
			}
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						if err := l.Append(bytes.Repeat([]byte{'r'}, 40)); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if retired.Load() == 0 {
				t.Fatal("no outgoing segment was flushed: the test rolled nothing")
			}
			if n := early.Load(); n != 0 {
				t.Fatalf("%d bytes reached a segment before its predecessor's flush returned", n)
			}
		})
	}
}

// dirState is what a fresh scan of the directory says Stats should be.
func dirState(t *testing.T, dir string) (segments int, sinceSeal int64) {
	t.Helper()
	l := &Log{dir: dir}
	segs, snaps, err := l.scan()
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range segs {
		fi, err := os.Stat(l.segPath(seq))
		if err != nil {
			t.Fatal(err)
		}
		if seq >= coveredSeq(snaps) {
			sinceSeal += fi.Size()
		}
	}
	return len(segs), sinceSeal
}

// TestConcurrentAppendRollSeal: appenders, a compactor and Stats readers at
// once. Whatever was acknowledged — and nothing else — comes back, both
// from a reopen beside the still-open log (a kill -9: nothing flushed or
// closed) and after a clean Close, and the in-memory segment and byte
// counts agree with the directory.
func TestConcurrentAppendRollSeal(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"commutative-interval", Options{Sync: SyncInterval, SyncEvery: time.Millisecond, Commutative: true}},
		{"commutative-never", Options{Sync: SyncNever, Commutative: true}},
		{"ordered-interval", Options{Sync: SyncInterval, SyncEvery: time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const appenders, perAppender = 4, 300
			dir := t.TempDir()
			opts := tc.opts
			opts.SegmentBytes = 512
			l, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}

			// ingest orders an append and its acknowledgement against the
			// compactor's roll+snapshot, as the server's ingestMu does.
			var (
				ingest sync.RWMutex
				ackMu  sync.Mutex
				acked  []string
			)
			var wg sync.WaitGroup
			for w := 0; w < appenders; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perAppender; i++ {
						rec := fmt.Sprintf("w%d-%04d", w, i)
						ingest.RLock()
						var err error
						if i%2 == 0 {
							err = l.Append([]byte(rec))
						} else {
							err = l.AppendTyped(rec[0], []byte(rec[1:]))
						}
						if err == nil {
							ackMu.Lock()
							acked = append(acked, rec)
							ackMu.Unlock()
						} else {
							t.Error(err)
						}
						ingest.RUnlock()
					}
				}(w)
			}
			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(2)
			go func() { // compactor
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					ingest.Lock()
					cover, err := l.Roll()
					ackMu.Lock()
					snap := strings.Join(acked, "\n")
					ackMu.Unlock()
					ingest.Unlock()
					if err == nil {
						err = l.Seal(cover, []byte(snap))
					}
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
			go func() { // monitoring poller
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						if st := l.Stats(); st.Segments < 1 || st.BytesSinceCompaction < 0 || l.BytesSinceSeal() < 0 {
							t.Errorf("stats %+v", st)
							return
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			bg.Wait()

			sort.Strings(acked)
			if len(acked) != appenders*perAppender {
				t.Fatalf("%d records acknowledged, want %d", len(acked), appenders*perAppender)
			}
			segments, sinceSeal := dirState(t, dir)
			if st := l.Stats(); st.Segments != segments || st.BytesSinceCompaction != sinceSeal || l.BytesSinceSeal() != sinceSeal {
				t.Fatalf("stats %+v, directory has %d segments and %d bytes past the snapshot", st, segments, sinceSeal)
			}

			recovered := func(when string) {
				t.Helper()
				l2, err := Open(dir, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer l2.Close()
				snap, records := collectReplay(t, l2)
				var got []string
				if len(snap) > 0 {
					got = strings.Split(string(snap), "\n")
				}
				for _, r := range records {
					got = append(got, string(r))
				}
				sort.Strings(got)
				if len(got) != len(acked) {
					t.Fatalf("%s: recovered %d records, acknowledged %d", when, len(got), len(acked))
				}
				for i := range acked {
					if got[i] != acked[i] {
						t.Fatalf("%s: recovered multiset diverges at %q vs %q", when, got[i], acked[i])
					}
				}
			}
			recovered("reopen without Close")
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			recovered("reopen after Close")
		})
	}
}

// frameOf is the record framing as the parent commit wrote it, spelt out
// independently of the log's own code: len[u32] crc32c[u32] record.
func frameOf(record []byte) []byte {
	out := make([]byte, 8, 8+len(record))
	binary.LittleEndian.PutUint32(out[:4], uint32(len(record)))
	binary.LittleEndian.PutUint32(out[4:], crc32.Checksum(record, crc32.MakeTable(crc32.Castagnoli)))
	return append(out, record...)
}

// TestTypedAppendBytesOnDisk: AppendTyped(typ, payload) and
// Append(typ‖payload) leave the same bytes — the parent commit's — so
// either side's files replay on the other.
func TestTypedAppendBytesOnDisk(t *testing.T) {
	payloads := [][]byte{nil, []byte("p"), bytes.Repeat([]byte{0xa5}, 66_000)}
	var want []byte
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if i == 0 {
				err = l.AppendTyped('W', p)
			} else {
				err = l.Append(append([]byte{'W'}, p...))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range payloads {
		want = append(want, frameOf(append([]byte{'W'}, p...))...)
	}
	for _, dir := range dirs {
		got, err := os.ReadFile(filepath.Join(dir, "seg-00000001.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: segment bytes differ from the parent's framing", dir)
		}
	}
}

// TestParentWrittenLogReplays builds a directory the way the parent commit
// left one — a snapshot, a covered leftover segment, two tail segments, a
// torn last frame — byte by byte, and replays it.
func TestParentWrittenLogReplays(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("seg-00000002.wal", frameOf([]byte("covered")))
	write("snap-00000003.snap", frameOf([]byte("state")))
	write("seg-00000003.wal", append(frameOf([]byte("Wone")), frameOf([]byte("Etwo"))...))
	write("seg-00000004.wal", append(frameOf([]byte("Bthree")), frameOf([]byte("torn"))[:10]...))

	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if st := l.Stats(); st.Segments != 4 || st.BytesSinceCompaction != int64(12+12+14+10) {
		t.Fatalf("stats %+v after opening the parent's directory", st)
	}
	snap, records := collectReplay(t, l)
	if string(snap) != "state" {
		t.Fatalf("snapshot %q", snap)
	}
	if got := fmt.Sprintf("%s", records); got != "[Wone Etwo Bthree]" {
		t.Fatalf("replayed %s", got)
	}
}

// TestFailedUnlinkStaysCounted: a covered segment Seal could not remove is
// still a segment on disk; Stats says so and the next Seal tries again.
func TestFailedUnlinkStaysCounted(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Append([]byte("one"))
	cover, err := l.Roll()
	if err != nil {
		t.Fatal(err)
	}
	// A non-empty directory in the segment's place: os.Remove fails on it.
	seg1 := filepath.Join(dir, "seg-00000001.wal")
	if err := os.Remove(seg1); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(seg1, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(cover, []byte("s1")); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.Segments != 2 || st.BytesSinceCompaction != 0 {
		t.Fatalf("stats %+v with an unremovable covered segment, want it counted and outside the tail", st)
	}
	if err := os.Remove(filepath.Join(seg1, "pin")); err != nil {
		t.Fatal(err)
	}
	cover, err = l.Roll()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(cover, []byte("s2")); err != nil {
		t.Fatal(err)
	}
	if segments, _ := dirState(t, dir); segments != 1 || l.Stats().Segments != 1 {
		t.Fatalf("after the retry the directory has %d segments, stats say %d; want 1 and 1", segments, l.Stats().Segments)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); len(snaps) != 1 {
		t.Fatalf("snapshots on disk %v, want only the latest", snaps)
	}
}

var errDisk = errors.New("injected fsync failure")

// TestIntervalFlushFailureIsCountedAndRetried: a failing tick is an error
// counted, not an fsync counted, and leaves the log dirty so the next tick
// tries again; Sync reports the failure while it lasts.
func TestIntervalFlushFailureIsCountedAndRetried(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	failed := make(chan struct{}, 1)
	var m testMetrics
	l, err := Open(t.TempDir(), Options{Sync: SyncInterval, SyncEvery: time.Millisecond, Metrics: m.hooks(),
		syncFile: func(f *os.File) error {
			if !failing.Load() {
				return f.Sync()
			}
			select {
			case failed <- struct{}{}:
			default:
			}
			return errDisk
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append([]byte("rec")); err != nil {
		t.Fatal(err)
	}
	// One append, then at least three failed flushes: only a log that stays
	// dirty after a failed tick asks for the second and third.
	for i := 0; i < 3; i++ {
		select {
		case <-failed:
		case <-time.After(30 * time.Second):
			t.Fatalf("flush %d never retried after a failure", i+1)
		}
	}
	if err := l.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("Sync on a failing disk = %v", err)
	}
	if m.syncErrors.Load() < 3 || m.fsyncs.Load() != 0 {
		t.Fatalf("%d sync errors and %d fsyncs counted, want >= 3 and 0", m.syncErrors.Load(), m.fsyncs.Load())
	}
	failing.Store(false)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if m.fsyncs.Load() == 0 {
		t.Fatal("successful flush not counted")
	}
}

// TestRetireFailureIsReported: a rolled segment whose flush fails is
// counted either way; a commutative log reports it from the next Sync (or
// Close), an ordered one fails the append that rolled and moves on to a
// fresh segment.
func TestRetireFailureIsReported(t *testing.T) {
	rec := bytes.Repeat([]byte{'x'}, 40) // 48-byte frames: one per segment
	open := func(t *testing.T, commutative bool, m *testMetrics) *Log {
		t.Helper()
		l, err := Open(t.TempDir(), Options{Sync: SyncNever, SegmentBytes: 64, Commutative: commutative, Metrics: m.hooks(),
			syncFile: func(f *os.File) error {
				if filepath.Base(f.Name()) == "seg-00000001.wal" {
					return errDisk
				}
				return f.Sync()
			}})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	t.Run("commutative", func(t *testing.T) {
		var m testMetrics
		l := open(t, true, &m)
		for i := 0; i < 2; i++ {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Sync(); !errors.Is(err, errDisk) {
			t.Fatalf("Sync after a failed retirement = %v", err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("second Sync = %v, want the failure reported once", err)
		}
		if m.syncErrors.Load() != 1 {
			t.Fatalf("%d sync errors counted, want 1", m.syncErrors.Load())
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("commutative-close", func(t *testing.T) {
		var m testMetrics
		l := open(t, true, &m)
		for i := 0; i < 2; i++ {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); !errors.Is(err, errDisk) {
			t.Fatalf("Close after a failed retirement = %v", err)
		}
	})
	t.Run("ordered", func(t *testing.T) {
		var m testMetrics
		l := open(t, false, &m)
		defer l.Close()
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec); !errors.Is(err, errDisk) {
			t.Fatalf("append that rolled past a failing flush = %v", err)
		}
		if err := l.Append(rec); err != nil {
			t.Fatalf("append after the failed roll = %v", err)
		}
		if m.syncErrors.Load() != 1 || m.rolls.Load() != 2 {
			t.Fatalf("%d sync errors, %d rolls; want 1 and 2 (the failed roll, then a fresh segment)", m.syncErrors.Load(), m.rolls.Load())
		}
	})
}
