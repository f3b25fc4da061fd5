package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// collectReplay replays l into memory.
func collectReplay(t *testing.T, l *Log) (snapshot []byte, records [][]byte) {
	t.Helper()
	err := l.Replay(
		func(s []byte) error { snapshot = bytes.Clone(s); return nil },
		func(r []byte) error { records = append(records, bytes.Clone(r)); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	return snapshot, records
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, got := collectReplay(t, l2)
	if snap != nil {
		t.Fatal("unexpected snapshot in fresh log")
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestSegmentRollAndStats(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec := bytes.Repeat([]byte{'x'}, 40) // 48-byte frames: one per segment
	for i := 0; i < 5; i++ {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected multiple segments, got %d", st.Segments)
	}
	if st.BytesSinceCompaction != 5*48 {
		t.Fatalf("bytes since compaction %d, want %d", st.BytesSinceCompaction, 5*48)
	}
	if !st.LastSnapshot.IsZero() {
		t.Fatal("never-compacted log claims a snapshot time")
	}
}

// TestTornTailIsTruncated simulates a kill mid-write: garbage after the last
// intact frame must be dropped, records before it preserved.
func TestTornTailIsTruncated(t *testing.T) {
	for name, tear := range map[string][]byte{
		"partial header": {0x10, 0x00},
		"length past end": func() []byte {
			b := []byte{0xff, 0xff, 0x00, 0x00, 1, 2, 3, 4}
			return append(b, []byte("short")...)
		}(),
		"crc mismatch": func() []byte {
			b := []byte{4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}
			return append(b, []byte("data")...)
		}(),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			l.Append([]byte("alpha"))
			l.Append([]byte("beta"))
			l.Close()

			// Tear the tail of the only non-empty segment.
			segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("glob: %v (%d segments)", err, len(segs))
			}
			sort.Strings(segs)
			f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(tear)
			f.Close()

			l2, err := Open(dir, Options{Sync: SyncNever})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			_, records := collectReplay(t, l2)
			if len(records) != 2 || !bytes.Equal(records[0], []byte("alpha")) || !bytes.Equal(records[1], []byte("beta")) {
				t.Fatalf("replayed %q, want the two intact records", records)
			}
		})
	}
}

// TestCompaction checks the Roll + Seal contract: the snapshot replaces the
// covered segments, later records replay on top, and older files are gone.
func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Append([]byte(fmt.Sprintf("pre-%d", i)))
	}
	cover, err := l.Roll()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(cover, []byte("state-after-10")); err != nil {
		t.Fatal(err)
	}
	if got := l.BytesSinceSeal(); got != 0 {
		t.Fatalf("bytes since seal %d right after compaction", got)
	}
	for i := 0; i < 3; i++ {
		l.Append([]byte(fmt.Sprintf("post-%d", i)))
	}
	st := l.Stats()
	if st.LastSnapshot.IsZero() {
		t.Fatal("stats missing snapshot time after seal")
	}
	l.Close()

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, records := collectReplay(t, l2)
	if !bytes.Equal(snap, []byte("state-after-10")) {
		t.Fatalf("snapshot %q", snap)
	}
	if len(records) != 3 {
		t.Fatalf("replayed %d tail records, want 3", len(records))
	}
	for i, rec := range records {
		if want := fmt.Sprintf("post-%d", i); string(rec) != want {
			t.Fatalf("tail record %d = %q, want %q", i, rec, want)
		}
	}
	// The pre-compaction segments must actually be gone.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	for _, s := range segs {
		var seq int
		fmt.Sscanf(filepath.Base(s), "seg-%08d.wal", &seq)
		if seq < cover {
			t.Fatalf("segment %s survived compaction covering %d", s, cover)
		}
	}
}

// TestCorruptSnapshotFallsBack: a torn snapshot file must not make replay
// fail — the previous snapshot (or raw records) still reconstruct state.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("kept"))
	cover, _ := l.Roll()
	if err := l.Seal(cover, []byte("good-snapshot")); err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("tail"))
	l.Close()

	// Drop a corrupt, newer snapshot alongside the good one.
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", cover+5)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, records := collectReplay(t, l2)
	if !bytes.Equal(snap, []byte("good-snapshot")) {
		t.Fatalf("snapshot %q, want fallback to the good one", snap)
	}
	if len(records) != 1 || string(records[0]) != "tail" {
		t.Fatalf("records %q, want [tail]", records)
	}
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus sync policy accepted")
	}
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Sync: pol, SyncEvery: 1})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if err := l.Append([]byte("rec")); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		// Close is idempotent — a second call (the natural defer-plus-
		// explicit-shutdown pattern) must not panic or error.
		if err := l.Close(); err != nil {
			t.Fatalf("%s: second close: %v", pol, err)
		}
		if err := l.Append([]byte("after close")); err == nil {
			t.Fatalf("%s: append after close succeeded", pol)
		}
	}
}

// TestReplayAppliesRecordsInOrder pins Replay's contract: the latest
// snapshot first, then every intact record in the exact order it was
// appended, across segment boundaries, with the torn tail clipped.
func TestReplayAppliesRecordsInOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		l.Append([]byte(fmt.Sprintf("pre-%03d", i)))
	}
	cover, err := l.Roll()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(cover, []byte("snapshot-state")); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 200; i++ {
		rec := fmt.Sprintf("tail-%03d", i)
		want = append(want, rec)
		l.Append([]byte(rec))
	}
	l.Close()

	// Tear the tail of the newest segment: one garbage half-frame that
	// replay must clip.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("glob: %v (%d segments, want multiple)", err, len(segs))
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0xff, 0x00, 0x00, 1, 2, 3})
	f.Close()

	replayAll := func(t *testing.T) (snapshot []byte, records []string) {
		t.Helper()
		l, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		err = l.Replay(
			func(s []byte) error { snapshot = bytes.Clone(s); return nil },
			func(r []byte) error { records = append(records, string(r)); return nil },
		)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot, records
	}

	snap, records := replayAll(t)
	if !bytes.Equal(snap, []byte("snapshot-state")) {
		t.Fatalf("snapshot %q", snap)
	}
	if !slices.Equal(records, want) {
		t.Fatalf("replayed %d records %q..., want the %d appended, in order", len(records), records[:min(len(records), 3)], len(want))
	}

	// One more input (replayAll opens dir): a log without a snapshot whose
	// data segments alternate with zero-byte ones, as restarts that
	// appended nothing leave them. Open deletes those; no record may go
	// with them, and none may move.
	dir = t.TempDir()
	want = want[:0]
	seq := 1
	writeSeg := func(data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%08d.wal", seq)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	for s := 0; s < 10; s++ {
		writeSeg(nil)
		var seg []byte
		for i := 0; i < 10; i++ {
			rec := fmt.Sprintf("spread-%d-%d", s, i)
			want = append(want, rec)
			seg = append(seg, frameOf([]byte(rec))...)
		}
		writeSeg(seg)
	}
	writeSeg(nil)
	if snap, records := replayAll(t); snap != nil || !slices.Equal(records, want) {
		t.Fatalf("interleaved empty segments replayed snapshot %q and records %q, want none and %q", snap, records, want)
	}
}

// TestIdleRestartsLeaveOneSegment: every Open starts a segment, and a run
// that appends nothing leaves it empty. The next Open deletes it, so
// restarts of an idle log do not pile segments up for replay and /stats.
func TestIdleRestartsLeaveOneSegment(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		if st := l.Stats(); st.Segments != 1 {
			t.Fatalf("open %d: Stats().Segments = %d, want 1", i+1, st.Segments)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments on disk after five idle restarts: %v (%v), want one", segs, err)
	}
	// Numbering still moves on: a new segment never reuses a deleted name.
	if got := filepath.Base(segs[0]); got != "seg-00000005.wal" {
		t.Fatalf("last idle segment is %s, want seg-00000005.wal", got)
	}
}

// TestReplayCountsRecordsAndBytes: the replay metrics count each intact
// record once and its framed size, and not the torn tail.
func TestReplayCountsRecordsAndBytes(t *testing.T) {
	dir := t.TempDir()
	var frames []byte
	for i := 0; i < 30; i++ {
		frames = append(frames, frameOf(bytes.Repeat([]byte{byte(i)}, 100*i))...)
	}
	torn := frameOf([]byte("torn"))[:10]
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), append(frames, torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	var records, size testCounter
	l, err := Open(dir, Options{Sync: SyncNever, Metrics: &Metrics{ReplayedRecords: &records, ReplayedBytes: &size}})
	if err != nil {
		t.Fatal(err)
	}
	err = l.Replay(nil, func([]byte) error { return nil })
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if records.Load() != 30 || size.Load() != int64(len(frames)) {
		t.Fatalf("counted %d records, %d bytes; want 30, %d", records.Load(), size.Load(), len(frames))
	}
}

// TestReplayPropagatesErrors: a failing onRecord must surface and stop the
// replay: no record after it is applied.
func TestReplayPropagatesErrors(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		l.Append([]byte(fmt.Sprintf("rec-%02d", i)))
	}
	l.Close()

	l2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	boom := fmt.Errorf("poisoned record")
	var last string
	err = l2.Replay(nil, func(r []byte) error {
		last = string(r)
		if last == "rec-25" {
			return boom
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "poisoned record") {
		t.Fatalf("replay error = %v, want the onRecord failure", err)
	}
	if last != "rec-25" {
		t.Fatalf("replay went on to %q after the failing record", last)
	}
}
