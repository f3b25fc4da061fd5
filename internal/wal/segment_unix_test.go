//go:build unix

package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReplaySegmentChangedUnderMapping: a segment truncated while replay
// has it mapped makes every page of the mapping fault. The replay must
// return an error naming the segment, and the process must live on —
// tenant logs replay inside a running server.
func TestReplaySegmentChangedUnderMapping(t *testing.T) {
	// Replay walks the segments on the caller's goroutine: one worker.
	t.Run("workers=1", func(t *testing.T) {
		dir := t.TempDir()
		var frames []byte
		for i := 0; i < 64; i++ { // 64 KiB: sixteen 4 KiB pages
			frames = append(frames, frameOf(bytes.Repeat([]byte{byte(i)}, 1024-8))...)
		}
		path := filepath.Join(dir, "seg-00000001.wal")
		if err := os.WriteFile(path, frames, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Sync: SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()

		// The first record truncates the segment, so the walk's read of the
		// next frame faults.
		calls := 0
		err = l.Replay(nil, func([]byte) error {
			if calls++; calls == 1 {
				return os.Truncate(path, 0)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Fatalf("replay of a segment truncated underneath it returned %v, want an error naming %s", err, path)
		}
		if calls != 1 {
			t.Fatalf("replay applied %d records, want only the one before the truncation", calls)
		}
	})
}

// TestMapSegmentEmpty: mmap rejects length 0, and every Open leaves an
// empty segment behind until the next one, so an empty file maps to no
// bytes and no mapping.
func TestMapSegmentEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg-00000001.wal")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	data, release, err := mapSegment(path)
	if err != nil || data != nil {
		t.Fatalf("mapSegment(empty) = %d bytes, %v; want none and no error", len(data), err)
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
}
