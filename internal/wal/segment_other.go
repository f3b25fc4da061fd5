//go:build !unix

package wal

import "os"

// mapSegment reads the segment file at path into memory: the fallback
// where segments are not mapped (see segment_unix.go). Nothing is mapped, so
// release has nothing to do.
func mapSegment(path string) (data []byte, release func() error, err error) {
	data, err = os.ReadFile(path)
	return data, func() error { return nil }, err
}
