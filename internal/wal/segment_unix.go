//go:build unix

package wal

import (
	"fmt"
	"os"
	"syscall"
)

// mapSegment maps the segment file at path read-only for replay. A page of
// the mapping faults if the file shrinks underneath it or the disk fails to
// return it, so whoever reads data must do so under debug.SetPanicOnFault
// (see recoverFault). A zero-byte file is nil with no mapping: mmap
// rejects length 0.
func mapSegment(path string) (data []byte, release func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() // the mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	if int64(int(size)) != size {
		return nil, nil, fmt.Errorf("%s: %d bytes do not fit the address space", path, size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, &os.PathError{Op: "mmap", Path: path, Err: err}
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
