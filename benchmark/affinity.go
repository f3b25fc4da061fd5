package main

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// The two workloads that are one client waiting for each reply
// (mean_bin_wal, topk_session_bin) run generator and server on ONE core.
// Left to both cores of a virtual machine, every exchange is two cross-CPU
// wake-ups of a halted virtual CPU, and what the host charges for those
// moves from one minute to the next: in interleaved A/A runs the server's
// CPU time per report was 1.6 times higher and the run-to-run spread of
// throughput four times wider than on one core, where the hand-over is a
// context switch the guest kernel does on its own. A child inherits the
// affinity of the thread that forks it, so confining the harness before
// set-up confines the server too, and the server's Go runtime sizes itself
// to the one core it is given.

// cpuMask is a sched_setaffinity bit set wide enough for 1,024 CPUs.
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	return m
}

// allowedCPUs returns the CPUs thread tid may run on; 0 is the caller.
func allowedCPUs(tid int) ([]int, error) {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity(%d): %w", tid, errno)
	}
	var cpus []int
	for c := 0; c < 64*len(m); c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// setAffinity confines thread tid to cpus.
func setAffinity(tid int, cpus []int) error {
	m := maskOf(cpus)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return fmt.Errorf("sched_setaffinity(%d, %v): %w", tid, cpus, errno)
	}
	return nil
}

// confineProcess confines every thread of this process except the one with
// id except to cpus. Threads the runtime starts later are cloned from one of
// these and inherit its mask; two passes catch one started in between.
func confineProcess(cpus []int, except int) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil || tid == except {
				continue
			}
			// A thread may exit between the listing and the call.
			if err := setAffinity(tid, cpus); err != nil && !errors.Is(err, syscall.ESRCH) {
				return err
			}
		}
	}
	return nil
}
