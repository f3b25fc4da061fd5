package main

import (
	"hash/crc32"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box this benchmark runs on does not hold one speed. Measured idle,
// the CPU time a fixed piece of work needs drifts by ±20 % over minutes
// (shared cores, frequency steps), and every time-based metric of every
// workload drifts with it: server CPU seconds per report and wall-clock
// throughput move in lockstep. Two sets of runs of the same code taken ten
// minutes apart differed by 20 % in their medians, which no bound a
// regression gate could use would survive.
//
// So every run carries its own yardstick. A probe thread runs a fixed,
// self-contained kernel (no code of the repository, so no change to the
// repository can move it) for two to three milliseconds ten times a second,
// through set-up and through the timed window, and takes the CPU time of
// its own thread for it. CPU time rather than wall time, so that waiting
// for a core behind the server or the generator does not count: what is
// left is how many nanoseconds the same instructions cost right now. The
// median of those over an interval, divided by a fixed nominal cost, is the
// interval's slowdown, and the time-based end-to-end metrics are reported
// at nominal speed: times divided by the slowdown, rates multiplied by it.
// The raw values and the slowdown itself are in the run record.

// probeNominalNs is the CPU time one probe kernel costs on the reference
// box at its usual speed. Only ratios to it are used; it is a constant so
// that runs of different commits share one scale.
const probeNominalNs = 2.5e6

const probeEvery = 100 * time.Millisecond

type probeSample struct {
	at    time.Time
	cpuNs float64
}

type speedProbe struct {
	// tid is the probe's OS thread, so the harness can place it on a core.
	tid     int
	mu      sync.Mutex
	samples []probeSample
	stop    chan struct{}
	done    chan struct{}
}

// probeKernel is the fixed work: a xorshift walk doing byte updates over a
// 64 KB table (ALU plus L1/L2 traffic, like the aggregators' count updates)
// and a CRC over the table (like every frame and WAL record).
func probeKernel(table []byte) uint32 {
	x := uint64(88172645463325252)
	for i := 0; i < 1_800_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&0xffff] += byte(x)
	}
	return crc32.Checksum(table, probeCRC)
}

var probeCRC = crc32.MakeTable(crc32.Castagnoli)

// threadCPU returns the calling thread's CPU time so far, from
// CLOCK_THREAD_CPUTIME_ID. getrusage(RUSAGE_THREAD) would need no unsafe,
// but it reports the scheduler's total as of the last tick or context
// switch, so a 2 ms burst on an otherwise idle thread reads as 0 or as a
// whole tick; the clock includes the time since.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func startSpeedProbe() *speedProbe {
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	started := make(chan struct{})
	go func() {
		defer close(p.done)
		// Locked and never unlocked: the thread may have been moved to a core
		// of its own (harness.confine) and must not go back to the pool.
		runtime.LockOSThread()
		p.tid = syscall.Gettid()
		close(started)
		table := make([]byte, 1<<16)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			c0 := threadCPU()
			probeKernel(table)
			cpu := threadCPU() - c0
			p.mu.Lock()
			p.samples = append(p.samples, probeSample{at: time.Now(), cpuNs: float64(cpu)})
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	<-started
	return p
}

func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// cpuBetween returns the CPU seconds the probe itself spent between from and
// to. The probe lives in the generator's process but generates no load, so
// its time is taken out of the generator's account.
func (p *speedProbe) cpuBetween(from, to time.Time) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0.0
	for _, s := range p.samples {
		if !s.at.Before(from) && !s.at.After(to) {
			total += s.cpuNs
		}
	}
	return total / 1e9
}

// minProbes is how few probes a slowdown may rest on. One probe is a
// 2 ms look at a box whose speed wobbles from one millisecond to the next.
const minProbes = 7

// slowdown returns how many times slower than nominal the box ran between
// from and to: the median probe cost in the interval over the nominal cost.
// An interval too short to hold minProbes probes (a 100 ms set-up) borrows
// the probes nearest to it in time.
func (p *speedProbe) slowdown(from, to time.Time) float64 {
	p.mu.Lock()
	samples := append([]probeSample(nil), p.samples...)
	p.mu.Unlock()
	if len(samples) == 0 {
		return 1
	}
	// Distance of a probe from the interval; 0 inside it.
	dist := func(s probeSample) time.Duration {
		switch {
		case s.at.Before(from):
			return from.Sub(s.at)
		case s.at.After(to):
			return s.at.Sub(to)
		}
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return dist(samples[i]) < dist(samples[j]) })
	var in []float64
	for i, s := range samples {
		if i >= minProbes && dist(s) > 0 {
			break
		}
		in = append(in, s.cpuNs)
	}
	return median(in) / probeNominalNs
}
