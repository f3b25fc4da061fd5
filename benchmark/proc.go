package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wal"
)

// env is what one harness process owns outside its own memory: the server
// binary it launches, the directory it may write to, and every child and
// temp dir it has not yet cleaned up. Children are killed and dirs removed
// on normal exit and on SIGINT/SIGTERM.
type env struct {
	serverBin string
	outDir    string

	mu       sync.Mutex
	children map[*server]struct{}
	tmpDirs  map[string]struct{}
}

func newEnv(serverBin, outDir string) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{serverBin: serverBin, outDir: outDir,
		children: map[*server]struct{}{}, tmpDirs: map[string]struct{}{}}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	return e, nil
}

// cleanup kills every live child, waits for it, and removes every temp dir.
func (e *env) cleanup() {
	e.mu.Lock()
	children := make([]*server, 0, len(e.children))
	for s := range e.children {
		children = append(children, s)
	}
	dirs := make([]string, 0, len(e.tmpDirs))
	for d := range e.tmpDirs {
		dirs = append(dirs, d)
	}
	e.mu.Unlock()
	for _, s := range children {
		s.kill()
	}
	for _, d := range dirs {
		e.removeDir(d)
	}
}

// tempDir makes a fresh directory under the out dir (inside the checkout,
// so a WAL written there is on the same filesystem as the repository).
func (e *env) tempDir(prefix string) (string, error) {
	d, err := os.MkdirTemp(e.outDir, prefix+"-")
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.tmpDirs[d] = struct{}{}
	e.mu.Unlock()
	return d, nil
}

func (e *env) removeDir(d string) {
	os.RemoveAll(d)
	e.mu.Lock()
	delete(e.tmpDirs, d)
	e.mu.Unlock()
}

// serverSpec is the configuration of one collection server, in the terms
// both ways of starting it understand: flags for the mcimcollect child
// process the benchmark measures, options for the in-process server the
// smoke tests use.
type serverSpec struct {
	// framework is the frequency tier's framework, "none" to serve another
	// tier alone.
	framework      string
	classes, items int
	// mean names the numeric mean tier's protocol; empty leaves it off.
	mean string
	topk bool
	// walDir makes the server durable (interval fsync); compactAfter
	// overrides the compaction threshold when positive.
	walDir       string
	compactAfter int64
}

func (sp serverSpec) args() []string {
	a := []string{"-framework", sp.framework, "-classes", strconv.Itoa(sp.classes),
		"-eps", fmt.Sprint(benchEps), "-split", fmt.Sprint(benchSplit)}
	if sp.items > 0 {
		a = append(a, "-items", strconv.Itoa(sp.items))
	}
	if sp.mean != "" {
		a = append(a, "-mean", sp.mean)
	}
	if sp.topk {
		a = append(a, "-topk")
	}
	if sp.walDir != "" {
		a = append(a, "-wal-dir", sp.walDir, "-wal-sync", "interval")
		if sp.compactAfter > 0 {
			a = append(a, "-wal-compact-after", strconv.FormatInt(sp.compactAfter, 10))
		}
	}
	return a
}

// newCollectServer builds the same server in process.
func (sp serverSpec) newCollectServer() (*collect.Server, error) {
	var proto *core.Protocol
	if sp.framework != "none" {
		var err error
		if proto, err = core.NewProtocol(sp.framework, sp.classes, sp.items, benchEps, benchSplit); err != nil {
			return nil, err
		}
	}
	var opts []collect.ServerOption
	if sp.mean != "" {
		np, err := core.NewNumericProtocol(sp.mean, sp.classes, benchEps, benchSplit)
		if err != nil {
			return nil, err
		}
		opts = append(opts, collect.WithMean(np))
	}
	if sp.topk {
		opts = append(opts, collect.WithTopKSessions(collect.TopKOptions{}))
	}
	if sp.walDir != "" {
		opts = append(opts, collect.WithWAL(sp.walDir),
			collect.WithWALOptions(wal.Options{Sync: wal.SyncInterval}),
			collect.WithCompactAfter(sp.compactAfter))
	}
	return collect.NewServer(proto, opts...)
}

// server is one collection server on a loopback port: an mcimcollect child
// process, or (smoke tests only) a collect.Server behind httptest.
type server struct {
	env  *env
	addr string // host:port
	// started is when exec was called; ready when /healthz first answered.
	started, ready time.Time

	cmd    *exec.Cmd
	stderr *os.File
	waited chan struct{}

	inproc     *collect.Server
	inprocHTTP *httptest.Server
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it, so a collision is possible in
// principle; the server then fails to start and the run fails loudly.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer starts a server for spec and waits until /healthz answers
// 200. A child's output is appended to <out>/server-<tag>.log.
func (e *env) startServer(tag string, spec serverSpec) (*server, error) {
	s := &server{env: e, waited: make(chan struct{})}
	if e.serverBin == "" {
		s.started = time.Now()
		srv, err := spec.newCollectServer()
		if err != nil {
			return nil, err
		}
		s.inproc, s.inprocHTTP = srv, httptest.NewServer(srv.Handler())
		s.addr = s.inprocHTTP.Listener.Addr().String()
		close(s.waited)
	} else {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		logf, err := os.OpenFile(filepath.Join(e.outDir, "server-"+tag+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		s.addr, s.stderr = "127.0.0.1:"+strconv.Itoa(port), logf
		s.cmd = exec.Command(e.serverBin, append([]string{"-serve", "-addr", s.addr, "-log-level", "warn"}, spec.args()...)...)
		s.cmd.Stderr = logf
		s.cmd.Stdout = logf
		s.started = time.Now()
		if err := s.cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("start %s: %w", e.serverBin, err)
		}
		go func() {
			s.cmd.Wait()
			close(s.waited)
		}()
	}
	e.mu.Lock()
	e.children[s] = struct{}{}
	e.mu.Unlock()
	if err := s.waitReady(60 * time.Second); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

// waitReady polls /healthz on a fresh connection every 500µs until it
// answers 200, the child exits, or the timeout passes.
func (s *server) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s.cmd != nil {
			select {
			case <-s.waited:
				return fmt.Errorf("server exited before becoming ready (see %s)", s.stderr.Name())
			default:
			}
		}
		if c, err := dial(s.addr); err == nil {
			status, _, _, err := c.do(getRequest("/healthz"), nil, false)
			c.close()
			if err == nil && status == 200 {
				s.ready = time.Now()
				return nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("server not ready after %v", timeout)
}

// kill stops the server without giving it a chance to shut down cleanly
// (SIGKILL for a child; an in-process server can only be closed) and waits
// until it is gone. Safe to call more than once.
func (s *server) kill() {
	s.env.mu.Lock()
	_, live := s.env.children[s]
	delete(s.env.children, s)
	s.env.mu.Unlock()
	if !live {
		return
	}
	if s.cmd == nil {
		s.inprocHTTP.Close()
		s.inproc.Close()
		return
	}
	s.cmd.Process.Kill()
	<-s.waited
	s.stderr.Close()
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux architecture Go supports.
const clockTick = 100

// cpu returns the child's user and system CPU seconds so far.
func (s *server) cpu() (user, sys float64, err error) {
	if s.cmd == nil {
		return 0, 0, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, 12 and 13 after the name.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("bad /proc stat cpu fields %q %q", f[11], f[12])
	}
	return ut / clockTick, st / clockTick, nil
}

// rssPeakMB returns the child's peak resident set (VmHWM) in MiB.
func (s *server) rssPeakMB() (float64, error) {
	if s.cmd == nil {
		return 0, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bad VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// selfCPU returns this process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// getJSON fetches path on a fresh connection and decodes the body into out.
func (s *server) getJSON(path string, out any) error {
	body, err := s.get(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, out)
}

// get fetches path on a fresh connection and returns the body of a 200.
func (s *server) get(path string) ([]byte, error) {
	c, err := dial(s.addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, _, err := c.do(getRequest(path), nil, true)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if status != 200 {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, status, bytes.TrimSpace(body))
	}
	return body, nil
}

// metrics scrapes /metrics into series-key → value.
func (s *server) metrics() (map[string]float64, error) {
	body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	expo, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	return expo.Samples(), nil
}

// sumSeries adds up every series of one metric family in a scrape,
// whatever its labels.
func sumSeries(samples map[string]float64, name string) float64 {
	total := 0.0
	for key, v := range samples {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}
