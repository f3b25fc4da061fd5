package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/mean"
	"repro/internal/topk"
)

// A workload is one traffic mix against one freshly started server. The
// five below were chosen so that each stresses layers the others leave
// idle; README.md says which and why.
type workload struct {
	name string
	// tailP is the percentile tail.op_tail_ms reports for this workload: the
	// highest one its sample count supports with ten samples beyond it in
	// every window. Fixed per workload so the definition cannot drift when a
	// change moves the sample count.
	tailP float64
	// oneCore runs generator and server together on a single core over a
	// single connection: the workloads whose operations are small round
	// trips, which on two cores time the hypervisor's wake-ups (affinity.go).
	oneCore bool
	setup   func(h *harness, seed uint64) (instance, error)
}

// instance is a workload set up and ready to be measured.
type instance interface {
	// run drives the workload for d and reports what it saw. It may be
	// called more than once (untraced, then traced); state accumulates.
	run(d time.Duration, tr *tracer) (*runResult, error)
	// verify is the correctness gate: the server's state against an
	// offline computation over exactly the bytes that were acknowledged.
	verify() error
	// server is the process currently serving (for CPU, RSS, /metrics).
	server() *server
	close()
}

var workloads = []workload{
	{name: "freq_bin_wal", tailP: 0.99, setup: setupFreqBinWAL},
	{name: "mean_bin_wal", tailP: 0.99, oneCore: true, setup: setupMeanBinWAL},
	{name: "query_mixed", tailP: 0.9, setup: setupQueryMixed},
	{name: "recover_wal", tailP: 0.75, setup: setupRecoverWAL},
	{name: "topk_session_bin", tailP: 0.9, oneCore: true, setup: setupTopKSession},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one primary-operation latency and when (seconds into the
// window) the operation completed.
type sample struct {
	at, ms float64
}

// runResult is what one timed window produced.
type runResult struct {
	attempted, failed int
	// reports the server processed for the operations timed in wall.
	reports int64
	// reportsPerOp is set by the closed-loop ingest workloads, where every
	// operation carries the same number of reports and the operations fill
	// the window: their rate is then taken slice by slice (see sliceRate).
	reportsPerOp int64
	// openLoop marks a window whose report rate was set by the generator's
	// schedule, not by how fast the server answered: it is the wall-clock
	// rate that was offered, and is not rescaled to nominal speed.
	openLoop bool
	// wall is the seconds the rates are taken over: the window for the
	// ingest and query workloads, the sum of operation times for the
	// workloads whose operations run one after another with untimed
	// bookkeeping between them (restarts, sessions).
	wall float64
	ops  []sample
	// secondary holds the latencies (ms) of the operation that runs beside
	// the primary one (query_mixed's writer); empty elsewhere.
	secondary []float64
	// transport is the client-side split of every primary request, in ms.
	write, wait, read []float64
	maxLateMs         float64
	// rssPeakMB, cpuUser and cpuSys are set only by a workload that runs
	// more than one server process in a window; otherwise the harness
	// samples the one process around the window.
	rssPeakMB       float64
	cpuUser, cpuSys float64
	// untimedCPU is generator CPU spent between operations, outside any
	// timed interval and while the server is idle; it is left out of the
	// generator's share.
	untimedCPU float64
}

// ---------------------------------------------------------------------------
// Closed-loop frame ingest: freq_bin_wal and mean_bin_wal.
// ---------------------------------------------------------------------------

// Shapes of the two ingest workloads. The frequency shape is the paper's
// headline framework (PTS-CP) at the d=1000 of its cost table, where one
// report is 129 bytes on the wire; 512 reports make a 66 KB frame. The mean
// shape is the twin tier's: a report is two bytes, and 4,096 of them make a
// 9 KB frame that costs the server about as long to validate, log and apply
// as a frequency frame does. (At the 64 reports a frame ISSUE 11 asked for,
// nine tenths of a request was the kernel's loopback round trip and two
// process wake-ups, which the host, not the repository, sets the price of;
// the per-request cost of that shape is the ladder's
// collect.mean_ingest_small.ns_per_frame.)
const (
	freqClasses, freqItems = 5, 1000
	freqPerFrame           = 512
	freqDistinctFrames     = 128
	freqWarmFrames         = 1024

	meanClasses        = 5
	meanPerFrame       = 4096
	meanSmallPerFrame  = 64
	meanDistinctFrames = 128
	meanWarmFrames     = 1024

	benchEps   = 2.0
	benchSplit = 0.5
)

// frameIngest is a server plus the distinct frames cycled against one of
// its batch endpoints.
type frameIngest struct {
	h        *harness
	srv      *server
	walDir   string
	reqs     []request
	perFrame int
	// sent counts acknowledged posts per distinct frame since the server
	// started, warm-up included: the offline reference must apply exactly
	// the same multiset.
	sent   []int64
	check  func(fi *frameIngest) error
	frames [][]byte
}

func (fi *frameIngest) server() *server { return fi.srv }

func (fi *frameIngest) close() {
	fi.srv.kill()
	if fi.walDir != "" {
		fi.h.env.removeDir(fi.walDir)
	}
}

// drive posts frames closed-loop on conns connections until stop says so
// (stop receives the number of posts this worker has completed). Worker w
// starts its cycle w/conns of the way through the distinct frames so the
// workers are never in step.
func (fi *frameIngest) drive(conns int, stop func(done int) bool, tr *tracer) (*runResult, error) {
	type workerOut struct {
		ops               []sample
		write, wait, read []float64
		sent              []int64
		failed            int
		err               error
	}
	outs := make([]workerOut, conns)
	var wg sync.WaitGroup
	start := time.Now()
	root := tr.begin(0, 0, "window", start)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			o.sent = make([]int64, len(fi.reqs))
			c, err := dial(fi.srv.addr)
			if err != nil {
				o.err = err
				return
			}
			defer c.close()
			for n, i := 0, w*len(fi.reqs)/conns; !stop(n); n, i = n+1, (i+1)%len(fi.reqs) {
				status, _, t, err := c.do(fi.reqs[i], nil, false)
				if err != nil {
					o.err = err
					return
				}
				if status != 200 {
					o.failed++
					continue
				}
				o.sent[i]++
				o.ops = append(o.ops, sample{at: t.done.Sub(start).Seconds(), ms: ms(t.done.Sub(t.sent))})
				o.write = append(o.write, ms(t.wrote.Sub(t.sent)))
				o.wait = append(o.wait, ms(t.first.Sub(t.wrote)))
				o.read = append(o.read, ms(t.done.Sub(t.first)))
				tr.request(root, "post", t.sent, t)
			}
		}(w)
	}
	wg.Wait()
	end := time.Now()
	tr.end(root, end)
	res := &runResult{wall: end.Sub(start).Seconds()}
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			return nil, o.err
		}
		res.failed += o.failed
		res.ops = append(res.ops, o.ops...)
		res.write = append(res.write, o.write...)
		res.wait = append(res.wait, o.wait...)
		res.read = append(res.read, o.read...)
		for j, n := range o.sent {
			fi.sent[j] += n
		}
	}
	res.attempted = len(res.ops) + res.failed
	res.reportsPerOp = int64(fi.perFrame)
	res.reports = int64(len(res.ops)) * res.reportsPerOp
	return res, nil
}

func (fi *frameIngest) warm(frames int) error {
	conns := fi.h.conns
	per := frames / conns
	_, err := fi.drive(conns, func(done int) bool { return done >= per }, nil)
	return err
}

func (fi *frameIngest) run(d time.Duration, tr *tracer) (*runResult, error) {
	deadline := time.Now().Add(d)
	return fi.drive(fi.h.conns, func(int) bool { return !time.Now().Before(deadline) }, tr)
}

func (fi *frameIngest) verify() error { return fi.check(fi) }

// acked is the number of reports the server has acknowledged.
func (fi *frameIngest) acked() int64 {
	var n int64
	for _, s := range fi.sent {
		n += s
	}
	return n * int64(fi.perFrame)
}

// replayCounts feeds an offline aggregate the multiset of frames the server
// acknowledged. Counts are integers and merge exactly, so the frames every
// one of which was sent at least q times are applied once into a unit
// aggregate that is merged q times, and only the few extra sends are
// applied frame by frame: the check costs a few hundred frame applications,
// not the tens of thousands the server performed.
func replayCounts(sent []int64, applyFrame func(i int, unit bool) error, mergeUnit func() error) error {
	q := int64(math.MaxInt64)
	for _, n := range sent {
		q = min(q, n)
	}
	for i := range sent {
		if err := applyFrame(i, true); err != nil {
			return err
		}
	}
	for k := int64(0); k < q; k++ {
		if err := mergeUnit(); err != nil {
			return err
		}
	}
	for i, n := range sent {
		for k := q; k < n; k++ {
			if err := applyFrame(i, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// offlineFreq builds the aggregate the frequency tier must hold after
// acknowledging frames[i] sent[i] times.
func offlineFreq(p *core.Protocol, frames [][]byte, sent []int64) (core.Aggregator, error) {
	unit, total := p.NewAggregator(), p.NewAggregator()
	err := replayCounts(sent,
		func(i int, toUnit bool) error {
			dst := total
			if toUnit {
				dst = unit
			}
			_, err := p.ApplyBinaryBatch(dst, frames[i])
			return err
		},
		func() error { return total.Merge(unit) })
	return total, err
}

// checkFreqEstimates holds a served /estimates body to the offline
// aggregate, float for float.
func checkFreqEstimates(body []byte, want core.Aggregator) error {
	var got collect.WireEstimates
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decode /estimates: %w", err)
	}
	if got.Reports != want.N() {
		return fmt.Errorf("/estimates covers %d reports, offline aggregate %d", got.Reports, want.N())
	}
	est := want.Estimates()
	if !reflect.DeepEqual(got.Frequencies, est) {
		return fmt.Errorf("/estimates frequencies differ from the offline aggregate")
	}
	if !reflect.DeepEqual(got.ClassSizes, core.ClassSizesFromEstimates(want, est)) {
		return fmt.Errorf("/estimates class sizes differ from the offline aggregate")
	}
	return nil
}

func checkStatsReports(srv *server, want int64, meanTier bool) error {
	var st collect.WireStats
	if err := srv.getJSON("/stats", &st); err != nil {
		return err
	}
	got := int64(st.Reports)
	if meanTier {
		if st.Mean == nil {
			return fmt.Errorf("/stats has no mean block")
		}
		got = int64(st.Mean.Reports)
	}
	if got != want {
		return fmt.Errorf("/stats reports %d, acknowledged %d", got, want)
	}
	return nil
}

func freqProtocol(classes, items int) (*core.Protocol, error) {
	return core.NewProtocol("ptscp", classes, items, benchEps, benchSplit)
}

func freqServerSpec(classes, items int) serverSpec {
	return serverSpec{framework: "ptscp", classes: classes, items: items}
}

func postRequests(path string, frames [][]byte) []request {
	reqs := make([]request, len(frames))
	for i, f := range frames {
		reqs[i] = postRequest(path, collect.BinaryContentType, f)
	}
	return reqs
}

func setupFreqBinWAL(h *harness, seed uint64) (instance, error) {
	p, err := freqProtocol(freqClasses, freqItems)
	if err != nil {
		return nil, err
	}
	frames, err := genFreqFrames(p, seed, h.scaled(freqDistinctFrames), freqPerFrame)
	if err != nil {
		return nil, err
	}
	walDir, err := h.env.tempDir("wal-freq")
	if err != nil {
		return nil, err
	}
	// Default compaction threshold: at 66 KB a frame it fires about every
	// half million reports, dozens of times in a window, so the stalls a
	// compaction causes are inside the tail this workload reports.
	spec := freqServerSpec(freqClasses, freqItems)
	spec.walDir = walDir
	srv, err := h.env.startServer("freq_bin_wal", spec)
	if err != nil {
		return nil, err
	}
	fi := &frameIngest{h: h, srv: srv, walDir: walDir, frames: frames, perFrame: freqPerFrame,
		reqs: postRequests("/reports", frames), sent: make([]int64, len(frames))}
	fi.check = func(fi *frameIngest) error {
		if err := checkStatsReports(fi.srv, fi.acked(), false); err != nil {
			return err
		}
		want, err := offlineFreq(p, fi.frames, fi.sent)
		if err != nil {
			return err
		}
		body, err := fi.srv.get("/estimates")
		if err != nil {
			return err
		}
		return checkFreqEstimates(body, want)
	}
	if err := fi.warm(h.scaled(freqWarmFrames)); err != nil {
		fi.close()
		return nil, err
	}
	return fi, nil
}

func setupMeanBinWAL(h *harness, seed uint64) (instance, error) {
	np, err := core.NewNumericProtocol("cpmean", meanClasses, benchEps, benchSplit)
	if err != nil {
		return nil, err
	}
	frames, err := genMeanFrames(np, seed, h.scaled(meanDistinctFrames), meanPerFrame)
	if err != nil {
		return nil, err
	}
	walDir, err := h.env.tempDir("wal-mean")
	if err != nil {
		return nil, err
	}
	srv, err := h.env.startServer("mean_bin_wal",
		serverSpec{framework: "none", classes: meanClasses, mean: "cpmean", walDir: walDir})
	if err != nil {
		return nil, err
	}
	fi := &frameIngest{h: h, srv: srv, walDir: walDir, frames: frames, perFrame: meanPerFrame,
		reqs: postRequests("/mean/reports", frames), sent: make([]int64, len(frames))}
	fi.check = func(fi *frameIngest) error {
		if err := checkStatsReports(fi.srv, fi.acked(), true); err != nil {
			return err
		}
		unit, total := np.NewAggregator(), np.NewAggregator()
		err := replayCounts(fi.sent,
			func(i int, toUnit bool) error {
				dst := total
				if toUnit {
					dst = unit
				}
				_, err := np.ApplyBinaryMeanBatch(dst, fi.frames[i])
				return err
			},
			func() error { return total.Merge(unit) })
		if err != nil {
			return err
		}
		return checkMeanEstimates(fi.srv, total)
	}
	if err := fi.warm(h.scaled(meanWarmFrames)); err != nil {
		fi.close()
		return nil, err
	}
	return fi, nil
}

func checkMeanEstimates(srv *server, want mean.Aggregator) error {
	var got collect.WireMeanEstimates
	if err := srv.getJSON("/mean/estimates", &got); err != nil {
		return err
	}
	if got.Reports != want.N() {
		return fmt.Errorf("/mean/estimates covers %d reports, offline aggregate %d", got.Reports, want.N())
	}
	if !reflect.DeepEqual(got.Means, want.Means()) || !reflect.DeepEqual(got.ClassSizes, want.ClassSizes()) {
		return fmt.Errorf("/mean/estimates differ from the offline aggregate")
	}
	return nil
}

// ---------------------------------------------------------------------------
// query_mixed: open-loop reads beside open-loop writes.
// ---------------------------------------------------------------------------

// The read workload's shape: ten classes of 2048 items make /estimates a
// ≈380 KB body that is expensive to recompute (clone, merge, calibrate,
// render) and cheap to replay from the versioned cache. At 100 reads/s
// beside 20 writes/s, four reads in five find the cache current and one in
// five recomputes, so the median is the hit path and p90 the miss path.
const (
	queryClasses, queryItems = 10, 2048
	queryDistinctFrames      = 64
	queryPreloadFrames       = 64
	queryWritesPerSec        = 20
	queryReadsPerSec         = 100
)

type queryMixed struct {
	h      *harness
	srv    *server
	p      *core.Protocol
	frames [][]byte
	writes []request
	sent   []int64
	next   int // next frame the writer posts
}

func (q *queryMixed) server() *server { return q.srv }
func (q *queryMixed) close()          { q.srv.kill() }

func setupQueryMixed(h *harness, seed uint64) (instance, error) {
	p, err := freqProtocol(queryClasses, queryItems)
	if err != nil {
		return nil, err
	}
	frames, err := genFreqFrames(p, seed, h.scaled(queryDistinctFrames), freqPerFrame)
	if err != nil {
		return nil, err
	}
	srv, err := h.env.startServer("query_mixed", freqServerSpec(queryClasses, queryItems))
	if err != nil {
		return nil, err
	}
	q := &queryMixed{h: h, srv: srv, p: p, frames: frames,
		writes: postRequests("/reports", frames), sent: make([]int64, len(frames))}
	// Preload so every estimate is calibrated from a populated aggregate,
	// then read once so the first timed read is not the first render.
	c, err := dial(srv.addr)
	if err == nil {
		defer c.close()
		for i := 0; i < h.scaled(queryPreloadFrames) && err == nil; i++ {
			err = q.post(c)
		}
		if err == nil {
			_, err = srv.get("/estimates")
		}
	}
	if err != nil {
		q.close()
		return nil, err
	}
	return q, nil
}

// post sends the writer's next frame on c.
func (q *queryMixed) post(c *conn) error {
	i := q.next % len(q.writes)
	status, _, _, err := c.do(q.writes[i], nil, false)
	if err != nil {
		return err
	}
	if status != 200 {
		return fmt.Errorf("POST /reports: status %d", status)
	}
	q.sent[i]++
	q.next++
	return nil
}

func (q *queryMixed) run(d time.Duration, tr *tracer) (*runResult, error) {
	wc, err := dial(q.srv.addr)
	if err != nil {
		return nil, err
	}
	defer wc.close()
	rc, err := dial(q.srv.addr)
	if err != nil {
		return nil, err
	}
	defer rc.close()

	res := &runResult{openLoop: true}
	start := time.Now().Add(5 * time.Millisecond)
	root := tr.begin(0, 0, "window", start)
	var (
		wg                 sync.WaitGroup
		werr, rerr         error
		writeLate, rdLate  float64
		writes, readFailed int
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		var lats []float64
		lats, writeLate, werr = openLoop(start, queryWritesPerSec, d, func(int, time.Time) (time.Time, error) {
			err := q.post(wc)
			return time.Now(), err
		})
		res.secondary = lats
		writes = len(lats)
	}()
	go func() {
		defer wg.Done()
		get := getRequest("/estimates")
		_, rdLate, rerr = openLoop(start, queryReadsPerSec, d, func(_ int, due time.Time) (time.Time, error) {
			status, _, t, err := rc.do(get, nil, false)
			if err != nil {
				return t.done, err
			}
			if status != 200 {
				readFailed++
				return t.done, nil
			}
			res.ops = append(res.ops, sample{at: t.done.Sub(start).Seconds(), ms: ms(t.done.Sub(due))})
			res.write = append(res.write, ms(t.wrote.Sub(t.sent)))
			res.wait = append(res.wait, ms(t.first.Sub(t.wrote)))
			res.read = append(res.read, ms(t.done.Sub(t.first)))
			tr.request(root, "get_estimates", due, t)
			return t.done, nil
		})
	}()
	wg.Wait()
	end := time.Now()
	tr.end(root, end)
	if werr != nil {
		return nil, fmt.Errorf("writer: %w", werr)
	}
	if rerr != nil {
		return nil, fmt.Errorf("reader: %w", rerr)
	}
	res.wall = end.Sub(start).Seconds()
	res.failed = readFailed
	res.attempted = len(res.ops) + readFailed + writes
	res.reports = int64(writes) * freqPerFrame
	res.maxLateMs = max(writeLate, rdLate)
	return res, nil
}

func (q *queryMixed) verify() error {
	var acked int64
	for _, n := range q.sent {
		acked += n * freqPerFrame
	}
	if err := checkStatsReports(q.srv, acked, false); err != nil {
		return err
	}
	want, err := offlineFreq(q.p, q.frames, q.sent)
	if err != nil {
		return err
	}
	body, err := q.srv.get("/estimates")
	if err != nil {
		return err
	}
	return checkFreqEstimates(body, want)
}

// ---------------------------------------------------------------------------
// recover_wal: kill -9, restart, replay.
// ---------------------------------------------------------------------------

// recoverFrames is how much log a restart replays: 1,024 frames of the
// freq_bin_wal shape are 524,288 reports in ≈68 MB across 17 segments,
// all of it raw-frame tail because compaction is pushed out of reach. That
// is a thirtieth of what a day of the ingest workload would leave, chosen
// so that set-up (which has to write it) and a dozen restarts fit the run.
const recoverFrames = 1024

type recoverWAL struct {
	h      *harness
	spec   serverSpec
	walDir string
	acked  int64
	// estimates is the /estimates body served before the first kill; every
	// restart must serve the same bytes.
	estimates []byte
	want      core.Aggregator
	last      *server
	restarts  int
}

func (r *recoverWAL) server() *server { return r.last }

func (r *recoverWAL) close() {
	if r.last != nil {
		r.last.kill()
	}
	r.h.env.removeDir(r.walDir)
}

func setupRecoverWAL(h *harness, seed uint64) (instance, error) {
	p, err := freqProtocol(freqClasses, freqItems)
	if err != nil {
		return nil, err
	}
	frames, err := genFreqFrames(p, seed, h.scaled(freqDistinctFrames), freqPerFrame)
	if err != nil {
		return nil, err
	}
	walDir, err := h.env.tempDir("wal-recover")
	if err != nil {
		return nil, err
	}
	r := &recoverWAL{h: h, walDir: walDir}
	r.spec = freqServerSpec(freqClasses, freqItems)
	r.spec.walDir, r.spec.compactAfter = walDir, 1<<40
	srv, err := h.env.startServer("recover_wal", r.spec)
	if err != nil {
		h.env.removeDir(walDir)
		return nil, err
	}
	fi := &frameIngest{h: h, srv: srv, frames: frames, perFrame: freqPerFrame,
		reqs: postRequests("/reports", frames), sent: make([]int64, len(frames))}
	err = fi.warm(h.scaled(recoverFrames))
	if err == nil {
		r.acked = fi.acked()
		err = checkStatsReports(srv, r.acked, false)
	}
	if err == nil {
		r.want, err = offlineFreq(p, frames, fi.sent)
	}
	if err == nil {
		r.estimates, err = srv.get("/estimates")
	}
	// Process kill only: the page cache survives, so this measures replay,
	// not the disk, and is not a power-loss test.
	srv.kill()
	if err != nil {
		h.env.removeDir(walDir)
		return nil, err
	}
	return r, nil
}

// restart starts the server on the log and returns how long it took from
// exec to the first 200 on /healthz, after checking that it recovered
// every acknowledged report and serves the same estimate bytes as before
// the kill. The server is left running in r.last.
func (r *recoverWAL) restart() (time.Duration, error) {
	if r.last != nil {
		r.last.kill()
		r.last = nil
	}
	srv, err := r.h.env.startServer("recover_wal", r.spec)
	if err != nil {
		return 0, err
	}
	r.last = srv
	r.restarts++
	took := srv.ready.Sub(srv.started)
	if err := checkStatsReports(srv, r.acked, false); err != nil {
		return took, err
	}
	body, err := srv.get("/estimates")
	if err != nil {
		return took, err
	}
	if !bytes.Equal(body, r.estimates) {
		return took, fmt.Errorf("restart %d serves different /estimates bytes than before the kill", r.restarts)
	}
	return took, nil
}

func (r *recoverWAL) run(d time.Duration, tr *tracer) (*runResult, error) {
	res := &runResult{}
	start := time.Now()
	root := tr.begin(0, 0, "window", start)
	var rss []float64
	for first := true; first || time.Since(start) < d; first = false {
		took, err := r.restart()
		if err != nil {
			return nil, err
		}
		res.ops = append(res.ops, sample{at: time.Since(start).Seconds(), ms: ms(took)})
		res.wall += took.Seconds()
		res.reports += r.acked
		if mb, err := r.last.rssPeakMB(); err == nil {
			rss = append(rss, mb)
		}
		if u, s, err := r.last.cpu(); err == nil {
			res.cpuUser, res.cpuSys = res.cpuUser+u, res.cpuSys+s
		}
		id := tr.begin(root, int64(r.restarts), "restart", r.last.started)
		tr.end(id, r.last.ready)
	}
	tr.end(root, time.Now())
	res.attempted = len(res.ops)
	res.rssPeakMB = median(rss)
	return res, nil
}

func (r *recoverWAL) verify() error {
	if r.last == nil {
		if _, err := r.restart(); err != nil {
			return err
		}
	}
	return checkFreqEstimates(r.estimates, r.want)
}

// ---------------------------------------------------------------------------
// topk_session_bin: sequential interactive mining sessions.
// ---------------------------------------------------------------------------

// The session shape: the PTS miner with the paper's optimisations, k=8
// over 5 classes × 1000 items, planned for 65,536 users. That is six
// rounds (three global, three per class) of 4,369 to 17,476 reports each,
// in frames of at most 4,096 reports and 100 KB, so a session is about
// twenty frames of absorb work and as many small calls, with a seal between
// rounds.
const (
	topkClasses, topkItems = 5, 1000
	topkK                  = 8
	topkUsers              = 65536
	topkPerFrame           = 4096
	topkDistinctPlans      = 4
	topkWarmSessions       = 8
)

type topkSessions struct {
	h     *harness
	srv   *server
	plans []*sessionPlan
	next  int
	conns []*conn
	// packCPU accumulates the generator CPU spent packing frames.
	packCPU float64
	// phases collects, per connection, the client-side timing of every
	// round frame posted in the current window.
	phases [][]timing
}

func (t *topkSessions) server() *server { return t.srv }

func (t *topkSessions) close() {
	for _, c := range t.conns {
		c.close()
	}
	t.srv.kill()
}

func setupTopKSession(h *harness, seed uint64) (instance, error) {
	plans := make([]*sessionPlan, topkDistinctPlans)
	err := parallelFor(len(plans), func(i int) error {
		var err error
		plans[i], err = genSessionPlan(topk.SessionParams{
			Framework: "pts", Classes: topkClasses, Items: topkItems, K: topkK, Eps: benchEps,
			Users: h.scaled(topkUsers), Seed: subSeed(seed, i), Opt: topk.Optimized(),
		}, subSeed(seed, len(plans)+i))
		return err
	})
	if err != nil {
		return nil, err
	}
	srv, err := h.env.startServer("topk_session_bin", serverSpec{framework: "none", classes: topkClasses, topk: true})
	if err != nil {
		return nil, err
	}
	t := &topkSessions{h: h, srv: srv, plans: plans, phases: make([][]timing, h.conns)}
	for i := 0; i < h.conns && err == nil; i++ {
		var c *conn
		if c, err = dial(srv.addr); err == nil {
			t.conns = append(t.conns, c)
		}
	}
	for i := 0; i < topkWarmSessions && err == nil; i++ {
		_, _, err = t.session(nil, 0)
	}
	if err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// session drives the next plan through the server: create, then per round
// fetch the broadcast, post the round's frames over every connection and
// let the last one seal it, then result and delete. It returns the
// session's wall time (with the client-side frame packing taken out: the
// id is server-assigned, so frames can only be packed once it is known,
// and a real client would have packed while perturbing) and the number of
// reports acknowledged. The mined result must equal the offline one.
func (t *topkSessions) session(tr *tracer, parent int64) (time.Duration, int64, error) {
	plan := t.plans[t.next%len(t.plans)]
	t.next++
	c := t.conns[0]
	var buf []byte

	call := func(req request, out any) (time.Duration, error) {
		status, body, tm, err := c.do(req, buf, true)
		buf = body
		if err != nil {
			return 0, err
		}
		tr.request(parent, "session_call", tm.sent, tm)
		if status != 200 {
			return 0, fmt.Errorf("%s: status %d: %s", bytes.SplitN(req.head, []byte("\r\n"), 2)[0], status, bytes.TrimSpace(body))
		}
		if out != nil {
			if err := json.Unmarshal(body, out); err != nil {
				return 0, err
			}
		}
		return tm.done.Sub(tm.sent), nil
	}

	params, err := json.Marshal(plan.params)
	if err != nil {
		return 0, 0, err
	}
	var info collect.WireTopKSessionInfo
	wall, err := call(postRequest("/topk/sessions", "application/json", params), &info)
	if err != nil {
		return 0, 0, err
	}
	if info.Rounds != plan.totalRounds {
		return 0, 0, fmt.Errorf("server plans %d rounds, offline planner %d", info.Rounds, plan.totalRounds)
	}
	// Untimed: pack every round's frames now that the id is known.
	path := "/topk/sessions/" + info.ID
	rounds := make([][]request, len(plan.rounds))
	cpu0 := selfCPU()
	for i, rd := range plan.rounds {
		frames, err := packRound(info.ID, rd, topkPerFrame)
		if err != nil {
			return 0, 0, err
		}
		rounds[i] = postRequests(path+"/reports", frames)
	}
	t.packCPU += selfCPU() - cpu0

	var acked int64
	for i, reqs := range rounds {
		t0 := time.Now()
		// Only the position is decoded: the broadcast's candidate pools
		// (tens of KB of integers) were already derived offline, and
		// materialising them again would be generator work, not server work.
		var live struct {
			Done   bool
			Config *struct{ Round int }
		}
		if _, err := call(getRequest(path+"/round"), &live); err != nil {
			return 0, 0, err
		}
		if live.Done || live.Config == nil || live.Config.Round != plan.rounds[i].layout.Round {
			return 0, 0, fmt.Errorf("session %s: server is not at round %d", info.ID, plan.rounds[i].layout.Round)
		}
		if err := t.postRound(reqs, tr, parent); err != nil {
			return 0, 0, fmt.Errorf("session %s round %d: %w", info.ID, i, err)
		}
		acked += int64(len(plan.rounds[i].reports))
		wall += time.Since(t0)
	}
	var got topk.Result
	d, err := call(getRequest(path+"/result"), &got)
	if err != nil {
		return 0, 0, err
	}
	wall += d
	if d, err = call(newRequest("DELETE", path, "", nil), nil); err != nil {
		return 0, 0, err
	}
	wall += d
	if !reflect.DeepEqual(&got, plan.result) {
		return 0, 0, fmt.Errorf("session %s: served result differs from the offline planner's", info.ID)
	}
	return wall, acked, nil
}

// postRound posts one round's frames, split over the connections, and
// returns when every frame is acknowledged (the server seals the round on
// the frame that fills its quota).
func (t *topkSessions) postRound(reqs []request, tr *tracer, parent int64) error {
	errs := make([]error, len(t.conns))
	var wg sync.WaitGroup
	for w, c := range t.conns {
		wg.Add(1)
		go func(w int, c *conn) {
			defer wg.Done()
			for i := w; i < len(reqs); i += len(t.conns) {
				status, body, tm, err := c.do(reqs[i], nil, true)
				if err == nil && status != 200 {
					err = fmt.Errorf("frame %d: status %d: %s", i, status, bytes.TrimSpace(body))
				}
				if err != nil {
					errs[w] = err
					return
				}
				tr.request(parent, "post_round_frame", tm.sent, tm)
				t.phases[w] = append(t.phases[w], tm)
			}
		}(w, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *topkSessions) run(d time.Duration, tr *tracer) (*runResult, error) {
	res := &runResult{}
	start := time.Now()
	pack0 := t.packCPU
	t.phases = make([][]timing, len(t.conns))
	root := tr.begin(0, 0, "window", start)
	for time.Since(start) < d {
		t0 := time.Now()
		id := tr.begin(root, int64(t.next), "session", t0)
		wall, acked, err := t.session(tr, id)
		tr.end(id, time.Now())
		if err != nil {
			return nil, err
		}
		res.ops = append(res.ops, sample{at: time.Since(start).Seconds(), ms: ms(wall)})
		res.wall += wall.Seconds()
		res.reports += acked
	}
	tr.end(root, time.Now())
	res.attempted = len(res.ops)
	res.untimedCPU = t.packCPU - pack0
	for _, tms := range t.phases {
		for _, tm := range tms {
			res.write = append(res.write, ms(tm.wrote.Sub(tm.sent)))
			res.wait = append(res.wait, ms(tm.first.Sub(tm.wrote)))
			res.read = append(res.read, ms(tm.done.Sub(tm.first)))
		}
	}
	return res, nil
}

// verify has nothing left to do: every session's result was compared with
// the offline planner's as it completed. It checks that the server agrees
// no session is left open.
func (t *topkSessions) verify() error {
	var st collect.WireStats
	if err := t.srv.getJSON("/stats", &st); err != nil {
		return err
	}
	if st.TopK == nil || st.TopK.Sessions != 0 {
		return fmt.Errorf("/stats reports sessions still tracked after every one was deleted: %+v", st.TopK)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
