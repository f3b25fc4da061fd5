package collect

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// This file pins the delta write path (tier.go's commit): what each write
// logs, that a log mixing every record type recovers exactly, that the
// headroom check runs before the log sees a write, and that a binary write
// allocates nothing.

// postBinary answers one binary frame in-process.
func postBinary(srv *Server, path string, frame []byte) int {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(frame))
	req.Header.Set("Content-Type", BinaryContentType)
	srv.Handler().ServeHTTP(rec, req)
	return rec.Code
}

// logged reads the tier's logged-records counters: delta, frame, batch,
// envelope.
func logged[W any](tr *tier[W]) [4]int64 {
	m := tr.m
	return [4]int64{m.loggedDelta.Value(), m.loggedFrame.Value(), m.loggedBatch.Value(), m.loggedEnvelope.Value()}
}

// recordTypes lists the type byte of every record in a closed log's tail.
func recordTypes(t *testing.T, dir string) string {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var types []byte
	err = l.Replay(func([]byte) error { return nil }, func(rec []byte) error {
		types = append(types, rec[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(types)
}

// TestWALMixedRecordsKill9 builds one log per report tier holding every
// record type a write can choose — a JSON batch kept raw ('B'), a
// one-report frame kept raw ('W'), and sealed deltas ('E') of 512- and
// 64-report frames, a 4,096-report mean frame and a /merge envelope — checks each
// write chose the record the size rule gives it, tears the tails as a kill
// -9 mid-write would, and restarts to state byte-identical to the offline
// aggregate of the same writes.
func TestWALMixedRecordsKill9(t *testing.T) {
	const c, d = 5, 1000
	dir := t.TempDir()
	open := func() *Server {
		t.Helper()
		srv, err := NewServer(mustProtocol(t, "ptscp", c, d, 2, 0.5),
			WithMean(mustNumericProtocol(t, "cpmean", c, 2, 0.5)), WithWAL(dir), WithWALTierLayout(),
			WithWALOptions(wal.Options{Sync: wal.SyncNever}), WithCompactAfter(1<<40))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	p, np := srv.proto, srv.meanProto
	freq, mn := p.NewAggregator(), np.NewAggregator()
	frame := func(n int, seed uint64) []byte {
		b, err := p.AppendBinaryBatch(nil, wireStream(t, p, n, seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ApplyBinaryBatch(freq, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	// want is the counters' step each write must take.
	step := func(tr *tier[WireReport], want [4]int64, write func() int) {
		t.Helper()
		before := logged(tr)
		if code := write(); code != http.StatusOK {
			t.Fatalf("write answered %d", code)
		}
		after := logged(tr)
		for i := range after {
			if after[i]-before[i] != want[i] {
				t.Fatalf("logged records moved %v → %v, want a step of %v (delta, frame, batch, envelope)", before, after, want)
			}
		}
	}

	batch := wireStream(t, p, 2, 1)
	for _, w := range batch {
		rep, err := p.DecodeReport(w)
		if err != nil {
			t.Fatal(err)
		}
		freq.Add(rep)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	step(srv.freq, [4]int64{0, 0, 1, 0}, func() int { return serve(srv, "POST", "/reports", body).Code })
	one := frame(1, 2)
	step(srv.freq, [4]int64{0, 1, 0, 0}, func() int { return postBinary(srv, "/reports", one) })
	big := frame(512, 3)
	step(srv.freq, [4]int64{1, 0, 0, 0}, func() int { return postBinary(srv, "/reports", big) })
	// 8 KB of frame against a 5 KB delta: under twice the cell count, and
	// still the larger record.
	small := frame(64, 6)
	step(srv.freq, [4]int64{1, 0, 0, 0}, func() int { return postBinary(srv, "/reports", small) })
	// The batch and the one-report frame took the small path (folded in
	// under the lock, logged raw); the frames above took the delta path.
	if tr := srv.freq; !tr.small(len(body)) || !tr.small(len(one)) || tr.small(len(big)) || tr.small(len(small)) {
		t.Fatalf("write paths: batch %d B, frames %d, %d, %d B against %d cells", len(body), len(one), len(big), len(small), tr.cells)
	}

	edge := p.NewAggregator()
	if _, err := p.ApplyBinaryBatch(edge, frame(64, 4)); err != nil {
		t.Fatal(err)
	}
	env, err := p.MarshalAggregator(edge)
	if err != nil {
		t.Fatal(err)
	}
	step(srv.freq, [4]int64{0, 0, 0, 1}, func() int { return serve(srv, "POST", "/merge", env).Code })

	meanFrame, err := np.AppendBinaryMeanBatch(nil, meanWireStream(t, np, 4096, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := np.ApplyBinaryMeanBatch(mn, meanFrame); err != nil {
		t.Fatal(err)
	}
	if code := postBinary(srv, "/mean/reports", meanFrame); code != http.StatusOK {
		t.Fatalf("mean frame answered %d", code)
	}
	if got := logged(srv.mean); got != [4]int64{1, 0, 0, 0} {
		t.Fatalf("the 4,096-report mean frame logged %v, want one delta", got)
	}

	wantFreq, err := p.MarshalAggregator(freq)
	if err != nil {
		t.Fatal(err)
	}
	wantMean, err := np.MarshalAggregator(mn)
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the process is killed, and a write was cut short in each
	// log. The tails on disk are the records the counters promised.
	for tier, types := range map[string]string{"freq": "BWEEE", "mean": "E"} {
		if got := recordTypes(t, filepath.Join(dir, tier)); got != types {
			t.Fatalf("%s log holds records %q, want %q", tier, got, types)
		}
		tearLastSegment(t, filepath.Join(dir, tier))
	}
	restarted := open()
	defer restarted.Close()
	got, err := restarted.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotMean, err := restarted.SnapshotMean()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantFreq) || !bytes.Equal(gotMean, wantMean) {
		t.Fatalf("restart: frequency state identical %v, mean %v",
			bytes.Equal(got, wantFreq), bytes.Equal(gotMean, wantMean))
	}
}

// TestFrameRefusedWithoutHeadroom: the headroom check runs before the log
// sees a write, for frames as for envelopes, on both write paths. A tier
// restored to ten reports short of maxTierReports refuses a 512-report
// frame (a delta) and an 11-report frame (small: folded in under the lock)
// with a 400, logs nothing and returns the charge, still takes a frame
// that exactly fills it, and restarts from its directory.
func TestFrameRefusedWithoutHeadroom(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		t.Helper()
		srv, err := NewServer(mustProtocol(t, "ptscp", 5, 64, 2, 0.5), WithWAL(dir))
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := open()
	p := srv.proto
	tab := p.NewTable()
	// All reports routed to label 0 with no item bit kept: a valid table.
	tab.N, tab.Cells[0] = maxTierReports-10, maxTierReports-10
	if err := srv.Restore(p.AppendTable(nil, &tab)); err != nil {
		t.Fatal(err)
	}
	refused := int64(0)
	for _, n := range []int{512, 11} {
		frame, err := p.AppendBinaryBatch(nil, wireStream(t, p, n, 7))
		if err != nil {
			t.Fatal(err)
		}
		if small := srv.freq.small(len(frame)); small != (n < 512) {
			t.Fatalf("a %d-report frame of %d bytes: small = %v", n, len(frame), small)
		}
		before := srv.freq.log.BytesSinceSeal()
		if code := postBinary(srv, "/reports", frame); code != http.StatusBadRequest {
			t.Fatalf("a %d-report frame past the headroom answered %d, want 400", n, code)
		}
		if got := srv.freq.log.BytesSinceSeal(); got != before {
			t.Fatalf("the refused %d-report frame reached the WAL (%d → %d bytes)", n, before, got)
		}
		refused += int64(n)
		if got := srv.freq.m.rejectedRoom.Value(); got != refused || srv.Reports() != maxTierReports-10 {
			t.Fatalf("refusals counted %d reports and left the tier at %d", got, srv.Reports())
		}
	}
	fits, err := p.AppendBinaryBatch(nil, wireStream(t, p, 10, 8))
	if err != nil {
		t.Fatal(err)
	}
	if code := postBinary(srv, "/reports", fits); code != http.StatusOK {
		t.Fatalf("a frame that fills the tier exactly answered %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := open()
	defer reopened.Close()
	if got := reopened.Reports(); got != maxTierReports {
		t.Fatalf("reopened server holds %d reports, want 2⁶²", got)
	}
}

// TestBinaryIngestAllocatesNothing pins the durable binary write: a large
// frame folded into a pooled delta, sealed into a pooled buffer, logged and
// merged, and a small frame logged raw and folded in under the lock, both
// allocate nothing.
func TestBinaryIngestAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	srv, err := NewServer(mustProtocol(t, "ptscp", 5, 1000, 2, 0.5), WithWAL(t.TempDir()),
		WithWALOptions(wal.Options{Sync: wal.SyncNever}), WithCompactAfter(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := srv.proto
	for _, tc := range []struct {
		reports int
		record  [4]int64
	}{{512, [4]int64{1, 0, 0, 0}}, {1, [4]int64{0, 1, 0, 0}}} {
		frame, err := p.AppendBinaryBatch(nil, wireStream(t, p, tc.reports, 9))
		if err != nil {
			t.Fatal(err)
		}
		f, err := srv.freq.c.validateBinary(frame)
		if err != nil {
			t.Fatal(err)
		}
		before := logged(srv.freq)
		if allocs := testing.AllocsPerRun(50, func() {
			if err := srv.freq.ingestBinary(frame, f); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("a %d-report frame allocated %v times", tc.reports, allocs)
		}
		after := logged(srv.freq)
		for i := range after {
			if after[i]-before[i] != 51*tc.record[i] {
				t.Fatalf("%d-report frames logged %v → %v, want 51 × %v", tc.reports, before, after, tc.record)
			}
		}
	}
}

// TestEnvelopeAddAllocatesNothing pins the two paths that add an envelope
// straight from its bytes: replaying an 'E' record and MergeState of a
// 5,005-cell envelope (ptscp, c = 5, d = 1,000) into a durable tier both
// allocate nothing.
func TestEnvelopeAddAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv, err := NewServer(mustProtocol(t, "ptscp", 5, 1000, 2, 0.5), WithWAL(t.TempDir()),
		WithWALOptions(wal.Options{Sync: wal.SyncNever}), WithCompactAfter(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := srv.proto
	edge := p.NewAggregator()
	frame, err := p.AppendBinaryBatch(nil, wireStream(t, p, 512, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ApplyBinaryBatch(edge, frame); err != nil {
		t.Fatal(err)
	}
	env, err := p.MarshalAggregator(edge)
	if err != nil {
		t.Fatal(err)
	}
	if cells := len(p.NewTable().Cells); cells != 5005 {
		t.Fatalf("the tier's table has %d cells, want 5,005", cells)
	}
	rec := append([]byte{recEnvelope}, env...)
	if allocs := testing.AllocsPerRun(50, func() {
		if err := srv.freq.replayRecord(rec); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("replaying an 'E' record allocated %v times", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if n, err := srv.MergeState(env); err != nil || n != 512 {
			t.Fatalf("MergeState = %d, %v", n, err)
		}
	}); allocs != 0 {
		t.Fatalf("MergeState of an envelope allocated %v times", allocs)
	}
	if got := srv.Reports(); got != 2*51*512 {
		t.Fatalf("the tier holds %d reports, want %d", got, 2*51*512)
	}
}
