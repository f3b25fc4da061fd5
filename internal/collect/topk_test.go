package collect

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/topk"
	"repro/internal/wal"
	"repro/internal/xrand"
)

// topkTestServer spins up a session-serving collection server.
func topkTestServer(t *testing.T, opts ...ServerOption) (*Server, *httptest.Server) {
	t.Helper()
	proto, err := core.NewProtocol("ptscp", 2, 8, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(proto, append([]ServerOption{WithTopKSessions(TopKOptions{})}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs
}

// topkTestData builds a skewed multi-class population with an unambiguous
// per-class head.
func topkTestData(c, d, n int, seed uint64) *core.Dataset {
	r := xrand.New(seed)
	data := &core.Dataset{Classes: c, Items: d, Name: "served"}
	for u := 0; u < n; u++ {
		cl := u % c
		var it int
		switch {
		case r.Bernoulli(0.3):
			it = r.Intn(6)
		case r.Bernoulli(0.45):
			it = 20 + cl*10 + r.Intn(6)
		default:
			it = r.Intn(d)
		}
		data.Pairs = append(data.Pairs, core.Pair{Class: cl, Item: it})
	}
	return data.Shuffled(r)
}

// driveSession answers every remaining round of a hosted session: user i
// (in pair order, starting at startUser) perturbs with
// topk.UserRand(seed, i), exactly the assignment the offline path uses,
// and reports ship in batches of batch.
func driveSession(t *testing.T, ts *TopKSession, pairs []core.Pair, seed uint64, batch, startUser int) *topk.Result {
	t.Helper()
	user := startUser
	for {
		rd, err := ts.Round()
		if err != nil {
			t.Fatal(err)
		}
		if rd.Done {
			break
		}
		enc, err := topk.NewRoundEncoder(rd.Config)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]topk.RoundReport, rd.Config.Quota-rd.Received)
		for j := range reps {
			reps[j], err = enc.Encode(pairs[user], topk.UserRand(seed, user))
			if err != nil {
				t.Fatal(err)
			}
			user++
		}
		for lo := 0; lo < len(reps); lo += batch {
			hi := min(lo+batch, len(reps))
			ack, err := ts.PostReports(reps[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			if ack.Rejected != 0 {
				t.Fatalf("round %d: %d reports rejected: %v", rd.Config.Round, ack.Rejected, ack.Errors)
			}
		}
	}
	res, err := ts.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// driveSessionBinary is driveSession over the binary wire: every batch
// ships as one 'T' frame through PostReportsBinary.
func driveSessionBinary(t *testing.T, ts *TopKSession, pairs []core.Pair, seed uint64, batch, startUser int) *topk.Result {
	t.Helper()
	user := startUser
	for {
		rd, err := ts.Round()
		if err != nil {
			t.Fatal(err)
		}
		if rd.Done {
			break
		}
		if !wireSupports(rd.Wire, "binary") {
			t.Fatalf("round broadcast does not advertise binary: %v", rd.Wire)
		}
		enc, err := topk.NewRoundEncoder(rd.Config)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]topk.RoundReport, rd.Config.Quota-rd.Received)
		for j := range reps {
			reps[j], err = enc.Encode(pairs[user], topk.UserRand(seed, user))
			if err != nil {
				t.Fatal(err)
			}
			user++
		}
		for lo := 0; lo < len(reps); lo += batch {
			hi := min(lo+batch, len(reps))
			ack, err := ts.PostReportsBinary(rd.Config, reps[lo:hi])
			if err != nil {
				t.Fatal(err)
			}
			if ack.Accepted != hi-lo || ack.Rejected != 0 {
				t.Fatalf("round %d: frame ack %+v, want %d accepted", rd.Config.Round, ack, hi-lo)
			}
		}
	}
	res, err := ts.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServedSessionMatchesOfflineMine is the acceptance pin: for every
// miner, a full session driven through the HTTP endpoints (same seed, same
// user→group assignment) yields rankings bit-identical to the offline Mine
// path — over the JSON wire and over binary session frames alike.
func TestServedSessionMatchesOfflineMine(t *testing.T) {
	data := topkTestData(3, 128, 6000, 60)
	const k, eps = 4, 5.0
	const mineSeed = 61
	cases := []struct {
		name  string
		miner topk.Miner
		fw    string
		opt   topk.Options
	}{
		{"hec", topk.NewHEC(topk.Options{Shuffling: true, VP: true}), "hec", topk.Options{Shuffling: true, VP: true}},
		{"ptj", topk.NewPTJ(topk.Options{Shuffling: true, VP: true}), "ptj", topk.Options{Shuffling: true, VP: true}},
		{"ptj-pem", topk.NewPTJ(topk.Baseline()), "ptj", topk.Baseline()},
		{"pts-optimized", topk.NewPTS(topk.Optimized()), "pts", topk.Optimized()},
		{"pts-baseline", topk.NewPTS(topk.Baseline()), "pts", topk.Baseline()},
	}
	_, hs := topkTestServer(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.miner.Mine(data, k, eps, xrand.New(mineSeed))
			if err != nil {
				t.Fatal(err)
			}
			// Mine's session seed is the first Uint64 of its generator.
			seed := xrand.New(mineSeed).Uint64()
			ts, err := NewTopKSession(hs.URL, nil, topk.SessionParams{
				Framework: tc.fw, Classes: data.Classes, Items: data.Items,
				K: k, Eps: eps, Users: data.N(), Seed: seed, Opt: tc.opt,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := driveSession(t, ts, data.Pairs, seed, 256, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("served rankings %v != offline Mine %v", got, want)
			}
			// Same session, binary wire: the word-packed frames must land
			// bit-identically too.
			tsb, err := NewTopKSession(hs.URL, nil, topk.SessionParams{
				Framework: tc.fw, Classes: data.Classes, Items: data.Items,
				K: k, Eps: eps, Users: data.N(), Seed: seed, Opt: tc.opt,
			})
			if err != nil {
				t.Fatal(err)
			}
			gotB := driveSessionBinary(t, tsb, data.Pairs, seed, 256, 0)
			if !reflect.DeepEqual(gotB, want) {
				t.Fatalf("binary-served rankings %v != offline Mine %v", gotB, want)
			}
		})
	}
}

// TestTopKSessionSurvivesRestart is the durability acceptance pin: a
// server killed mid-session (never Closed, like a SIGKILL) and restarted
// on the same WAL directory resumes the session — including compacted
// snapshots of mid-flight planner state — to the same final rankings as
// the offline path.
func TestTopKSessionSurvivesRestart(t *testing.T) {
	data := topkTestData(2, 128, 3000, 62)
	const k, eps, seed = 3, 4.0, uint64(6262)
	params := topk.SessionParams{
		Framework: "pts", Classes: data.Classes, Items: data.Items,
		K: k, Eps: eps, Users: data.N(), Seed: seed, Opt: topk.Optimized(),
	}
	offline, err := topk.NewSession(params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topk.RunSession(offline, data.Pairs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	walOpts := []ServerOption{
		WithTopKSessions(TopKOptions{}),
		WithWAL(dir),
		WithWALOptions(wal.Options{Sync: wal.SyncAlways}),
	}
	proto, err := core.NewProtocol("ptscp", 2, 8, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srvA, err := NewServer(proto, walOpts...)
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA.Handler())
	ts, err := NewTopKSession(hsA.URL, nil, params)
	if err != nil {
		t.Fatal(err)
	}

	// postSome encodes and posts n reports continuing the canonical user
	// assignment against the live round.
	user := 0
	postSome := func(ts *TopKSession, n int) {
		t.Helper()
		rd, err := ts.Round()
		if err != nil || rd.Done {
			t.Fatalf("round fetch: err=%v", err)
		}
		enc, err := topk.NewRoundEncoder(rd.Config)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]topk.RoundReport, n)
		for j := range reps {
			if reps[j], err = enc.Encode(data.Pairs[user], topk.UserRand(seed, user)); err != nil {
				t.Fatal(err)
			}
			user++
		}
		if ack, err := ts.PostReports(reps); err != nil {
			t.Fatal(err)
		} else if ack.Rejected != 0 {
			t.Fatalf("rejected %d: %v", ack.Rejected, ack.Errors)
		}
	}
	// Seal round 0, half-fill round 1, compact (snapshot of the partial
	// aggregate), then post a small tail past the snapshot — the restart
	// must replay snapshot + tail and land mid-round.
	rd, err := ts.Round()
	if err != nil {
		t.Fatal(err)
	}
	q0 := rd.Config.Quota
	postSome(ts, q0)
	rd, err = ts.Round()
	if err != nil || rd.Config.Round != 1 {
		t.Fatalf("expected round 1, got %+v (err %v)", rd, err)
	}
	half := rd.Config.Quota / 2
	postSome(ts, half)
	if err := srvA.topk.compact(); err != nil {
		t.Fatal(err)
	}
	postSome(ts, 5) // tail records past the snapshot
	// SIGKILL-style teardown: stop serving, never Close the WAL.
	hsA.Close()

	srvB, err := NewServer(proto, walOpts...)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srvB.Close()
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	tsB, err := OpenTopKSession(hsB.URL, nil, ts.ID())
	if err != nil {
		t.Fatal(err)
	}
	if tsB.Info().Round != 1 {
		t.Fatalf("recovered session at round %d, want 1", tsB.Info().Round)
	}
	rd, err = tsB.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rd.Received != half+5 {
		t.Fatalf("recovered round 1 holds %d reports, want %d", rd.Received, half+5)
	}
	// The drive helper tops up the half-filled round (quota − received)
	// and finishes the session from the same user index.
	got := driveSession(t, tsB, data.Pairs, seed, 256, user)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered session rankings %v != offline %v", got, want)
	}
}

// TestTopKBinarySessionSurvivesRestart is the binary-lane durability pin:
// accepted 'T' frames are logged raw, a compaction mid-round folds the
// shard partials into the snapshot, and a SIGKILL-style restart replays
// snapshot + raw frame tail to the same mid-round position and the same
// final rankings as the offline path.
func TestTopKBinarySessionSurvivesRestart(t *testing.T) {
	data := topkTestData(2, 128, 3000, 65)
	const k, eps, seed = 3, 4.0, uint64(6565)
	params := topk.SessionParams{
		Framework: "pts", Classes: data.Classes, Items: data.Items,
		K: k, Eps: eps, Users: data.N(), Seed: seed, Opt: topk.Optimized(),
	}
	offline, err := topk.NewSession(params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topk.RunSession(offline, data.Pairs)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	walOpts := []ServerOption{
		WithTopKSessions(TopKOptions{}),
		WithWAL(dir),
		WithWALOptions(wal.Options{Sync: wal.SyncAlways}),
	}
	proto, err := core.NewProtocol("ptscp", 2, 8, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	srvA, err := NewServer(proto, walOpts...)
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA.Handler())
	ts, err := NewTopKSession(hsA.URL, nil, params)
	if err != nil {
		t.Fatal(err)
	}

	user := 0
	postSome := func(ts *TopKSession, n int) {
		t.Helper()
		rd, err := ts.Round()
		if err != nil || rd.Done {
			t.Fatalf("round fetch: err=%v", err)
		}
		enc, err := topk.NewRoundEncoder(rd.Config)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]topk.RoundReport, n)
		for j := range reps {
			if reps[j], err = enc.Encode(data.Pairs[user], topk.UserRand(seed, user)); err != nil {
				t.Fatal(err)
			}
			user++
		}
		if ack, err := ts.PostReportsBinary(rd.Config, reps); err != nil {
			t.Fatal(err)
		} else if ack.Accepted != n {
			t.Fatalf("frame ack %+v, want %d accepted", ack, n)
		}
	}
	// Seal round 0 with frames, half-fill round 1, compact (the snapshot
	// must absorb the shard partials), then a raw-frame tail past it.
	rd, err := ts.Round()
	if err != nil {
		t.Fatal(err)
	}
	postSome(ts, rd.Config.Quota)
	rd, err = ts.Round()
	if err != nil || rd.Config.Round != 1 {
		t.Fatalf("expected round 1, got %+v (err %v)", rd, err)
	}
	half := rd.Config.Quota / 2
	postSome(ts, half)
	if err := srvA.topk.compact(); err != nil {
		t.Fatal(err)
	}
	postSome(ts, 5) // raw 'W' records past the snapshot
	hsA.Close()     // SIGKILL-style: never Close the WAL

	srvB, err := NewServer(proto, walOpts...)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srvB.Close()
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	tsB, err := OpenTopKSession(hsB.URL, nil, ts.ID())
	if err != nil {
		t.Fatal(err)
	}
	rd, err = tsB.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rd.Config.Round != 1 || rd.Received != half+5 {
		t.Fatalf("recovered at round %d with %d reports, want round 1 with %d", rd.Config.Round, rd.Received, half+5)
	}
	got := driveSessionBinary(t, tsB, data.Pairs, seed, 256, user)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered binary session rankings %v != offline %v", got, want)
	}
}

// TestTopKRoundSealRace hammers one round with concurrent posts racing its
// seal: exactly quota reports may be accepted (no double count), and a
// post arriving after the seal is answered 410 Gone with the advanced
// round index.
func TestTopKRoundSealRace(t *testing.T) {
	_, hs := topkTestServer(t)
	data := topkTestData(2, 64, 400, 63)
	const seed = 777
	params := topk.SessionParams{
		Framework: "pts", Classes: data.Classes, Items: data.Items,
		K: 2, Eps: 2, Users: data.N(), Seed: seed, Opt: topk.Optimized(),
	}
	ts, err := NewTopKSession(hs.URL, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ts.Round()
	if err != nil {
		t.Fatal(err)
	}
	quota := rd.Config.Quota
	enc, err := topk.NewRoundEncoder(rd.Config)
	if err != nil {
		t.Fatal(err)
	}
	// Twice the quota of valid round-0 reports, posted one-by-one from
	// many goroutines.
	posts := 2 * quota
	reps := make([]topk.RoundReport, posts)
	for i := range reps {
		if reps[i], err = enc.Encode(data.Pairs[i%data.N()], topk.UserRand(seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted int
		gone     int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// ts is shared read-only; http.Client is safe for concurrent use.
			for i := w; i < posts; i += workers {
				ack, err := ts.PostReports(reps[i : i+1])
				code, isStatus := StatusCode(err)
				mu.Lock()
				switch {
				case err == nil:
					accepted += ack.Accepted
				case isStatus && code == http.StatusGone:
					gone++
					if ack == nil || ack.Round != 1 {
						mu.Unlock()
						t.Errorf("410 ack %+v does not carry live round 1", ack)
						return
					}
				default:
					mu.Unlock()
					t.Errorf("post %d: %v", i, err)
					return
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if accepted != quota {
		t.Fatalf("round 0 absorbed %d reports, quota is %d", accepted, quota)
	}
	if gone != posts-quota {
		t.Fatalf("%d of %d late posts answered 410", gone, posts-quota)
	}
	rd2, err := ts.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rd2.Done || rd2.Config.Round != 1 || rd2.Received != 0 {
		t.Fatalf("after seal race: %+v", rd2)
	}
}

// TestTopKLargeStaleBatchGone pins the 410 for a wholly stale JSON batch
// longer than the ack's error list: the verdict is taken on every rejection,
// not on the maxBatchErrors of them the ack carries.
func TestTopKLargeStaleBatchGone(t *testing.T) {
	srv, hs := topkTestServer(t)
	data := topkTestData(2, 64, 400, 63)
	const seed = 778
	ts, err := NewTopKSession(hs.URL, nil, topk.SessionParams{
		Framework: "pts", Classes: data.Classes, Items: data.Items,
		K: 2, Eps: 2, Users: data.N(), Seed: seed, Opt: topk.Optimized(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ts.Round()
	if err != nil {
		t.Fatal(err)
	}
	quota := rd.Config.Quota
	enc, err := topk.NewRoundEncoder(rd.Config)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]topk.RoundReport, quota+512)
	for i := range reps {
		if reps[i], err = enc.Encode(data.Pairs[i%data.N()], topk.UserRand(seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Seal round 0.
	if ack, err := ts.PostReports(reps[:quota]); err != nil || ack.Accepted != quota || ack.Round != 1 {
		t.Fatalf("filling round 0: ack %+v, err %v", ack, err)
	}
	for _, n := range []int{maxBatchErrors + 1, 512} {
		before := srv.topk.stale.Value()
		ack, err := ts.PostReports(reps[quota : quota+n])
		if code, _ := StatusCode(err); code != http.StatusGone || ack == nil {
			t.Fatalf("%d stale reports: ack %+v, err %v, want 410", n, ack, err)
		}
		if ack.Accepted != 0 || ack.Rejected != n || !ack.ErrorsTruncated || len(ack.Errors) != maxBatchErrors || ack.Round != 1 {
			t.Fatalf("%d stale reports: ack %+v", n, ack)
		}
		if got := srv.topk.stale.Value() - before; got != 1 {
			t.Fatalf("%d stale reports: mcim_topk_stale_batches_total moved by %d, want 1", n, got)
		}
	}
}

// TestTopKMixedWireHammer races JSON batches and binary frames into one
// round from many goroutines: exactly the quota is absorbed across both
// wires, the sealed round's stale posts come back 410 with the advanced
// round index, the finished session is bit-identical to the offline
// sequential path, and the per-wire topk ingest counters on /metrics equal
// the /stats totals exactly.
func TestTopKMixedWireHammer(t *testing.T) {
	data := topkTestData(2, 64, 600, 66)
	const seed = 6767
	params := topk.SessionParams{
		Framework: "pts", Classes: data.Classes, Items: data.Items,
		K: 2, Eps: 2, Users: data.N(), Seed: seed, Opt: topk.Optimized(),
	}
	offline, err := topk.NewSession(params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := topk.RunSession(offline, data.Pairs)
	if err != nil {
		t.Fatal(err)
	}

	_, hs := topkTestServer(t)
	ts, err := NewTopKSession(hs.URL, nil, params)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ts.Round()
	if err != nil {
		t.Fatal(err)
	}
	quota := rd.Config.Quota
	chunk := 1
	for c := 32; c > 1; c-- {
		if quota%c == 0 {
			chunk = c
			break
		}
	}
	enc, err := topk.NewRoundEncoder(rd.Config)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]topk.RoundReport, quota)
	for i := range reps {
		if reps[i], err = enc.Encode(data.Pairs[i], topk.UserRand(seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly quota reports in chunk-sized pieces, even chunks JSON and odd
	// chunks binary: every reservation is all-or-nothing at a chunk
	// multiple, so each post must be accepted whole.
	chunks := make(chan int, quota/chunk)
	for i := 0; i < quota/chunk; i++ {
		chunks <- i
	}
	close(chunks)
	var (
		wg                   sync.WaitGroup
		jsonSent, binarySent atomic.Int64
	)
	cfg0 := rd.Config
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range chunks {
				piece := reps[i*chunk : (i+1)*chunk]
				var ack *WireTopKAck
				var err error
				if i%2 == 0 {
					ack, err = ts.PostReports(piece)
					jsonSent.Add(int64(len(piece)))
				} else {
					ack, err = ts.PostReportsBinary(cfg0, piece)
					binarySent.Add(int64(len(piece)))
				}
				if err != nil {
					t.Errorf("chunk %d: %v", i, err)
					return
				}
				if ack.Accepted != len(piece) || ack.Rejected != 0 {
					t.Errorf("chunk %d ack %+v, want %d accepted", i, ack, len(piece))
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	rd2, err := ts.Round()
	if err != nil {
		t.Fatal(err)
	}
	if rd2.Done || rd2.Config.Round != 1 || rd2.Received != 0 {
		t.Fatalf("after mixed fill: %+v", rd2)
	}
	// Stale posts against the sealed round — both wires must answer 410
	// Gone carrying the advanced round index.
	if ack, err := ts.PostReports(reps[:1]); err == nil {
		t.Fatal("stale JSON batch accepted")
	} else if code, _ := StatusCode(err); code != http.StatusGone || ack == nil || ack.Round != 1 {
		t.Fatalf("stale JSON batch: code %d, ack %+v", code, ack)
	}
	if ack, err := ts.PostReportsBinary(cfg0, reps[:1]); err == nil {
		t.Fatal("stale binary frame accepted")
	} else if code, _ := StatusCode(err); code != http.StatusGone || ack == nil || ack.Round != 1 {
		t.Fatalf("stale binary frame: code %d, ack %+v", code, ack)
	}
	// Finish the session sequentially (JSON) and pin bit-identity with the
	// offline sequential absorb: merge-at-seal changed nothing.
	got := driveSession(t, ts, data.Pairs, seed, 128, quota)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-wire rankings %v != offline %v", got, want)
	}
	remaining := data.N() - quota // driveSession shipped the rest over JSON

	var st WireStats
	fetchStats(t, hs.Client(), hs.URL+"/stats", &st)
	if st.TopK == nil {
		t.Fatal("stats missing topk block")
	}
	wantJSON := jsonSent.Load() + int64(remaining)
	wantBinary := binarySent.Load()
	if st.TopK.ReportsJSON != wantJSON || st.TopK.ReportsBinary != wantBinary {
		t.Fatalf("stats report totals json=%d binary=%d, want %d/%d",
			st.TopK.ReportsJSON, st.TopK.ReportsBinary, wantJSON, wantBinary)
	}
	samples := scrapeMetrics(t, hs.Client(), hs.URL).Samples()
	if got := samples[`mcim_ingest_reports_total{tier="topk",wire="json"}`]; int64(got) != wantJSON {
		t.Fatalf("metrics topk json reports %v, want %d", got, wantJSON)
	}
	if got := samples[`mcim_ingest_reports_total{tier="topk",wire="binary"}`]; int64(got) != wantBinary {
		t.Fatalf("metrics topk binary reports %v, want %d", got, wantBinary)
	}
}

// TestTopKStatsBlock: /stats carries the mining tier — open sessions, the
// live round per session, reports folded this round, and (on a durable
// server) the session log's WAL block.
func TestTopKStatsBlock(t *testing.T) {
	srv, hs := topkTestServer(t, WithWAL(t.TempDir()))
	defer srv.Close()
	data := topkTestData(2, 64, 200, 64)
	const seed = 11
	ts, err := NewTopKSession(hs.URL, nil, topk.SessionParams{
		Framework: "hec", Classes: data.Classes, Items: data.Items,
		K: 2, Eps: 2, Users: data.N(), Seed: seed,
		Opt: topk.Options{Shuffling: true, VP: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ts.Round()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := topk.NewRoundEncoder(rd.Config)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]topk.RoundReport, 3)
	for j := range reps {
		if reps[j], err = enc.Encode(data.Pairs[j], topk.UserRand(seed, j)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ts.PostReports(reps); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st WireStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TopK == nil {
		t.Fatal("stats missing topk block")
	}
	if st.TopK.Sessions != 1 || st.TopK.Open != 1 || len(st.TopK.Detail) != 1 {
		t.Fatalf("topk stats %+v", st.TopK)
	}
	d := st.TopK.Detail[0]
	if d.ID != ts.ID() || d.Framework != "hec" || d.Round != 0 || d.Received != 3 || d.Done {
		t.Fatalf("session stat %+v", d)
	}
	// The create and the report batch are both logged and not yet compacted.
	if w := st.TopK.WAL; w == nil || w.Segments < 1 || w.BytesSinceCompaction <= 0 || w.LastSnapshot != "" {
		t.Fatalf("topk wal stats %+v, want a live uncompacted log", w)
	}
}

// TestTopKSessionAPIValidation covers the endpoint edges: malformed and
// unservable creates, unknown ids, premature results, the session cap.
func TestTopKSessionAPIValidation(t *testing.T) {
	_, hs := topkTestServer(t)
	post := func(body string) int {
		resp, err := http.Post(hs.URL+"/topk/sessions", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := post(`{nope`); code != http.StatusBadRequest {
		t.Fatalf("malformed create → %d", code)
	}
	if code := post(`{"framework":"pem","classes":2,"items":8,"k":1,"eps":1,"users":10}`); code != http.StatusBadRequest {
		t.Fatalf("unknown framework → %d", code)
	}
	// A domain beyond the wire cap plans fine offline but cannot be served.
	if code := post(`{"framework":"ptj","classes":4096,"items":4096,"k":1,"eps":1,"users":10,"options":{"shuffling":true}}`); code != http.StatusBadRequest {
		t.Fatalf("unservable joint domain → %d", code)
	}
	for _, path := range []string{"/topk/sessions/zzz", "/topk/sessions/zzz/round", "/topk/sessions/zzz/result"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s → %d", path, resp.StatusCode)
		}
	}
	ts, err := NewTopKSession(hs.URL, nil, topk.SessionParams{
		Framework: "pts", Classes: 2, Items: 64, K: 2, Eps: 2, Users: 100, Seed: 1,
		Opt: topk.Optimized(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Result(); err == nil {
		t.Fatal("mid-protocol result served")
	} else if code, ok := StatusCode(err); !ok || code != http.StatusConflict {
		t.Fatalf("mid-protocol result error %v", err)
	}
}

// TestTopKSessionLimit: creates beyond MaxSessions are refused with 429,
// and DELETE evicts a session to free its slot — durably: a restart on the
// same WAL does not resurrect it.
func TestTopKSessionLimit(t *testing.T) {
	proto, err := core.NewProtocol("ptscp", 2, 8, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := []ServerOption{
		WithTopKSessions(TopKOptions{MaxSessions: 2}),
		WithWAL(dir), WithWALOptions(wal.Options{Sync: wal.SyncAlways}),
	}
	srv, err := NewServer(proto, opts...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	params := topk.SessionParams{Framework: "hec", Classes: 2, Items: 16, K: 1, Eps: 1, Users: 10, Opt: topk.Options{Shuffling: true}}
	var held []*TopKSession
	for i := 0; i < 2; i++ {
		ts, err := NewTopKSession(hs.URL, nil, params)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, ts)
	}
	if _, err := NewTopKSession(hs.URL, nil, params); err == nil {
		t.Fatal("third session accepted over a limit of 2")
	}
	// Eviction frees the slot...
	if err := held[0].Delete(); err != nil {
		t.Fatal(err)
	}
	if err := held[0].Delete(); err == nil {
		t.Fatal("double delete accepted")
	}
	ts3, err := NewTopKSession(hs.URL, nil, params)
	if err != nil {
		t.Fatalf("create after delete: %v", err)
	}
	// ...and sticks across a SIGKILL-style restart.
	hs.Close()
	srvB, err := NewServer(proto, opts...)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srvB.Close()
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	if _, err := OpenTopKSession(hsB.URL, nil, held[0].ID()); err == nil {
		t.Fatal("deleted session resurrected by WAL replay")
	}
	for _, id := range []string{held[1].ID(), ts3.ID()} {
		if _, err := OpenTopKSession(hsB.URL, nil, id); err != nil {
			t.Fatalf("surviving session %s lost: %v", id, err)
		}
	}
}
