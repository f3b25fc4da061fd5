package collect

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/topk"
	"repro/internal/wal"
)

// plannerFields mirrors the gob payload of a marshaled planner, field by
// field. States written by two processes are compared through it rather than
// byte for byte: gob numbers a type when a process first encodes it, so equal
// states marshaled by different processes can differ in their type ids.
type plannerFields struct {
	Params          topk.SessionParams
	Round, Received int
	Done            bool
	Rand            []byte
	Global          *topk.SpaceDesc
	Spaces          []topk.SpaceDesc
	Aggs            []struct {
		VP               bool
		Buckets          int
		Counts           []int64
		N, Kept, Dropped int
	}
	LabelRouted []int64
	LabelTotal  int64
	CPFlags     []bool
	Result      *topk.Result
}

func decodePlannerFields(t *testing.T, blob []byte) plannerFields {
	t.Helper()
	_, payload, err := state.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	var f plannerFields
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestParentWrittenSessionLogReplays replays a session log the parent commit
// (the sharded-lane hub) wrote and left behind under kill -9 — a compaction
// snapshot taken mid-round, then 'C', JSON 'T', binary 'W' and 'D' records, a
// session that ran to its result inside the tail, and a torn last frame — and
// holds the replay to what the parent's own restart made of the same bytes:
// the same sessions, the same marshaled planner state, the same ranking for
// the finished session, and for the one finished here the ranking of its
// parent-written state finished offline. testdata/topk_parent_log is that
// directory plus the parent's expectations.
func TestParentWrittenSessionLogReplays(t *testing.T) {
	const fixture = "testdata/topk_parent_log"
	dir := t.TempDir()
	logDir := filepath.Join(dir, "topk")
	if err := os.Mkdir(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(filepath.Join(fixture, "wal", "topk"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(fixture, "wal", "topk", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(logDir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, hs := topkTestServer(t, WithWAL(dir), WithWALOptions(wal.Options{Sync: wal.SyncNever}))
	defer srv.Close()

	if _, err := OpenTopKSession(hs.URL, nil, "s000002"); err == nil {
		t.Fatal("the session the log's 'D' record evicted came back")
	} else if code, _ := StatusCode(err); code != http.StatusNotFound {
		t.Fatalf("evicted session: %v", err)
	}
	wantResult := func(id string) *topk.Result {
		t.Helper()
		blob, err := os.ReadFile(filepath.Join(fixture, id+".result.json"))
		if err != nil {
			t.Fatal(err)
		}
		var res topk.Result
		if err := json.Unmarshal(blob, &res); err != nil {
			t.Fatal(err)
		}
		return &res
	}
	for _, id := range []string{"s000001", "s000003"} {
		sess, ok := srv.topk.lookup(id)
		if !ok {
			t.Fatalf("session %s not recovered", id)
		}
		got, err := sess.pl.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(fixture, id+".state"))
		if err != nil {
			t.Fatal(err)
		}
		if g, w := decodePlannerFields(t, got), decodePlannerFields(t, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("session %s replayed to\n%+v\nthe parent replayed it to\n%+v", id, g, w)
		}
	}
	// s000003 ran to completion inside the log's tail.
	ts3, err := OpenTopKSession(hs.URL, nil, "s000003")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ts3.Result(); err != nil || !reflect.DeepEqual(got, wantResult("s000003")) {
		t.Fatalf("s000003 result %+v (err %v), the parent served %+v", got, err, wantResult("s000003"))
	}
	// s000001 was killed mid-round with users [0,320) answered. Finished
	// from there over HTTP it must rank what an offline twin ranks: the
	// parent's marshaled state, fed the same users [320,1500) with the same
	// per-user generators. The reports are perturbed here, at run time, so
	// the twin and not a stored ranking is the reference.
	blob, err := os.ReadFile(filepath.Join(fixture, "s000001.state"))
	if err != nil {
		t.Fatal(err)
	}
	twin, err := topk.UnmarshalSession(blob)
	if err != nil {
		t.Fatal(err)
	}
	data := topkTestData(2, 64, 1500, 71)
	for user := 320; !twin.Done(); {
		cfg := twin.Config()
		enc, err := topk.NewRoundEncoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := twin.Received(); j < cfg.Quota; j++ {
			rep, err := enc.Encode(data.Pairs[user], topk.UserRand(1601, user))
			if err != nil {
				t.Fatal(err)
			}
			if err := twin.Absorb(rep); err != nil {
				t.Fatal(err)
			}
			user++
		}
		if err := twin.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := twin.Result()
	if err != nil {
		t.Fatal(err)
	}
	ts1, err := OpenTopKSession(hs.URL, nil, "s000001")
	if err != nil {
		t.Fatal(err)
	}
	if got := driveSession(t, ts1, data.Pairs, 1601, 64, 320); !reflect.DeepEqual(got, want) {
		t.Fatalf("s000001 finished on %+v, its offline twin on %+v", got, want)
	}
}

// TestTopKFrameCommittedAfterSeal pins the one race the single session lock
// leaves open by design: a frame is folded into a delta against round r's
// layout outside the lock, round r seals, and only then does the delta
// reach the commit. It must be answered 410 with the advanced round, and leave no WAL
// record and no rate-limit debit behind.
func TestTopKFrameCommittedAfterSeal(t *testing.T) {
	srv, hs := topkTestServer(t, WithWAL(t.TempDir()), WithRateLimit(1000, 100000))
	defer srv.Close()
	frozen := time.Now()
	srv.limit.now = func() time.Time { return frozen } // no refill: debits stay visible
	data := topkTestData(2, 64, 400, 67)
	const seed = 6868
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
	enc, err := topk.NewRoundEncoder(rd.Config)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]topk.RoundReport, rd.Config.Quota+8)
	for i := range reps {
		if reps[i], err = enc.Encode(data.Pairs[i], topk.UserRand(seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	fill, late := reps[:rd.Config.Quota], reps[rd.Config.Quota:]

	// The late frame gets as far as a handler does before its commit...
	sess, _ := srv.topk.lookup(ts.ID())
	layout, _, ok := srv.liveRound(httptest.NewRecorder(), sess)
	if !ok || layout == nil {
		t.Fatal("fresh session has no live round")
	}
	body, err := topk.AppendRoundFrame(nil, ts.ID(), layout, late)
	if err != nil {
		t.Fatal(err)
	}
	f, err := topk.PeekRoundFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	delta := topk.NewRoundPartial(layout)
	if err := delta.AbsorbFrame(f); err != nil {
		t.Fatal(err)
	}
	// ...then the round fills and seals under it...
	if ack, err := ts.PostReportsBinary(rd.Config, fill); err != nil || ack.Round != 1 {
		t.Fatalf("filling round 0: ack %+v, err %v", ack, err)
	}
	logged, tokens := srv.topk.walStats().BytesSinceCompaction, srv.limit.tokens
	// ...and the commit finds another round live.
	rec := httptest.NewRecorder()
	srv.commitTopKFrame(rec, sess, delta, f.Count, body, time.Now())
	var ack WireTopKAck
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); rec.Code != http.StatusGone || err != nil {
		t.Fatalf("late commit answered %d %q (decode: %v), want 410 with an ack", rec.Code, rec.Body, err)
	}
	if ack.Round != 1 || ack.Accepted != 0 || ack.Rejected != len(late) || ack.Received != 0 {
		t.Fatalf("late commit ack %+v, want round 1 with all %d rejected", ack, len(late))
	}
	if got := srv.topk.walStats().BytesSinceCompaction; got != logged {
		t.Fatalf("late commit grew the session log from %d to %d bytes", logged, got)
	}
	if srv.limit.tokens != tokens {
		t.Fatalf("late commit moved the rate bucket from %v to %v", tokens, srv.limit.tokens)
	}
}

// TestTopKFrameFoldAllocatesNothing pins the serving path of a binary round
// frame once the session's delta pool is warm: the fold of a 4,096-report
// frame into a pooled delta outside the lock, and the commit that logs the
// raw frame and merges the delta under it, allocate nothing.
func TestTopKFrameFoldAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	srv, hs := topkTestServer(t, WithWAL(t.TempDir()), WithWALOptions(wal.Options{Sync: wal.SyncNever}),
		WithCompactAfter(1<<40))
	defer srv.Close()
	data := topkTestData(5, 1000, 4096, 71)
	const seed = 7171
	ts, err := NewTopKSession(hs.URL, nil, topk.SessionParams{
		Framework: "pts", Classes: data.Classes, Items: data.Items,
		K: 8, Eps: 2, Users: 1 << 28, Seed: seed, Opt: topk.Optimized(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := srv.topk.lookup(ts.ID())
	layout, _, ok := srv.liveRound(httptest.NewRecorder(), sess)
	if !ok || layout == nil {
		t.Fatal("fresh session has no live round")
	}
	enc, err := topk.NewRoundEncoder(sess.pl.Config())
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]topk.RoundReport, data.N())
	for i := range reps {
		if reps[i], err = enc.Encode(data.Pairs[i], topk.UserRand(seed, i)); err != nil {
			t.Fatal(err)
		}
	}
	body, err := topk.AppendRoundFrame(nil, ts.ID(), layout, reps)
	if err != nil {
		t.Fatal(err)
	}
	f, err := topk.PeekRoundFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder() // written only on a refusal
	if allocs := testing.AllocsPerRun(50, func() {
		delta := sess.delta(layout)
		if err := delta.AbsorbFrame(f); err != nil {
			t.Fatal(err)
		}
		if take, stale, _, ok := srv.commitDelta(rec, sess, delta, f.Count, body); !ok || stale != nil || take != f.Count {
			t.Fatalf("commit took %d of %d (stale %v, ok %v): %s", take, f.Count, stale, ok, rec.Body)
		}
	}); allocs != 0 {
		t.Fatalf("folding and committing a %d-report frame allocated %v times", f.Count, allocs)
	}
	if got := sess.pl.Received(); got != 51*f.Count {
		t.Fatalf("live round holds %d reports, want 51 × %d", got, f.Count)
	}
}

// TestTopKPooledDeltaEveryRound drives a whole session over the binary wire
// from concurrent posters sharing the session's delta pool: in every round
// each first posts a frame that fails its fold (400, the delta goes back to
// the pool empty), then they fill the quota exactly, then each posts a
// frame for the sealed round (410). Deltas are reused within a round, dropped across its seal
// and after a refusal, and the finished session must equal the offline
// sequential one.
func TestTopKPooledDeltaEveryRound(t *testing.T) {
	data := topkTestData(2, 64, 900, 72)
	const seed, workers = 7272, 4
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
	post := func(body []byte) int {
		resp, err := hs.Client().Post(hs.URL+"/topk/sessions/"+ts.ID()+"/reports", BinaryContentType, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for user := 0; ; {
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
		layout, err := topk.LayoutOf(rd.Config)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]topk.RoundReport, rd.Config.Quota)
		for i := range reps {
			if reps[i], err = enc.Encode(data.Pairs[user], topk.UserRand(seed, user)); err != nil {
				t.Fatal(err)
			}
			user++
		}
		// A one-report frame whose declared count is re-sealed one higher:
		// it peeks clean and fails on the record walk.
		short, err := topk.AppendRoundFrame(nil, ts.ID(), layout, reps[:1])
		if err != nil {
			t.Fatal(err)
		}
		short = short[:len(short)-4]
		short[4+1+1+1+len(ts.ID())+4]++
		short = core.FinishBinaryFrame(short, 0)

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if code := post(short); code != http.StatusBadRequest {
					t.Errorf("round %d: miscounted frame answered %d, want 400", rd.Config.Round, code)
				}
			}()
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for lo := w * 16; lo < len(reps); lo += workers * 16 {
					ack, err := ts.PostReportsBinary(rd.Config, reps[lo:min(lo+16, len(reps))])
					if err != nil || ack.Rejected != 0 {
						t.Errorf("round %d frame at %d: ack %+v, err %v", rd.Config.Round, lo, ack, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := ts.PostReportsBinary(rd.Config, reps[:1]); err == nil {
					t.Errorf("round %d: frame for the sealed round accepted", rd.Config.Round)
				} else if code, _ := StatusCode(err); code != http.StatusGone {
					t.Errorf("round %d: frame for the sealed round: %v, want 410", rd.Config.Round, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
	got, err := ts.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pooled-delta session mined %+v, offline %+v", got, want)
	}
}
