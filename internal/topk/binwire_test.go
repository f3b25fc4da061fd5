package topk

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

// newBinwireSession builds one live planner for a miner configuration over
// a small dataset, returning the planner and the user pairs that feed it.
func newBinwireSession(t *testing.T, fw string, opt Options, seed uint64) (*Planner, []core.Pair) {
	t.Helper()
	r := xrand.New(77)
	data := topkDataset(3, 128, 9000, true, r)
	pl, err := NewSession(SessionParams{
		Framework: fw, Classes: data.Classes, Items: data.Items,
		K: 4, Eps: 5, Users: data.N(), Seed: seed, Opt: opt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl, data.Pairs
}

// encodeRound encodes the live round's full quota of reports through the
// JSON broadcast round-trip a real client performs, and returns the
// over-the-wire config alongside the reports.
func encodeRound(t testing.TB, pl *Planner, pairs []core.Pair, user *int) (*RoundConfig, []RoundReport) {
	t.Helper()
	wire, err := json.Marshal(pl.Config())
	if err != nil {
		t.Fatal(err)
	}
	var cfg RoundConfig
	if err := json.Unmarshal(wire, &cfg); err != nil {
		t.Fatal(err)
	}
	enc, err := NewRoundEncoder(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]RoundReport, cfg.Quota)
	for i := range reps {
		rep, err := enc.Encode(pairs[*user], UserRand(pl.Params().Seed, *user))
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = rep
		*user++
	}
	return &cfg, reps
}

// TestRoundFrameRoundTrip pins the codec end to end for every miner: the
// client-side LayoutOf over the JSON broadcast matches the server-side
// Planner.Layout, and encode → peek → validate → decode reproduces every
// report bit-identically in order.
func TestRoundFrameRoundTrip(t *testing.T) {
	for _, tc := range sessionConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			pl, pairs := newBinwireSession(t, tc.fw, tc.opt, 501)
			user := 0
			for !pl.Done() {
				cfg, reps := encodeRound(t, pl, pairs, &user)
				client, err := LayoutOf(cfg)
				if err != nil {
					t.Fatal(err)
				}
				server, ok := pl.Layout()
				if !ok {
					t.Fatal("Layout returned done on a live session")
				}
				if !reflect.DeepEqual(client, server) {
					t.Fatalf("round %d: client layout %+v != server layout %+v", cfg.Round, client, server)
				}
				frame, err := AppendRoundFrame(nil, "sess-1", client, reps)
				if err != nil {
					t.Fatal(err)
				}
				f, err := PeekRoundFrame(frame)
				if err != nil {
					t.Fatal(err)
				}
				if string(f.SID) != "sess-1" || f.Round != cfg.Round || f.Count != len(reps) {
					t.Fatalf("peek = (%q, %d, %d), want (sess-1, %d, %d)", f.SID, f.Round, f.Count, cfg.Round, len(reps))
				}
				if err := f.Validate(server); err != nil {
					t.Fatal(err)
				}
				got, err := DecodeRoundFrame(server, f)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i].Round != reps[i].Round || got[i].Class != reps[i].Class ||
						!reflect.DeepEqual(sortedCopy(got[i].Bits), sortedCopy(reps[i].Bits)) {
						t.Fatalf("round %d report %d: decoded %+v, sent %+v", cfg.Round, i, got[i], reps[i])
					}
				}
				for _, rep := range reps {
					if err := pl.Absorb(rep); err != nil {
						t.Fatal(err)
					}
				}
				if err := pl.Advance(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func sortedCopy(bits []int) []int {
	out := append([]int(nil), bits...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) == 0 {
		return []int{}
	}
	return out
}

// TestShardedAbsorbMatchesSequential is the merge-at-seal equivalence pin:
// splitting every round's reports across shard partials — fed by a mix of
// the JSON report path (Absorb) and whole binary frames (AbsorbFrame) — and
// merging at the round boundary leaves the planner byte-identical
// (MarshalBinary) to absorbing the same reports sequentially, for every
// miner, through the whole session, down to the same Result.
func TestShardedAbsorbMatchesSequential(t *testing.T) {
	const shards = 4
	for _, tc := range sessionConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			seq, pairs := newBinwireSession(t, tc.fw, tc.opt, 502)
			shd, _ := newBinwireSession(t, tc.fw, tc.opt, 502)
			user := 0
			for !seq.Done() {
				_, reps := encodeRound(t, seq, pairs, &user)
				layout, ok := shd.Layout()
				if !ok {
					t.Fatal("sharded planner done before sequential")
				}
				parts := make([]*RoundPartial, shards)
				for i := range parts {
					parts[i] = NewRoundPartial(layout)
				}
				// Odd shards take whole binary frames, even shards absorb
				// report by report via the JSON path.
				for i := 0; i < len(reps); {
					s := (i / 7) % shards
					if s%2 == 1 {
						n := min(13, len(reps)-i)
						frame, err := AppendRoundFrame(nil, "s", layout, reps[i:i+n])
						if err != nil {
							t.Fatal(err)
						}
						f, err := PeekRoundFrame(frame)
						if err != nil {
							t.Fatal(err)
						}
						if err := parts[s].AbsorbFrame(f); err != nil {
							t.Fatal(err)
						}
						i += n
					} else {
						if err := parts[s].Absorb(reps[i]); err != nil {
							t.Fatal(err)
						}
						i++
					}
				}
				for _, rep := range reps {
					if err := seq.Absorb(rep); err != nil {
						t.Fatal(err)
					}
				}
				total := 0
				for _, p := range parts {
					total += p.Received()
				}
				if total != len(reps) {
					t.Fatalf("partials hold %d reports, fed %d", total, len(reps))
				}
				for _, p := range parts {
					if err := shd.MergePartial(p); err != nil {
						t.Fatal(err)
					}
					if p.Received() != 0 {
						t.Fatalf("partial not drained after merge: %d left", p.Received())
					}
				}
				seqBlob, err := seq.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				shdBlob, err := shd.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seqBlob, shdBlob) {
					t.Fatalf("round %d: sharded planner state diverged from sequential", seq.Round())
				}
				if err := seq.Advance(); err != nil {
					t.Fatal(err)
				}
				if err := shd.Advance(); err != nil {
					t.Fatal(err)
				}
			}
			want, err := seq.Result()
			if err != nil {
				t.Fatal(err)
			}
			got, err := shd.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sharded result %+v != sequential %+v", got, want)
			}
		})
	}
}

// TestAbsorbFrameMatchesAbsorb pins the column-sum absorb to the per-report
// path at the level of partial state: over hand-built layouts whose
// aggregates have unequal widths — word-aligned, straddling and, under VP,
// with the flag bit alone in its word — one frame of random reports must
// leave a partial exactly as Absorb report by report leaves it, for frames
// big enough to be summed by column, single-report frames and empty ones.
func TestAbsorbFrameMatchesAbsorb(t *testing.T) {
	r := xrand.New(31)
	for _, l := range []*RoundLayout{
		{Round: 2, Classes: 3, Bits: []int{70, 129, 64}},
		{Round: 2, Classes: 3, VP: true, Bits: []int{71, 130, 65}},
		{Round: 0, Classes: 4, Single: true, VP: true, Bits: []int{257}},
		{Round: 1, Classes: 1, PTJ: true, Single: true, Bits: []int{300}},
	} {
		for _, n := range []int{0, 1, 40, 900} {
			reps := make([]RoundReport, n)
			for i := range reps {
				rep := RoundReport{Round: l.Round}
				if !l.PTJ {
					rep.Class = r.Intn(l.Classes)
				}
				for b := 0; b < l.Bits[l.aggIndex(rep.Class)]; b++ {
					if r.Float64() < 0.3 {
						rep.Bits = append(rep.Bits, b)
					}
				}
				reps[i] = rep
			}
			frame, err := AppendRoundFrame(nil, "s", l, reps)
			if err != nil {
				t.Fatal(err)
			}
			f, err := PeekRoundFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			viaAbsorb, viaFrame := NewRoundPartial(l), NewRoundPartial(l)
			for round := 0; round < 2; round++ { // the second lands on held counts
				for _, rep := range reps {
					if err := viaAbsorb.Absorb(rep); err != nil {
						t.Fatal(err)
					}
				}
				if err := viaFrame.AbsorbFrame(f); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(viaFrame, viaAbsorb) {
					t.Fatalf("layout %+v, %d reports, round %d: AbsorbFrame left %+v, per-report Absorb %+v", l, n, round, viaFrame, viaAbsorb)
				}
			}
		}
	}
}

// TestAbsorbRoundFrameMatchesSequential pins the WAL-replay path: feeding a
// session nothing but raw frames through Planner.AbsorbRoundFrame is
// byte-identical to per-report Absorb.
func TestAbsorbRoundFrameMatchesSequential(t *testing.T) {
	for _, tc := range sessionConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			seq, pairs := newBinwireSession(t, tc.fw, tc.opt, 503)
			rep, _ := newBinwireSession(t, tc.fw, tc.opt, 503)
			user := 0
			for !seq.Done() {
				_, reps := encodeRound(t, seq, pairs, &user)
				layout, _ := rep.Layout()
				for i := 0; i < len(reps); i += 100 {
					n := min(100, len(reps)-i)
					frame, err := AppendRoundFrame(nil, "s", layout, reps[i:i+n])
					if err != nil {
						t.Fatal(err)
					}
					f, err := PeekRoundFrame(frame)
					if err != nil {
						t.Fatal(err)
					}
					if err := rep.AbsorbRoundFrame(f); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range reps {
					if err := seq.Absorb(r); err != nil {
						t.Fatal(err)
					}
				}
				a, _ := seq.MarshalBinary()
				b, _ := rep.MarshalBinary()
				if !bytes.Equal(a, b) {
					t.Fatalf("round %d: frame-replayed planner diverged", seq.Round())
				}
				if err := seq.Advance(); err != nil {
					t.Fatal(err)
				}
				if err := rep.Advance(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRoundFrameRejections walks the codec's failure paths: corruption and
// truncation die at the peek, semantic violations die at validation with a
// typed round mismatch, and a frame that fails validation absorbs nothing.
func TestRoundFrameRejections(t *testing.T) {
	pl, pairs := newBinwireSession(t, "hec", Options{Shuffling: true, VP: true}, 504)
	user := 0
	_, reps := encodeRound(t, pl, pairs, &user)
	layout, _ := pl.Layout()
	frame, err := AppendRoundFrame(nil, "sess", layout, reps[:64])
	if err != nil {
		t.Fatal(err)
	}

	if _, err := AppendRoundFrame(nil, "", layout, reps[:1]); err == nil {
		t.Fatal("empty session id encoded")
	}
	stale := reps[0]
	stale.Round++
	if _, err := AppendRoundFrame(nil, "sess", layout, []RoundReport{stale}); err == nil {
		t.Fatal("wrong-round report encoded")
	}

	if _, err := PeekRoundFrame(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated frame peeked clean")
	}
	if _, err := PeekRoundFrame(frame[:10]); err == nil {
		t.Fatal("header-truncated frame peeked clean")
	}
	mangled := append([]byte(nil), frame...)
	mangled[len(mangled)/2] ^= 0x40
	if _, err := PeekRoundFrame(mangled); err == nil {
		t.Fatal("CRC-corrupted frame peeked clean")
	}

	// Corrupt semantically but re-seal the CRC: inflate the declared count,
	// so the frame peeks clean and dies in the record walk with nothing
	// absorbed.
	resealed := append([]byte(nil), frame[:len(frame)-4]...)
	countOff := 4 + 1 + 1 + 1 + len("sess") + 4
	binary.LittleEndian.PutUint32(resealed[countOff:], 65)
	resealed = core.FinishBinaryFrame(resealed, 0)
	f, err := PeekRoundFrame(resealed)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(layout); err == nil {
		t.Fatal("overcounted frame validated clean")
	}
	part := NewRoundPartial(layout)
	if err := part.AbsorbFrame(f); err == nil {
		t.Fatal("overcounted frame absorbed")
	}
	if part.Received() != 0 {
		t.Fatalf("failed frame left %d reports in the partial", part.Received())
	}

	// A frame for another round is a typed mismatch at validation, so the
	// server can answer 410 with the live round.
	good, err := PeekRoundFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	future := *layout
	future.Round++
	var rm *RoundMismatchError
	if err := good.Validate(&future); !errors.As(err, &rm) {
		t.Fatalf("round mismatch surfaced as %v, want RoundMismatchError", err)
	} else if rm.Got != layout.Round || rm.Live != future.Round {
		t.Fatalf("mismatch carried (%d,%d), want (%d,%d)", rm.Got, rm.Live, layout.Round, future.Round)
	}

	// Merging a non-empty partial into the wrong round must refuse.
	if err := part.Absorb(reps[0]); err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if err := pl.Absorb(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.Advance(); err != nil {
		t.Fatal(err)
	}
	if err := pl.MergePartial(part); err == nil {
		t.Fatal("stale partial merged into an advanced round")
	}
}
