package topk

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// TestPlannerEqualsMergedPartial pins the one aggregate a round has: a planner that
// absorbs a round itself, and a planner that has it merged in from a
// free-standing partial, hold byte-identical state (MarshalBinary) after
// every round and finish on the offline Mine result — for every framework,
// with and without validity perturbation, over either wire. The partial is
// built over LayoutOf the broadcast, not over the planner's own layout: an
// equal value behind another pointer, which is what an edge collector or
// the benchmark ladder has, and MergePartial must accept and drain it.
func TestPlannerEqualsMergedPartial(t *testing.T) {
	data := topkDataset(3, 128, 9000, true, xrand.New(90))
	const k, eps = 4, 5.0
	for _, fw := range []string{"hec", "ptj", "pts"} {
		for _, vp := range []bool{false, true} {
			opt := Options{Shuffling: true, VP: vp}
			if fw == "pts" {
				opt.Global, opt.CP = true, true
			}
			mined, err := mineVia(fw, opt, data, k, eps, xrand.New(91))
			if err != nil {
				t.Fatal(err)
			}
			for _, wire := range []string{"json", "binary"} {
				t.Run(fmt.Sprintf("%s/vp=%v/%s", fw, vp, wire), func(t *testing.T) {
					params := SessionParams{Framework: fw, Classes: data.Classes, Items: data.Items,
						K: k, Eps: eps, Users: data.N(), Seed: xrand.New(91).Uint64(), Opt: opt}
					direct, err := NewSession(params)
					if err != nil {
						t.Fatal(err)
					}
					merged, err := NewSession(params)
					if err != nil {
						t.Fatal(err)
					}
					user := 0
					for !direct.Done() {
						cfg, reps := encodeRound(t, direct, data.Pairs, &user)
						layout, err := LayoutOf(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if own, _ := merged.Layout(); own == layout || !reflect.DeepEqual(own, layout) {
							t.Fatalf("round %d: LayoutOf %+v, planner's own %+v: want equal values, distinct pointers", cfg.Round, layout, own)
						}
						part := NewRoundPartial(layout)
						for lo := 0; lo < len(reps); lo += 200 {
							batch := reps[lo:min(lo+200, len(reps))]
							if wire == "json" {
								for _, rep := range batch {
									if err := direct.Absorb(rep); err != nil {
										t.Fatal(err)
									}
									if err := part.Absorb(rep); err != nil {
										t.Fatal(err)
									}
								}
								continue
							}
							frame, err := AppendRoundFrame(nil, "s", layout, batch)
							if err != nil {
								t.Fatal(err)
							}
							f, err := PeekRoundFrame(frame)
							if err != nil {
								t.Fatal(err)
							}
							if err := direct.AbsorbRoundFrame(f); err != nil {
								t.Fatal(err)
							}
							if err := part.AbsorbFrame(f); err != nil {
								t.Fatal(err)
							}
						}
						if err := merged.MergePartial(part); err != nil {
							t.Fatal(err)
						}
						if part.Received() != 0 || merged.Received() != len(reps) {
							t.Fatalf("round %d: merge left %d in the partial and %d of %d in the planner",
								cfg.Round, part.Received(), merged.Received(), len(reps))
						}
						a, err := direct.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						b, err := merged.MarshalBinary()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(a, b) {
							t.Fatalf("round %d: merged planner state differs from the directly absorbed one", cfg.Round)
						}
						if err := direct.Advance(); err != nil {
							t.Fatal(err)
						}
						if err := merged.Advance(); err != nil {
							t.Fatal(err)
						}
					}
					for name, pl := range map[string]*Planner{"direct": direct, "merged": merged} {
						got, err := pl.Result()
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, mined) {
							t.Fatalf("%s planner mined %+v, offline Mine %+v", name, got, mined)
						}
					}
				})
			}
		}
	}
}

// TestPlannerAbsorbRoundFrameAllocatesNothing: WAL replay of a raw frame
// record counts straight into the planner's live round — no partial is built
// per record.
func TestPlannerAbsorbRoundFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	pl, pairs := newBinwireSession(t, "pts", Optimized(), 505)
	user := 0
	_, reps := encodeRound(t, pl, pairs, &user)
	layout, _ := pl.Layout()
	frame, err := AppendRoundFrame(nil, "s", layout, reps[:512])
	if err != nil {
		t.Fatal(err)
	}
	f, err := PeekRoundFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := pl.AbsorbRoundFrame(f); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("AbsorbRoundFrame allocates %v times a 512-report frame", allocs)
	}
}
