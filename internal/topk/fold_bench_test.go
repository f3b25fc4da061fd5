package topk

import (
	"testing"

	"repro/internal/xrand"
)

// BenchmarkRoundFrameFold folds every frame of one planned session into
// round partials: pts with the optimized options, c = 5, d = 1,000, k = 8,
// 65,536 users posted in 4,096-report frames. Its global rounds carry one
// 161-bit VP space (three words a row), its per-class rounds five spaces of
// about 32 bits (one word a row), so each shape runs and reports its
// ns/report apart.
func BenchmarkRoundFrameFold(b *testing.B) {
	const perFrame = 4096
	data := topkDataset(5, 1000, 65536, true, xrand.New(3))
	pl, err := NewSession(SessionParams{Framework: "pts", Classes: data.Classes, Items: data.Items,
		K: 8, Eps: 2, Users: data.N(), Seed: 37, Opt: Optimized()})
	if err != nil {
		b.Fatal(err)
	}
	type round struct {
		layout  *RoundLayout
		frames  []RoundFrame
		reports int
	}
	var global, perClass []round
	for user := 0; !pl.Done(); {
		_, reps := encodeRound(b, pl, data.Pairs, &user)
		l, _ := pl.Layout()
		rd := round{layout: l, reports: len(reps)}
		for lo := 0; lo < len(reps); lo += perFrame {
			frame, err := AppendRoundFrame(nil, "bench", l, reps[lo:min(lo+perFrame, len(reps))])
			if err != nil {
				b.Fatal(err)
			}
			f, err := PeekRoundFrame(frame)
			if err != nil {
				b.Fatal(err)
			}
			if err := pl.AbsorbRoundFrame(f); err != nil {
				b.Fatal(err)
			}
			rd.frames = append(rd.frames, f)
		}
		if l.Single {
			global = append(global, rd)
		} else {
			perClass = append(perClass, rd)
		}
		if err := pl.Advance(); err != nil {
			b.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		rounds []round
	}{{"global", global}, {"per-class", perClass}} {
		b.Run(tc.name, func(b *testing.B) {
			parts, reports := make([]*RoundPartial, len(tc.rounds)), 0
			for i, rd := range tc.rounds {
				parts[i], reports = NewRoundPartial(rd.layout), reports+rd.reports
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, rd := range tc.rounds {
					for _, f := range rd.frames {
						if err := parts[j].AbsorbFrame(f); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*reports), "ns/report")
			b.ReportMetric(float64(len(tc.rounds)), "rounds")
		})
	}
}
