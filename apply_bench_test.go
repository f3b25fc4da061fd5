// In-process benchmarks of the frame apply — no HTTP, no WAL, one goroutine:
// a pre-encoded binary frame is CRC-checked, validated and folded into a
// live aggregate, which is all a server does with a report after transport.
// They sit one rung below the CollectIngest handler benchmarks, so the
// column kernel's cost model (work ∝ words × rows per frame, not set bits) is
// visible without net/http in front of it:
//
//	ApplyBinaryBatch/<framework>/eps=<ε>/frame=<n>  one 'F' frame of n reports
//	                                                at c=5, d=1000 (ptj rows
//	                                                are the 5,000-bit joint
//	                                                domain); ε=8 reports are
//	                                                ~15× sparser than ε=2
//	ApplyBinaryMeanBatch/<framework>/c<classes>/<n> one 'M' frame of n mean
//	                                                reports; c200 labels are
//	                                                mostly two-byte varints
//	TopKAbsorbFrame                                 one 512-report 'T' frame
//	                                                into a round partial
//
// `make bench-json` snapshots them with the handler benchmarks.
package mcim_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topk"
	"repro/internal/xrand"
)

const (
	applyBenchClasses = 5
	applyBenchItems   = 1000
)

// reportsPerSec reports the cross-benchmark number: reports folded per
// second at perOp reports per iteration.
func reportsPerSec(b *testing.B, perOp int) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N*perOp)/s, "reports/s")
	}
}

func BenchmarkApplyBinaryBatch(b *testing.B) {
	for _, name := range []string{"ptscp", "pts", "ptj", "hec"} {
		for _, eps := range []float64{2, 8} {
			for _, perFrame := range []int{8, 512} {
				b.Run(fmt.Sprintf("%s/eps=%v/frame=%d", name, eps, perFrame), func(b *testing.B) {
					p, err := core.NewProtocol(name, applyBenchClasses, applyBenchItems, eps, 0.5)
					if err != nil {
						b.Fatal(err)
					}
					enc, r := p.Encoder(), xrand.New(42)
					frames := make([][]byte, 16)
					for i := range frames {
						wires := make([]core.WirePayload, perFrame)
						for j := range wires {
							pair := core.Pair{Class: r.Intn(applyBenchClasses), Item: r.Intn(applyBenchItems)}
							wires[j] = p.EncodeReport(enc.Encode(pair, r))
						}
						if frames[i], err = p.AppendBinaryBatch(nil, wires); err != nil {
							b.Fatal(err)
						}
					}
					agg := p.NewAggregator()
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := p.ApplyBinaryBatch(agg, frames[i%len(frames)]); err != nil {
							b.Fatal(err)
						}
					}
					reportsPerSec(b, perFrame)
				})
			}
		}
	}
}

func BenchmarkApplyBinaryMeanBatch(b *testing.B) {
	for _, tc := range []struct {
		name              string
		classes, perFrame int
	}{{"cpmean", 5, 4096}, {"cpmean", 5, 64}, {"ptsmean", 200, 4096}} {
		b.Run(fmt.Sprintf("%s/c%d/%d", tc.name, tc.classes, tc.perFrame), func(b *testing.B) {
			p, err := core.NewNumericProtocol(tc.name, tc.classes, 2, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			frames := benchMeanBodies(b, p, 16, tc.perFrame, true)
			agg := p.NewAggregator()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.ApplyBinaryMeanBatch(agg, frames[i%len(frames)]); err != nil {
					b.Fatal(err)
				}
			}
			reportsPerSec(b, tc.perFrame)
		})
	}
}

func BenchmarkTopKAbsorbFrame(b *testing.B) {
	pl, err := topk.NewSession(topk.SessionParams{
		Framework: "pts", Classes: topkBenchClasses, Items: topkBenchItems,
		K: topkBenchK, Eps: 2, Users: 1 << 28, Seed: 7, Opt: topk.Optimized(),
	})
	if err != nil {
		b.Fatal(err)
	}
	layout, ok := pl.Layout()
	if !ok {
		b.Fatal("fresh session has no live round")
	}
	enc, err := topk.NewRoundEncoder(pl.Config())
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(99)
	frames := make([][]byte, 16)
	for i := range frames {
		reps := make([]topk.RoundReport, topkBenchBatch)
		for j := range reps {
			pair := core.Pair{Class: r.Intn(topkBenchClasses), Item: r.Intn(topkBenchItems)}
			if reps[j], err = enc.Encode(pair, r); err != nil {
				b.Fatal(err)
			}
		}
		if frames[i], err = topk.AppendRoundFrame(nil, "bench", layout, reps); err != nil {
			b.Fatal(err)
		}
	}
	part := topk.NewRoundPartial(layout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := topk.PeekRoundFrame(frames[i%len(frames)])
		if err != nil {
			b.Fatal(err)
		}
		if err := part.AbsorbFrame(f); err != nil {
			b.Fatal(err)
		}
	}
	reportsPerSec(b, topkBenchBatch)
}
