// Benchmarks that regenerate every table and figure of the paper at reduced
// scale (one benchmark per artifact — run `cmd/mcimbench` for full-size
// tables), plus micro-benchmarks of the perturbation mechanisms that
// dominate the pipelines' cost.
package mcim_test

import (
	"testing"

	mcim "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiment"
	"repro/internal/topk"
	"repro/internal/xrand"
)

// benchExperiment runs a registered experiment once per iteration at a
// small fixed scale so the full suite stays laptop-sized.
func benchExperiment(b *testing.B, id string, scale float64, trials int) {
	b.Helper()
	e, err := experiment.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiment.Config{Seed: 1, Scale: scale, Trials: trials}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1", 1, 1) }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2", 1, 1) }
func BenchmarkFig5a(b *testing.B)  { benchExperiment(b, "fig5a", 0.005, 10) }
func BenchmarkFig5b(b *testing.B)  { benchExperiment(b, "fig5b", 0.005, 10) }
func BenchmarkFig6a(b *testing.B)  { benchExperiment(b, "fig6a", 0.05, 1) }
func BenchmarkFig6b(b *testing.B)  { benchExperiment(b, "fig6b", 0.05, 1) }
func BenchmarkFig7a(b *testing.B)  { benchExperiment(b, "fig7a", 0.005, 1) }
func BenchmarkFig7b(b *testing.B)  { benchExperiment(b, "fig7b", 0.005, 1) }
func BenchmarkFig7c(b *testing.B)  { benchExperiment(b, "fig7c", 0.005, 1) }
func BenchmarkFig7d(b *testing.B)  { benchExperiment(b, "fig7d", 0.005, 1) }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8", 0.005, 1) }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9", 0.005, 1) }
func BenchmarkFig10a(b *testing.B) { benchExperiment(b, "fig10a", 0.002, 1) }
func BenchmarkFig10b(b *testing.B) { benchExperiment(b, "fig10b", 0.002, 1) }
func BenchmarkFig10c(b *testing.B) { benchExperiment(b, "fig10c", 0.002, 1) }
func BenchmarkFig10d(b *testing.B) { benchExperiment(b, "fig10d", 0.002, 1) }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3", 0.005, 1) }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11", 0.002, 1) }
func BenchmarkFig12a(b *testing.B) { benchExperiment(b, "fig12a", 0.005, 1) }
func BenchmarkFig12b(b *testing.B) { benchExperiment(b, "fig12b", 0.005, 1) }
func BenchmarkFig12c(b *testing.B) { benchExperiment(b, "fig12c", 0.005, 1) }
func BenchmarkFig12d(b *testing.B) { benchExperiment(b, "fig12d", 0.005, 1) }
func BenchmarkExt1(b *testing.B)   { benchExperiment(b, "ext1", 0.02, 1) }
func BenchmarkExt2(b *testing.B)   { benchExperiment(b, "ext2", 0.005, 1) }

// --- mechanism micro-benchmarks -------------------------------------------

func BenchmarkGRRPerturb(b *testing.B) {
	m, err := mcim.NewGRR(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(i%1024, r)
	}
}

func BenchmarkOUEPerturb1k(b *testing.B) {
	m, err := mcim.NewOUE(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(i%1024, r)
	}
}

func BenchmarkOUEPerturb64k(b *testing.B) {
	// The word-at-a-time path: O(⌈d/64⌉) words of ≈7 draws whatever q is,
	// each bit exactly Bernoulli(q) for the float64 q.
	m, err := mcim.NewOUE(65536, 4)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(i%65536, r)
	}
}

func BenchmarkOLHPerturb(b *testing.B) {
	m, err := mcim.NewOLH(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Perturb(i%1024, r)
	}
}

func BenchmarkVPPerturb(b *testing.B) {
	vp, err := mcim.NewVP(1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := i % 1025
		if v == 1024 {
			v = mcim.Invalid
		}
		vp.Perturb(v, r)
	}
}

func BenchmarkCPPerturb(b *testing.B) {
	cp, err := mcim.NewCP(5, 1024, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp.Perturb(mcim.Pair{Class: i % 5, Item: i % 1024}, r)
	}
}

// --- pipeline benchmarks ---------------------------------------------------

func benchFrequency(b *testing.B, est core.FrequencyEstimator) {
	b.Helper()
	data := dataset.SYN1(0.002)
	r := xrand.New(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := est.Estimate(data, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrequencyHEC(b *testing.B) { benchFrequency(b, core.NewHEC(1)) }
func BenchmarkFrequencyPTJ(b *testing.B) { benchFrequency(b, core.NewPTJ(1)) }
func BenchmarkFrequencyPTS(b *testing.B) {
	pts, err := core.NewPTS(1, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	benchFrequency(b, pts)
}
func BenchmarkFrequencyPTSCP(b *testing.B) {
	cp, err := core.NewPTSCP(1, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	benchFrequency(b, cp)
}

func benchMiner(b *testing.B, m topk.Miner) {
	b.Helper()
	data, err := dataset.Anime(3, 0.002)
	if err != nil {
		b.Fatal(err)
	}
	r := xrand.New(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Mine(data, 10, 4, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinerHEC(b *testing.B) { benchMiner(b, topk.NewHEC(topk.Baseline())) }
func BenchmarkMinerPTJ(b *testing.B) { benchMiner(b, topk.NewPTJ(topk.Baseline())) }
func BenchmarkMinerPTSBaseline(b *testing.B) {
	benchMiner(b, topk.NewPTS(topk.Baseline()))
}
func BenchmarkMinerPTSOptimized(b *testing.B) {
	benchMiner(b, topk.NewPTS(topk.Optimized()))
}
