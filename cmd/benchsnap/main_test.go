package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkCollectIngest/single-mutex         	   35192	     33457 ns/op	     29889 reports/s	    8814 B/op	     105 allocs/op
BenchmarkCollectIngest/batched      	     678	   1807064 ns/op	    283333 reports/s	  496883 B/op	    4031 allocs/op
BenchmarkGRRPerturb-8   	12345678	        95.31 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	5.912s
`

func TestParse(t *testing.T) {
	snap, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Goos != "linux" || snap.Goarch != "amd64" || snap.Pkg != "repro" {
		t.Fatalf("header %+v", snap)
	}
	if len(snap.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(snap.Benchmarks))
	}
	single := snap.Benchmarks[0]
	if single.Name != "BenchmarkCollectIngest/single-mutex" || single.Iterations != 35192 {
		t.Fatalf("first benchmark %+v", single)
	}
	if single.Metrics["reports_per_s"] != 29889 {
		t.Fatalf("reports/s metric %v", single.Metrics)
	}
	if single.Metrics["ns_per_op"] != 33457 || single.Metrics["allocs_per_op"] != 105 {
		t.Fatalf("standard metrics %v", single.Metrics)
	}
	grr := snap.Benchmarks[2]
	if grr.Name != "BenchmarkGRRPerturb" || grr.Procs != 8 {
		t.Fatalf("GOMAXPROCS suffix not stripped: %+v", grr)
	}
	if grr.Metrics["ns_per_op"] != 95.31 {
		t.Fatalf("fractional ns/op %v", grr.Metrics)
	}
}

func TestParseLineRejectsGarbage(t *testing.T) {
	if _, err := parseLine("BenchmarkX"); err == nil {
		t.Fatal("short line accepted")
	}
	if _, err := parseLine("BenchmarkX notanumber 12 ns/op"); err == nil {
		t.Fatal("bad iteration count accepted")
	}
	if _, err := parseLine("BenchmarkX 10 twelve ns/op"); err == nil {
		t.Fatal("bad metric value accepted")
	}
}

// TestParseLineSubBenchmarkDash guards the name/procs split: a trailing
// -N is a procs suffix, but a dash inside a sub-benchmark name is not.
func TestParseLineSubBenchmarkDash(t *testing.T) {
	b, err := parseLine("BenchmarkCollectIngest/batched 678 1807064 ns/op")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "BenchmarkCollectIngest/batched" || b.Procs != 1 {
		t.Fatalf("parsed %+v", b)
	}
}

// TestCompare pins the gate semantics: an artificially degraded benchmark
// must fail the comparison, in-tolerance drift and improvements must not,
// and missing/new benchmarks are warnings rather than failures.
func TestCompare(t *testing.T) {
	bench := func(name string, metrics map[string]float64) Benchmark {
		return Benchmark{Name: name, Procs: 1, Iterations: 1, Metrics: metrics}
	}
	old := &Snapshot{Benchmarks: []Benchmark{
		bench("BenchmarkIngest/batched", map[string]float64{"reports_per_s": 1_000_000, "ns_per_op": 500}),
		bench("BenchmarkPerturb", map[string]float64{"ns_per_op": 100}),
		bench("BenchmarkRenamedAway", map[string]float64{"ns_per_op": 10}),
	}}

	t.Run("degraded throughput fails", func(t *testing.T) {
		fresh := &Snapshot{Benchmarks: []Benchmark{
			// 40% throughput loss: well past the 15% gate.
			bench("BenchmarkIngest/batched", map[string]float64{"reports_per_s": 600_000, "ns_per_op": 833}),
			bench("BenchmarkPerturb", map[string]float64{"ns_per_op": 100}),
		}}
		report, regressed := compare(old, fresh, 0.15)
		if !regressed {
			t.Fatalf("40%% throughput regression passed the gate:\n%s", report)
		}
		if !strings.Contains(report, "FAIL BenchmarkIngest/batched") {
			t.Fatalf("report does not name the regressed benchmark:\n%s", report)
		}
	})

	t.Run("in-tolerance drift passes", func(t *testing.T) {
		fresh := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkIngest/batched", map[string]float64{"reports_per_s": 900_000, "ns_per_op": 555}),
			bench("BenchmarkPerturb", map[string]float64{"ns_per_op": 110}),
			bench("BenchmarkBrandNew", map[string]float64{"ns_per_op": 1}),
		}}
		report, regressed := compare(old, fresh, 0.15)
		if regressed {
			t.Fatalf("10%% drift failed the gate:\n%s", report)
		}
		if !strings.Contains(report, "WARN BenchmarkRenamedAway: missing") {
			t.Fatalf("missing benchmark not warned about:\n%s", report)
		}
		if !strings.Contains(report, "NEW  BenchmarkBrandNew") {
			t.Fatalf("new benchmark not listed:\n%s", report)
		}
	})

	t.Run("ns/op fallback catches slowdown", func(t *testing.T) {
		fresh := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkIngest/batched", map[string]float64{"reports_per_s": 1_000_000, "ns_per_op": 500}),
			// No reports/s on this one: the 2x ns/op slowdown must still fail.
			bench("BenchmarkPerturb", map[string]float64{"ns_per_op": 200}),
		}}
		report, regressed := compare(old, fresh, 0.15)
		if !regressed {
			t.Fatalf("2x ns/op slowdown passed the gate:\n%s", report)
		}
		if !strings.Contains(report, "FAIL BenchmarkPerturb") {
			t.Fatalf("report does not name the slowed benchmark:\n%s", report)
		}
	})

	t.Run("throughput preferred over ns/op", func(t *testing.T) {
		// reports/s held steady; ns/op column noisy. The gate must judge by
		// throughput and pass.
		fresh := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkIngest/batched", map[string]float64{"reports_per_s": 1_000_000, "ns_per_op": 900}),
			bench("BenchmarkPerturb", map[string]float64{"ns_per_op": 100}),
			bench("BenchmarkRenamedAway", map[string]float64{"ns_per_op": 10}),
		}}
		if report, regressed := compare(old, fresh, 0.15); regressed {
			t.Fatalf("steady throughput failed the gate via the ns/op column:\n%s", report)
		}
	})
}

// TestCompareAllocsGate pins the secondary allocs/op gate: a committed 0
// allocs/op is a hard budget (one allocation fails regardless of the
// throughput column), nonzero baselines get the fractional tolerance, and
// the gate stays out of the way when either snapshot lacks the column.
func TestCompareAllocsGate(t *testing.T) {
	bench := func(name string, metrics map[string]float64) Benchmark {
		return Benchmark{Name: name, Procs: 1, Iterations: 1, Metrics: metrics}
	}

	t.Run("zero-alloc budget is hard", func(t *testing.T) {
		old := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkCollectIngest/binary", map[string]float64{"reports_per_s": 1_000_000, "allocs_per_op": 0}),
		}}
		fresh := &Snapshot{Benchmarks: []Benchmark{
			// Throughput steady, but the zero-alloc path now allocates.
			bench("BenchmarkCollectIngest/binary", map[string]float64{"reports_per_s": 1_000_000, "allocs_per_op": 1}),
		}}
		report, regressed := compare(old, fresh, 0.15)
		if !regressed {
			t.Fatalf("0 -> 1 allocs/op passed the gate:\n%s", report)
		}
		if !strings.Contains(report, "FAIL BenchmarkCollectIngest/binary: allocs_per_op 0 -> 1") {
			t.Fatalf("report missing the allocs FAIL line:\n%s", report)
		}
	})

	t.Run("nonzero baseline gets fractional tolerance", func(t *testing.T) {
		old := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkMeanIngest", map[string]float64{"ns_per_op": 100, "allocs_per_op": 10}),
		}}
		within := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkMeanIngest", map[string]float64{"ns_per_op": 100, "allocs_per_op": 11}),
		}}
		if report, regressed := compare(old, within, 0.15); regressed {
			t.Fatalf("10 -> 11 allocs/op failed a 15%% gate:\n%s", report)
		}
		over := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkMeanIngest", map[string]float64{"ns_per_op": 100, "allocs_per_op": 13}),
		}}
		if report, regressed := compare(old, over, 0.15); !regressed {
			t.Fatalf("10 -> 13 allocs/op passed a 15%% gate:\n%s", report)
		}
	})

	t.Run("absent column stays silent", func(t *testing.T) {
		old := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkPerturb", map[string]float64{"ns_per_op": 100}),
		}}
		fresh := &Snapshot{Benchmarks: []Benchmark{
			bench("BenchmarkPerturb", map[string]float64{"ns_per_op": 100, "allocs_per_op": 50}),
		}}
		report, regressed := compare(old, fresh, 0.15)
		if regressed {
			t.Fatalf("allocs gate fired without a committed baseline:\n%s", report)
		}
		if strings.Contains(report, "allocs_per_op") {
			t.Fatalf("allocs line rendered without both columns:\n%s", report)
		}
	})
}

// TestCompareKeysOnProcs pins that a -cpu list does not collide: the same
// benchmark at one and at two procs is two entries, each gated against its
// own committed line.
func TestCompareKeysOnProcs(t *testing.T) {
	at := func(procs int, reportsPerSec float64) Benchmark {
		return Benchmark{Name: "BenchmarkIngest", Procs: procs, Iterations: 1,
			Metrics: map[string]float64{"reports_per_s": reportsPerSec}}
	}
	old := &Snapshot{Benchmarks: []Benchmark{at(1, 1_000_000), at(2, 1_800_000)}}
	// Two procs lost 40%; one proc is unchanged. Keyed on name alone the
	// second line would overwrite the first and both would compare to it.
	report, regressed := compare(old, &Snapshot{Benchmarks: []Benchmark{at(1, 1_000_000), at(2, 1_080_000)}}, 0.15)
	if !regressed {
		t.Fatalf("a 40%% loss at two procs passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "OK   BenchmarkIngest: ") || !strings.Contains(report, "FAIL BenchmarkIngest-2: ") {
		t.Fatalf("report does not gate each proc count on its own line:\n%s", report)
	}
	report, _ = compare(old, &Snapshot{Benchmarks: []Benchmark{at(1, 1_000_000), at(4, 3_000_000)}}, 0.15)
	if !strings.Contains(report, "WARN BenchmarkIngest-2: missing") || !strings.Contains(report, "NEW  BenchmarkIngest-4") {
		t.Fatalf("a changed proc list is not reported as missing/new:\n%s", report)
	}
}
