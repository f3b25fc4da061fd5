// Command benchsnap converts `go test -bench` output into a machine-
// readable JSON snapshot, so the repo's performance trajectory can be
// tracked commit over commit. It reads benchmark output on stdin and writes
// JSON to -out (default stdout):
//
//	go test -run='^$' -bench='CollectIngest|Perturb' -benchmem . | benchsnap -out BENCH_ingest.json
//
// Every metric column is kept, including custom b.ReportMetric units like
// reports/s, keyed by unit with '/' flattened to '_per_'.
//
// With -compare it becomes the repo's bench-regression gate instead: the
// fresh run on stdin is diffed against a committed snapshot, and the exit
// status is nonzero when any shared benchmark regressed beyond -threshold
// (fraction, default 0.15). Benchmarks are matched on name and procs, so a
// `-cpu 1,2` run is gated per proc count. Throughput (reports/s, higher is better) is the
// preferred comparison metric, falling back to ns/op (lower is better).
// When both snapshots also carry allocs/op it is gated as a secondary
// metric (lower is better) — a benchmark whose committed snapshot says 0
// allocs/op fails on ANY allocation, which is what pins the binary ingest
// path's zero-alloc budget. A benchmark present in the old snapshot but
// missing from the fresh run is a warning, not a failure, so renames do not
// wedge CI. In compare mode -out
// names the human-readable report file (default stdout):
//
//	go test -run='^$' -bench='CollectIngest|MeanIngest' -benchmem . | \
//	  benchsnap -compare BENCH_ingest.json -threshold 0.15 -out bench-compare.txt
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix stripped,
	// e.g. "BenchmarkCollectIngest/batched".
	Name       string             `json:"name"`
	Procs      int                `json:"procs"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// id is the benchmark's identity in a comparison — its name and procs, spelt
// the way `go test` prints them (no suffix at one proc) — so a -cpu 1,2 run
// carries two independent entries per benchmark.
func (b Benchmark) id() string {
	if b.Procs == 1 {
		return b.Name
	}
	return b.Name + "-" + strconv.Itoa(b.Procs)
}

// Snapshot is the output document.
type Snapshot struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output path (default stdout); the comparison report in -compare mode")
	comparePath := flag.String("compare", "", "committed snapshot to diff the fresh run against (enables gate mode)")
	threshold := flag.Float64("threshold", 0.15, "allowed regression fraction in -compare mode (0.15 = 15%)")
	flag.Parse()

	snap, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		log.Fatal("benchsnap: no benchmark lines on stdin")
	}
	if *comparePath != "" {
		if *threshold <= 0 {
			log.Fatal("benchsnap: -threshold must be positive")
		}
		blob, err := os.ReadFile(*comparePath)
		if err != nil {
			log.Fatal(err)
		}
		var old Snapshot
		if err := json.Unmarshal(blob, &old); err != nil {
			log.Fatalf("benchsnap: parse %s: %v", *comparePath, err)
		}
		report, regressed := compare(&old, snap, *threshold)
		if *out == "" {
			os.Stdout.WriteString(report)
		} else {
			if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "benchsnap: wrote comparison report to %s\n", *out)
		}
		if regressed {
			fmt.Fprintf(os.Stderr, "benchsnap: FAIL — at least one benchmark regressed more than %.0f%% vs %s\n",
				*threshold*100, *comparePath)
			os.Exit(1)
		}
		return
	}
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	blob = append(blob, '\n')
	if *out == "" {
		os.Stdout.Write(blob)
		return
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchsnap: wrote %d benchmarks to %s\n", len(snap.Benchmarks), *out)
}

// compare diffs a fresh run against a committed snapshot and renders the
// verdict table. A benchmark regresses when its preferred metric —
// reports/s when both runs report it (higher is better), ns/op otherwise
// (lower is better) — moved past the threshold fraction in the bad
// direction. Benchmarks only in one snapshot are listed as warnings;
// improvements and in-tolerance drift are OK lines.
func compare(old, fresh *Snapshot, threshold float64) (report string, regressed bool) {
	freshByID := make(map[string]Benchmark, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		freshByID[b.id()] = b
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "bench comparison (threshold %.0f%%)\n", threshold*100)
	if old.CPU != "" || fresh.CPU != "" {
		fmt.Fprintf(&sb, "  old cpu: %s\n  new cpu: %s\n", old.CPU, fresh.CPU)
	}
	seen := make(map[string]bool, len(old.Benchmarks))
	for _, ob := range old.Benchmarks {
		seen[ob.id()] = true
		nb, ok := freshByID[ob.id()]
		if !ok {
			fmt.Fprintf(&sb, "WARN %s: missing from fresh run\n", ob.id())
			continue
		}
		metric, higherBetter := pickMetric(ob, nb)
		if metric == "" {
			fmt.Fprintf(&sb, "WARN %s: no shared comparable metric\n", ob.id())
			continue
		}
		ov, nv := ob.Metrics[metric], nb.Metrics[metric]
		if ov == 0 {
			fmt.Fprintf(&sb, "WARN %s: old %s is zero\n", ob.id(), metric)
			continue
		}
		delta := nv/ov - 1 // signed fractional change
		bad := false
		if higherBetter {
			bad = nv < ov*(1-threshold)
		} else {
			bad = nv > ov*(1+threshold)
		}
		verdict := "OK  "
		if bad {
			verdict, regressed = "FAIL", true
		}
		fmt.Fprintf(&sb, "%s %s: %s %.4g -> %.4g (%+.1f%%)\n", verdict, ob.id(), metric, ov, nv, delta*100)
		if line, bad := compareAllocs(ob, nb, metric, threshold); line != "" {
			sb.WriteString(line)
			regressed = regressed || bad
		}
	}
	for _, nb := range fresh.Benchmarks {
		if !seen[nb.id()] {
			fmt.Fprintf(&sb, "NEW  %s: not in the committed snapshot\n", nb.id())
		}
	}
	return sb.String(), regressed
}

// compareAllocs applies the secondary allocs/op gate (lower is better) when
// both runs report it and it was not already the primary metric. A
// committed 0 allocs/op is a budget, not a baseline: any fresh allocation
// fails regardless of threshold, since a fraction of zero tolerates
// nothing and the zero-alloc paths are exactly the ones worth pinning.
func compareAllocs(ob, nb Benchmark, primary string, threshold float64) (line string, bad bool) {
	const key = "allocs_per_op"
	if primary == key {
		return "", false
	}
	ov, okOld := ob.Metrics[key]
	nv, okNew := nb.Metrics[key]
	if !okOld || !okNew {
		return "", false
	}
	if ov == 0 {
		bad = nv > 0
	} else {
		bad = nv > ov*(1+threshold)
	}
	verdict := "OK  "
	if bad {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %s: %s %.4g -> %.4g\n", verdict, ob.id(), key, ov, nv), bad
}

// pickMetric chooses the comparison metric both runs report: throughput
// when available, time per op otherwise.
func pickMetric(a, b Benchmark) (metric string, higherBetter bool) {
	for _, m := range []struct {
		key    string
		higher bool
	}{{"reports_per_s", true}, {"ns_per_op", false}} {
		if _, ok := a.Metrics[m.key]; !ok {
			continue
		}
		if _, ok := b.Metrics[m.key]; !ok {
			continue
		}
		return m.key, m.higher
	}
	return "", false
}

func parse(sc *bufio.Scanner) (*Snapshot, error) {
	snap := &Snapshot{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			snap.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			snap.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			snap.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			snap.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			snap.Benchmarks = append(snap.Benchmarks, *b)
		}
	}
	return snap, sc.Err()
}

// parseLine parses one result line of the standard benchmark output format:
//
//	BenchmarkName-8   1234   56.7 ns/op   89 B/op   1 allocs/op   1000 reports/s
func parseLine(line string) (*Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, fmt.Errorf("benchsnap: short benchmark line %q", line)
	}
	name, procs := fields[0], 1
	if i := strings.LastIndex(name, "-"); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], p
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("benchsnap: iteration count in %q: %w", line, err)
	}
	b := &Benchmark{Name: name, Procs: procs, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return nil, fmt.Errorf("benchsnap: metric value in %q: %w", line, err)
		}
		unit := strings.ReplaceAll(fields[i+1], "/", "_per_")
		b.Metrics[unit] = v
	}
	return b, nil
}
