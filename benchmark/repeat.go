package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runRepeat is the A/A mode: the same code n times per workload on
// consecutive seeds, then for every end-to-end metric the median, the
// quartiles and their distance as a share of the median — the spread the
// acceptance rule compares with the metric's bound. A spread above the
// bound fails the run (setup_s excepted: its bound gates medians only).
func runRepeat(h *harness, o options, n int, specPath string) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs to have a spread")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	selected := workloads
	if o.workload != "" {
		wl, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{wl}
	}
	var over []string
	suite := time.Now()
	for _, wl := range selected {
		values, raw := map[string][]float64{}, map[string][]float64{}
		for i := 0; i < n; i++ {
			ro := o
			ro.workload, ro.seed = wl.name, o.seed+uint64(i)
			res, rec, err := runOnce(h, wl, ro)
			if err != nil {
				return err
			}
			for name, v := range rec.Raw {
				raw[name] = append(raw[name], v)
			}
			if res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", wl.name, ro.seed, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("%s: %d runs, seeds %d..%d\n", wl.name, n, o.seed, o.seed+uint64(n-1))
		fmt.Printf("  %-26s %-6s %14s %14s %14s %8s %8s %8s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "raw")
		for _, m := range spec.EndToEnd {
			xs := values[m.Name]
			if len(xs) != n {
				return fmt.Errorf("%s did not report %s on every run", wl.name, m.Name)
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			mark := ""
			if sp > m.Bound && m.Name != "setup_s" {
				mark = "  OVER"
				over = append(over, wl.name+"/"+m.Name)
			}
			// raw: the spread of the same metric as the wall clock saw it,
			// before it was put on the nominal-speed scale.
			fmt.Printf("  %-26s %-6s %14.6g %14.6g %14.6g %7.1f%% %7.1f%% %7.1f%%%s\n",
				m.Name, m.Unit, median(xs), q1, q3, 100*sp, 100*m.Bound, 100*spread(raw[m.Name]), mark)
		}
	}
	fmt.Printf("total wall %.0fs for %d runs\n", time.Since(suite).Seconds(), n*len(selected))
	if len(over) > 0 {
		return fmt.Errorf("spread above bound: %v", over)
	}
	return nil
}
