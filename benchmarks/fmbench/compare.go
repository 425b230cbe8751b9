package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCompare prints, per workload and end-to-end metric, how much worse b
// is than a as a share of a, beside the metric's bound, and returns 1 when
// any pair is past it.
func runCompare(specPath, aPath, bPath string) int {
	var bs benchSpec
	var a, b document
	for path, v := range map[string]any{specPath: &bs, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "fmbench:", err)
			return 2
		}
	}
	past := 0
	fmt.Printf("%-20s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, w := range bs.Workloads {
		ra, rb := a.Workloads[w.Name], b.Workloads[w.Name]
		if ra == nil || rb == nil {
			fmt.Printf("%-20s missing from one document\n", w.Name)
			past++
			continue
		}
		for _, m := range bs.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = "  PAST BOUND"
				past++
			}
			fmt.Printf("%-20s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, mark)
		}
		if rb.Failed > 0 || !rb.Correct {
			fmt.Printf("%-20s %d of %d ops failed their check\n", w.Name, rb.Failed, rb.Attempted)
			past++
		}
	}
	if past > 0 {
		fmt.Printf("%d past bound\n", past)
		return 1
	}
	return 0
}
