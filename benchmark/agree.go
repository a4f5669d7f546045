package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
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

func loadBenchmarkJSON() (*benchmarkJSON, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	b := new(benchmarkJSON)
	return b, readJSON(filepath.Join(root, "BENCHMARK.json"), b)
}

// setupFloorS is the absolute difference in setup_s below which two runs
// agree whatever the ratio: the plan workloads set up in half a second.
const setupFloorS = 0.1

// agreeFiles compares two result files of the same commit metric by metric:
// end-to-end metrics must lie within their bound of each other (ratio b/a,
// base a), exact metrics must be identical. It prints one row per workload
// and metric and returns an error on any miss.
func agreeFiles(w io.Writer, pathA, pathB string) error {
	bench, err := loadBenchmarkJSON()
	if err != nil {
		return err
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	bounds := map[string]float64{}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	misses := 0
	fmt.Fprintf(w, "%-14s %-30s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, d := range workloadDefs {
		for _, trace := range []bool{false, true} {
			ra, rb := a.find(d.Name, trace), b.find(d.Name, trace)
			if ra == nil || rb == nil {
				fmt.Fprintf(w, "%-14s trace=%v: missing from one file\n", d.Name, trace)
				misses++
				continue
			}
			for _, m := range metricsOf(trace) {
				va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
				verdict := "not compared"
				switch bound, bounded := bounds[m.Name]; {
				case m.Exact:
					verdict = "identical"
					if va != vb {
						verdict = "MISS: must be identical"
						misses++
					}
				case bounded:
					allowed := bound * math.Abs(va)
					if m.Name == "setup_s" {
						allowed = math.Max(allowed, setupFloorS)
					}
					verdict = fmt.Sprintf("within %g", bound)
					if math.Abs(vb-va) > allowed {
						verdict = fmt.Sprintf("MISS: more than %g apart", bound)
						misses++
					}
				}
				ratio := math.NaN()
				if va != 0 {
					ratio = vb / va
				}
				fmt.Fprintf(w, "%-14s %-30s %14.4f %14.4f %8.3f  %s\n", d.Name, m.Name, va, vb, ratio, verdict)
			}
		}
	}
	if misses > 0 {
		return fmt.Errorf("%d metrics disagree", misses)
	}
	return nil
}
