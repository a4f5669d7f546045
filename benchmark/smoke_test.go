package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at smoke size twice, untraced and traced, and
// checks what must hold at any size: every op correct, exactly the metric
// names of BENCHMARK.json in the result object, exact metrics identical
// between the two runs.
func TestSmoke(t *testing.T) {
	b, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{Workload: w.Name, Seed: 7, Trace: trace, Smoke: true}
			first, tr, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			second, _, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if (tr != nil) != trace {
				t.Errorf("%s trace=%v: tracer returned: %v", w.Name, trace, tr != nil)
			}
			for _, res := range []*result{first, second} {
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
				}
			}

			// The printed object has exactly the contract's keys and names.
			line, err := json.Marshal(first.report)
			if err != nil {
				t.Fatal(err)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatal(err)
			}
			if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
				t.Errorf("%s trace=%v: result object keys: %s", w.Name, trace, line)
			}
			for name, unit := range want[trace] {
				if got, ok := first.Metrics[name]; !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range first.Metrics {
				if _, ok := want[trace][name]; !ok || !nameRE.MatchString(name) {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
			for _, d := range metricsOf(trace) {
				if a, b := first.Metrics[d.Name].Value, second.Metrics[d.Name].Value; d.Exact && a != b {
					t.Errorf("%s: exact metric %s differs between two runs: %v vs %v", w.Name, d.Name, a, b)
				}
			}
			if !trace {
				for _, d := range endToEndDefs {
					if first.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, first.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestAgree checks -agree on a result file against itself and against a copy
// with one exact metric and one bounded metric moved.
func TestAgree(t *testing.T) {
	file := resultFile{Seed: 7}
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res := &result{Workload: w.Name, Trace: trace}
			res.Metrics = map[string]metricValue{}
			for _, d := range metricsOf(trace) {
				res.set(d.Name, 10)
			}
			file.Runs = append(file.Runs, res)
		}
	}
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, file); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := agreeFiles(&out, a, a); err != nil {
		t.Errorf("a file does not agree with itself: %v\n%s", err, out.String())
	}
	file.find("plan-zoo", false).set("ops_per_s", 10.5) // within the bound
	if err := writeJSON(b, file); err != nil {
		t.Fatal(err)
	}
	if err := agreeFiles(&out, a, b); err != nil {
		t.Errorf("5 %% apart on ops_per_s must agree: %v", err)
	}
	file.find("plan-zoo", false).set("ops_per_s", 14)
	file.find("exec-replay", true).set("sim.events", 11)
	if err := writeJSON(b, file); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := agreeFiles(&out, a, b)
	if err == nil || err.Error() != "2 metrics disagree" {
		t.Errorf("agreeFiles = %v, want 2 misses\n%s", err, out.String())
	}
}
