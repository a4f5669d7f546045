package main

import (
	"os"
	"path/filepath"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/perf"
)

func writePoint(t *testing.T, path string, events float64) {
	t.Helper()
	f := perf.NewFile([]perf.Result{{
		Name: "exec-replay/abilene", Reps: 1,
		TimeNSPerOp: perf.Dist{Median: 1e6},
		BytesPerOp:  perf.Dist{Median: 1e5},
		Counters:    map[string]perf.Dist{obs.CtrSimEvents: {Median: events}},
	}}, perf.Config{})
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Write(out); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompareAgainstLatestPoint: with one file, -compare gates it against
// the highest-numbered BENCH_<n>.json in numeric order (BENCH_19, not the
// lexically later BENCH_9; BENCH_ci is no trajectory point), and fails
// when the gate does.
func TestCompareAgainstLatestPoint(t *testing.T) {
	dir := t.TempDir()
	writePoint(t, filepath.Join(dir, "BENCH_9.json"), 5)
	writePoint(t, filepath.Join(dir, "BENCH_19.json"), 7)
	writePoint(t, filepath.Join(dir, "BENCH_ci.json"), 7)
	if n, err := latestBench(dir); err != nil || n != 19 {
		t.Fatalf("latestBench = %d, %v; want 19", n, err)
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := compare([]string{"BENCH_ci.json"}); err != nil {
		t.Errorf("run equal to BENCH_19 failed the gate: %v", err)
	}
	if err := compare([]string{"BENCH_9.json", "BENCH_ci.json"}); err == nil {
		t.Error("drifted counter against BENCH_9 passed the gate")
	}
	writePoint(t, "BENCH_ci.json", 8)
	if err := compare([]string{"BENCH_ci.json"}); err == nil {
		t.Error("drifted counter against BENCH_19 passed the gate")
	}
}
