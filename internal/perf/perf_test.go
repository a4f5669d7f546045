package perf

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chameleon/internal/obs"
)

// fakeSuite returns a suite of trivial operations with deterministic
// domain counters, so harness mechanics are testable without running the
// real pipeline.
func fakeSuite(calls *int) []Benchmark {
	return []Benchmark{
		{Name: "fast/op", Setup: func() (Fn, error) {
			return func(ctx context.Context) error {
				*calls++
				obs.RecorderFrom(ctx).Add(obs.CtrMILPNodes, 3)
				return nil
			}, nil
		}},
		{Name: "slow/op", Setup: func() (Fn, error) {
			return func(ctx context.Context) error {
				time.Sleep(100 * time.Microsecond)
				return nil
			}, nil
		}},
	}
}

func TestRunShapesAndCounters(t *testing.T) {
	calls := 0
	results, err := Run(context.Background(), fakeSuite(&calls), Config{Warmup: 1, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	r := results[0]
	if r.Name != "fast/op" || r.Reps != 3 || len(r.Iters) != 3 {
		t.Fatalf("unexpected shape: %+v", r)
	}
	// 1 warmup + 3 reps, one iteration each (MinDuration 0).
	if calls != 4 {
		t.Errorf("fn called %d times, want 4", calls)
	}
	d, ok := r.Counters[obs.CtrMILPNodes]
	if !ok {
		t.Fatalf("counter missing from result: %+v", r.Counters)
	}
	if d.Median != 3 || d.MAD != 0 {
		t.Errorf("deterministic counter: median=%v mad=%v, want 3/0", d.Median, d.MAD)
	}
	if results[1].TimeNSPerOp.Median < float64(50*time.Microsecond) {
		t.Errorf("slow op measured implausibly fast: %v ns", results[1].TimeNSPerOp.Median)
	}
}

func TestRunMinDurationLoops(t *testing.T) {
	calls := 0
	results, err := Run(context.Background(), fakeSuite(&calls)[:1], Config{
		Warmup: 0, Reps: 1, MinDuration: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if iters := results[0].Iters[0]; iters < 2 {
		t.Errorf("MinDuration produced only %d iteration(s)", iters)
	}
	// Counters stay per-op despite looping.
	if m := results[0].Counters[obs.CtrMILPNodes].Median; m != 3 {
		t.Errorf("per-op counter = %v, want 3", m)
	}
}

func TestRunFilterAndError(t *testing.T) {
	calls := 0
	results, err := Run(context.Background(), fakeSuite(&calls), Config{Filter: "slow"})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Name != "slow/op" {
		t.Fatalf("filter failed: %+v", results)
	}
	boom := errors.New("boom")
	_, err = Run(context.Background(), []Benchmark{{
		Name:  "bad/op",
		Setup: func() (Fn, error) { return func(context.Context) error { return boom }, nil },
	}}, Config{})
	if !errors.Is(err, boom) {
		t.Fatalf("benchmark error not surfaced: %v", err)
	}
}

func TestMedianAndMAD(t *testing.T) {
	d := summarize([]float64{1, 100, 3, 2, 4})
	if d.Median != 3 {
		t.Errorf("median = %v, want 3 (robust to the 100 outlier)", d.Median)
	}
	if d.MAD != 1 {
		t.Errorf("mad = %v, want 1", d.MAD)
	}
	if even := median([]float64{1, 2, 3, 4}); even != 2.5 {
		t.Errorf("even median = %v, want 2.5", even)
	}
}

func TestFileRoundTripAndValidation(t *testing.T) {
	results := []Result{{Name: "x", Reps: 1, Iters: []int{1},
		TimeNSPerOp: Dist{Median: 10, Samples: []float64{10}}}}
	f := NewFile(results, Config{})
	var b bytes.Buffer
	if err := f.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.SuiteVersion != SuiteVersion || len(got.Benchmarks) != 1 {
		t.Fatalf("round trip mangled file: %+v", got)
	}
	if _, err := ReadFile(strings.NewReader(`{"schema":"nope","benchmarks":[{"name":"x"}]}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadFile(strings.NewReader(`{"schema":"` + Schema + `","benchmarks":[]}`)); err == nil {
		t.Error("empty bench file accepted")
	}
}

func benchFile(name string, median, mad float64) *File {
	return NewFile([]Result{{
		Name: name, Reps: 3, Iters: []int{1, 1, 1},
		TimeNSPerOp: Dist{Median: median, MAD: mad},
		Counters:    map[string]Dist{"c": {Median: 7}},
	}}, Config{})
}

func TestCompareSelfIsClean(t *testing.T) {
	f := benchFile("a", 1000, 5)
	rep := Compare(f, f, CompareOptions{})
	if rep.Regressions() != 0 {
		t.Fatalf("self-compare found %d regressions", rep.Regressions())
	}
	if len(rep.Deltas) != 1 || rep.Deltas[0].Ratio != 1 {
		t.Fatalf("self-compare deltas: %+v", rep.Deltas)
	}
}

func TestCompareFlagsRegressionBeyondNoise(t *testing.T) {
	old := benchFile("a", 1000, 10)
	slow := benchFile("a", 1300, 10)
	rep := Compare(old, slow, CompareOptions{Threshold: 0.10, NoiseK: 3})
	if rep.Regressions() != 1 {
		t.Fatalf("30%% slowdown with tight noise not flagged: %+v", rep.Deltas)
	}
	// Same slowdown under huge noise: threshold widens past it.
	noisyOld := benchFile("a", 1000, 100)
	noisySlow := benchFile("a", 1300, 100)
	rep = Compare(noisyOld, noisySlow, CompareOptions{Threshold: 0.10, NoiseK: 3})
	if rep.Regressions() != 0 {
		t.Fatalf("noise-covered slowdown flagged: %+v", rep.Deltas)
	}
	// A speedup is never a regression.
	fast := benchFile("a", 500, 10)
	if rep := Compare(old, fast, CompareOptions{}); rep.Regressions() != 0 {
		t.Fatalf("speedup flagged as regression")
	}
}

func TestCompareSuiteDrift(t *testing.T) {
	old := benchFile("a", 1000, 0)
	cur := benchFile("b", 1000, 0)
	rep := Compare(old, cur, CompareOptions{})
	if len(rep.OnlyOld) != 1 || len(rep.OnlyNew) != 1 || len(rep.Deltas) != 0 {
		t.Fatalf("suite drift not reported: %+v", rep)
	}
	verDrift := benchFile("a", 1, 0)
	verDrift.SuiteVersion = SuiteVersion + 1
	if rep := Compare(old, verDrift, CompareOptions{}); rep.Mismatch == "" {
		t.Error("suite-version drift not rejected")
	}

	drift := benchFile("a", 1000, 0)
	drift.Benchmarks[0].Counters = map[string]Dist{"c": {Median: 8}}
	rep = Compare(old, drift, CompareOptions{})
	if len(rep.Deltas) != 1 || len(rep.Deltas[0].CounterDrift) != 1 {
		t.Fatalf("counter drift not reported: %+v", rep.Deltas)
	}
	var b bytes.Buffer
	rep.WriteText(&b)
	if !strings.Contains(b.String(), "counters drifted") {
		t.Errorf("text report omits counter drift:\n%s", b.String())
	}
}

// TestCompareReportsBytesGrowth: bytes/op that rise more than 1 % are
// reported, and printed as the marker CI's prefix-scale gate fails on; a
// smaller rise or a fall is not, and neither is ever a regression.
func TestCompareReportsBytesGrowth(t *testing.T) {
	withBytes := func(b float64) *File {
		f := benchFile("a", 1000, 0)
		f.Benchmarks[0].BytesPerOp = Dist{Median: b}
		return f
	}
	old := withBytes(100_000)
	for _, c := range []struct {
		bytes float64
		grew  bool
	}{{101_001, true}, {101_000, false}, {50_000, false}} {
		rep := Compare(old, withBytes(c.bytes), CompareOptions{})
		if got := rep.Deltas[0].BytesGrew; got != c.grew || rep.Regressions() != 0 {
			t.Errorf("100000 → %.0f B/op: BytesGrew %v, %d regressions; want %v, 0", c.bytes, got, rep.Regressions(), c.grew)
		}
		var b bytes.Buffer
		rep.WriteText(&b)
		if got := strings.Contains(b.String(), "[bytes grew: 100000 → "); got != c.grew {
			t.Errorf("100000 → %.0f B/op: marker printed %v, want %v:\n%s", c.bytes, got, c.grew, b.String())
		}
	}
}

// TestCommittedBenchPointsParse: every committed trajectory point still
// reads, and the two points CI gates against (BENCH_8 for schedule/,
// BENCH_14 for prefix-scale/) compare cleanly with a file this code writes
// from the same results — no mismatch, no suite drift, no counter drift, no
// bytes growth. Fields older points carry that File no longer has are
// ignored on read.
func TestCommittedBenchPointsParse(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH points found (%v)", err)
	}
	read := func(path string) *File {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := ReadFile(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return f
	}
	for _, path := range paths {
		read(path)
	}
	for _, name := range []string{"BENCH_8.json", "BENCH_14.json"} {
		old := read("../../" + name)
		var b bytes.Buffer
		if err := NewFile(old.Benchmarks, Config{}).Write(&b); err != nil {
			t.Fatal(err)
		}
		fresh, err := ReadFile(&b)
		if err != nil {
			t.Fatalf("%s rewritten: %v", name, err)
		}
		rep := Compare(old, fresh, CompareOptions{})
		if rep.Mismatch != "" || len(rep.OnlyOld) != 0 || len(rep.OnlyNew) != 0 || len(rep.Deltas) != len(old.Benchmarks) {
			t.Fatalf("%s against a freshly written file: %+v", name, rep)
		}
		for _, d := range rep.Deltas {
			if d.Regressed || len(d.CounterDrift) != 0 || d.BytesGrew {
				t.Errorf("%s: %s moved against itself: %+v", name, d.Name, d)
			}
		}
	}
}

func TestDefaultSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("macro suite skipped in -short")
	}
	var observed int
	results, err := Run(context.Background(), DefaultSuite(), Config{
		Warmup: 0, Reps: 1,
		Filter:   "schedule/abilene",
		Observer: func(string, int, *obs.Recorder) { observed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || observed != 1 {
		t.Fatalf("suite smoke: %d results, %d observed", len(results), observed)
	}
	if _, ok := results[0].Counters[obs.CtrMILPNodes]; !ok {
		t.Errorf("scheduling benchmark recorded no solver-effort counter: %+v", results[0].Counters)
	}
}

// TestReplayWorkloadsCountExactly: the execute-path workloads report the
// counters the trajectory compares them on, and those repeat exactly.
func TestReplayWorkloadsCountExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("macro suite skipped in -short")
	}
	want := map[string][]string{
		"exec-replay/abilene": {obs.CtrSimEvents, obs.CtrMonitorStatesChecked},
		"monitor/snapshot":    {obs.CtrMonitorStatesChecked},
	}
	for name, counters := range want {
		results, err := Run(context.Background(), DefaultSuite(), Config{Warmup: 0, Reps: 3, Filter: name})
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 1 {
			t.Fatalf("%s: %d results, want 1", name, len(results))
		}
		for _, c := range counters {
			if d := results[0].Counters[c]; d.Median == 0 || d.MAD != 0 {
				t.Errorf("%s: counter %s = %+v, want a positive value that repeats exactly", name, c, d)
			}
		}
		if d, ok := results[0].Counters[obs.CtrMonitorViolations]; ok && d.Median != 0 {
			t.Errorf("%s: monitor flagged violations on a clean run: %+v", name, d)
		}
	}
}
