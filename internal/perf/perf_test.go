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
	if r.Name != "fast/op" || r.Reps != 3 || len(r.TimeNSPerOp.Samples) != 3 {
		t.Fatalf("unexpected shape: %+v", r)
	}
	// 1 warmup + 3 reps, one operation each.
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
	results := []Result{{Name: "x", Reps: 1,
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

// gateFile is a reference point of four workloads, one of each narrower
// family and two of the 4.0 ones: 1 ms/op with a 1 % MAD (so MAD
// widening stays below every family's tolerance), 100 000 B/op, and one
// domain counter.
func gateFile() *File {
	var results []Result
	for _, name := range []string{"schedule/abilene", "prefix-scale/storm-10k-routes", "exec-replay/abilene", "chaos/smoke"} {
		results = append(results, Result{
			Name: name, Reps: 7,
			TimeNSPerOp: Dist{Median: 1e6, MAD: 1e4},
			BytesPerOp:  Dist{Median: 100_000},
			Counters:    map[string]Dist{obs.CtrSimEvents: {Median: 7}},
		})
	}
	return NewFile(results, Config{Reps: 7})
}

// TestCompareGate: Compare fails a run on a drifted counter, bytes/op more
// than 1 % up, time/op beyond its family's tolerance (schedule/ 0.5,
// prefix-scale/ 1.0, every other family 4.0) or a workload missing from
// the run, and on nothing else.
func TestCompareGate(t *testing.T) {
	bench := func(f *File, name string) *Result {
		for i := range f.Benchmarks {
			if f.Benchmarks[i].Name == name {
				return &f.Benchmarks[i]
			}
		}
		t.Fatalf("no workload %s", name)
		return nil
	}
	slower := func(name string, x float64) func(*File) {
		return func(f *File) { bench(f, name).TimeNSPerOp.Median *= x }
	}
	moreBytes := func(x float64) func(*File) {
		return func(f *File) { bench(f, "exec-replay/abilene").BytesPerOp.Median *= x }
	}
	for _, c := range []struct {
		name   string
		mutate func(*File)
		fail   bool
		marker string
	}{
		{"unchanged", func(*File) {}, false, ""},
		{"counter +1", func(f *File) {
			bench(f, "chaos/smoke").Counters = map[string]Dist{obs.CtrSimEvents: {Median: 8}}
		}, true, "[counters drifted: [" + obs.CtrSimEvents + "]]"},
		{"counter added", func(f *File) {
			bench(f, "chaos/smoke").Counters[obs.CtrMILPNodes] = Dist{Median: 1}
		}, true, "[counters drifted: [" + obs.CtrMILPNodes + "]]"},
		{"bytes +1.5 %", moreBytes(1.015), true, "[bytes grew: 100000 → 101500 B/op]"},
		{"bytes +0.9 %", moreBytes(1.009), false, ""},
		{"schedule/ ×1.6", slower("schedule/abilene", 1.6), true, "[time/op beyond tolerance]"},
		{"schedule/ ×1.4", slower("schedule/abilene", 1.4), false, ""},
		{"prefix-scale/ ×2.1", slower("prefix-scale/storm-10k-routes", 2.1), true, "[time/op beyond tolerance]"},
		{"prefix-scale/ ×1.9", slower("prefix-scale/storm-10k-routes", 1.9), false, ""},
		{"exec-replay/ ×5.2", slower("exec-replay/abilene", 5.2), true, "[time/op beyond tolerance]"},
		{"chaos/ ×4.9", slower("chaos/smoke", 4.9), false, ""},
		{"missing workload", func(f *File) { f.Benchmarks = f.Benchmarks[1:] }, true, "schedule/abilene           missing from new run  FAIL"},
		{"new workload", func(f *File) {
			f.Benchmarks = append(f.Benchmarks, Result{Name: "monitor/snapshot", TimeNSPerOp: Dist{Median: 1}})
		}, false, "monitor/snapshot           new benchmark (no reference)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := gateFile()
			c.mutate(run)
			rep := Compare(gateFile(), run)
			if rep.Mismatch != "" {
				t.Fatalf("mismatch: %s", rep.Mismatch)
			}
			var b bytes.Buffer
			rep.WriteText(&b)
			if got := rep.Failures() > 0; got != c.fail {
				t.Errorf("failed %v (%d failures), want %v:\n%s", got, rep.Failures(), c.fail, b.String())
			}
			if c.marker != "" && !strings.Contains(b.String(), c.marker) {
				t.Errorf("report lacks %q:\n%s", c.marker, b.String())
			}
		})
	}
}

func TestCompareSelfIsClean(t *testing.T) {
	f := gateFile()
	rep := Compare(f, f)
	if rep.Failures() != 0 {
		t.Fatalf("self-compare found %d failures", rep.Failures())
	}
	if len(rep.Deltas) != len(f.Benchmarks) || rep.Deltas[0].Ratio != 1 {
		t.Fatalf("self-compare deltas: %+v", rep.Deltas)
	}
}

func TestCompareFlagsRegressionBeyondNoise(t *testing.T) {
	timed := func(median, mad float64) *File {
		f := gateFile()
		f.Benchmarks = f.Benchmarks[:1] // schedule/abilene, tolerance 0.5
		f.Benchmarks[0].TimeNSPerOp = Dist{Median: median, MAD: mad}
		return f
	}
	if rep := Compare(timed(1e6, 1e4), timed(1.6e6, 1e4)); rep.Failures() != 1 {
		t.Fatalf("60%% slowdown with tight noise not flagged: %+v", rep.Deltas)
	}
	// Same slowdown under heavy noise: 3·(2e5+2e5)/1e6 = 1.2 widens the
	// tolerance past it.
	if rep := Compare(timed(1e6, 2e5), timed(1.6e6, 2e5)); rep.Failures() != 0 {
		t.Fatalf("noise-covered slowdown flagged: %+v", rep.Deltas)
	}
	// A speedup is never a regression.
	if rep := Compare(timed(1e6, 1e4), timed(5e5, 1e4)); rep.Failures() != 0 {
		t.Fatalf("speedup flagged as regression: %+v", rep.Deltas)
	}
}

func TestCompareSuiteDrift(t *testing.T) {
	old := gateFile()
	cur := gateFile()
	cur.Benchmarks[0].Name = "schedule/other"
	rep := Compare(old, cur)
	if len(rep.OnlyOld) != 1 || len(rep.OnlyNew) != 1 || len(rep.Deltas) != len(old.Benchmarks)-1 || rep.Failures() != 1 {
		t.Fatalf("suite drift not reported: %+v", rep)
	}
	verDrift := gateFile()
	verDrift.SuiteVersion = SuiteVersion + 1
	if rep := Compare(old, verDrift); rep.Mismatch == "" {
		t.Error("suite-version drift not rejected")
	}
}

// TestCompareReportsBytesGrowth: bytes/op that rise more than 1 % fail the
// gate and print the `[bytes grew: …]` marker; a smaller rise or a fall do
// neither.
func TestCompareReportsBytesGrowth(t *testing.T) {
	withBytes := func(b float64) *File {
		f := gateFile()
		f.Benchmarks[0].BytesPerOp = Dist{Median: b}
		return f
	}
	old := withBytes(100_000)
	for _, c := range []struct {
		bytes float64
		grew  bool
	}{{101_001, true}, {101_000, false}, {50_000, false}} {
		rep := Compare(old, withBytes(c.bytes))
		if got := rep.Deltas[0].BytesGrew; got != c.grew || (rep.Failures() != 0) != c.grew {
			t.Errorf("100000 → %.0f B/op: BytesGrew %v, %d failures; want %v", c.bytes, got, rep.Failures(), c.grew)
		}
		var b bytes.Buffer
		rep.WriteText(&b)
		if got := strings.Contains(b.String(), "[bytes grew: 100000 → "); got != c.grew {
			t.Errorf("100000 → %.0f B/op: marker printed %v, want %v:\n%s", c.bytes, got, c.grew, b.String())
		}
	}
}

// TestCommittedBenchPointsParse: every committed trajectory point still
// reads unedited, and passes the gate against a file this code writes from
// the same results: no mismatch, no suite drift, no failure. Keys older
// points carry that File no longer has are ignored on read.
func TestCommittedBenchPointsParse(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH points found (%v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		old, err := ReadFile(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var b bytes.Buffer
		if err := NewFile(old.Benchmarks, Config{}).Write(&b); err != nil {
			t.Fatal(err)
		}
		fresh, err := ReadFile(&b)
		if err != nil {
			t.Fatalf("%s rewritten: %v", path, err)
		}
		rep := Compare(old, fresh)
		if rep.Mismatch != "" || len(rep.OnlyNew) != 0 || len(rep.Deltas) != len(old.Benchmarks) || rep.Failures() != 0 {
			t.Errorf("%s against a freshly written file: %+v", path, rep)
		}
	}
}

func TestDefaultSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("macro suite skipped in -short")
	}
	results, err := Run(context.Background(), DefaultSuite(), Config{
		Warmup: 0, Reps: 1,
		Filter: "schedule/abilene",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("suite smoke: %d results", len(results))
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
