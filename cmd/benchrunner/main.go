// Command benchrunner runs the curated macro-benchmark suite
// (internal/perf) and writes a machine-readable trajectory point, or
// compares two such points with a noise-aware regression gate.
//
// Usage:
//
//	benchrunner                      # run the suite, write BENCH_<n>.json
//	benchrunner -out my.json         # run, write to an explicit path
//	benchrunner -reps 9 -min-duration 200ms -filter plan-execute
//	benchrunner -cost                # add a per-phase self-time flame digest
//	benchrunner -list                # print the suite and exit
//	benchrunner -serve :8080         # live /metrics + /healthz + pprof while running
//	benchrunner -mem-budget-mb 4096  # exit 1 if the runtime footprint blows the cap
//	benchrunner -compare old.json new.json   # exit 1 on regressions
//
// Without -out, the run is written to BENCH_<n>.json in the working
// directory, where <n> is one past the highest existing number — so
// successive runs build a trajectory: BENCH_1.json, BENCH_2.json, …
//
// -compare diffs medians benchmark by benchmark. A benchmark regresses
// when its new median time/op exceeds the old by more than
// max(-threshold, -noise-k·(oldMAD+newMAD)/oldMedian) — runs that were
// noisy must move further before they are believed. Domain counters
// (solver nodes, sim events) are deterministic, so any drift there is
// reported as "the workload itself changed", never as machine noise;
// bytes/op nearly are, so a rise of more than 1 % is reported as
// "[bytes grew: …]". Neither fails -compare by itself.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/perf"
)

var (
	outFlag       = flag.String("out", "", "output path (default: auto-numbered BENCH_<n>.json in the working directory)")
	repsFlag      = flag.Int("reps", 5, "measured repetitions per benchmark")
	warmupFlag    = flag.Int("warmup", 1, "discarded warmup repetitions per benchmark")
	minDurFlag    = flag.Duration("min-duration", 0, "loop each repetition until this much wall time has elapsed")
	filterFlag    = flag.String("filter", "", "run only benchmarks whose name contains this substring")
	costFlag      = flag.Bool("cost", false, "enable span cost attribution and emit a flame digest per benchmark")
	listFlag      = flag.Bool("list", false, "list the suite and exit")
	serveFlag     = flag.String("serve", "", "serve live /metrics (Prometheus text format), /healthz and /debug/pprof on this address while running (\":0\" picks an ephemeral port; the bound address is printed)")
	compareFlag   = flag.Bool("compare", false, "compare two BENCH files: benchrunner -compare old.json new.json")
	thresholdFlag = flag.Float64("threshold", 0.10, "base relative slowdown tolerated by -compare")
	noiseKFlag    = flag.Float64("noise-k", 3, "noise widening factor for -compare (K·(oldMAD+newMAD)/oldMedian)")
	memBudgetFlag = flag.Int64("mem-budget-mb", 0, "fail the run if the Go runtime footprint (MemStats.Sys) exceeds this many MiB at any repetition boundary (0: no guard)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run() error {
	if *compareFlag {
		return compare(flag.Args())
	}
	suite := perf.DefaultSuite()
	if *listFlag {
		for _, b := range suite {
			fmt.Println(b.Name)
		}
		return nil
	}

	cfg := perf.Config{
		Warmup:      *warmupFlag,
		Reps:        *repsFlag,
		MinDuration: *minDurFlag,
		Filter:      *filterFlag,
		Cost:        *costFlag,
	}

	var observers []func(bench string, rep int, rec *obs.Recorder)

	// The memory-budget guard samples the runtime footprint at every
	// repetition boundary. MemStats.Sys is what the process actually holds
	// from the OS — it only ever grows, so the maximum across boundaries is
	// a floor on the run's peak; a benchmark whose working set blows the CI
	// RAM cap trips this even if it would also finish.
	var peakSysMiB int64
	var peakBench string
	if *memBudgetFlag > 0 {
		observers = append(observers, func(bench string, rep int, rec *obs.Recorder) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if sys := int64(ms.Sys >> 20); sys > peakSysMiB {
				peakSysMiB, peakBench = sys, bench
			}
		})
	}

	// The live endpoint serves an aggregate view: every finished
	// repetition's counters folded together, updated as the run progresses.
	if *serveFlag != "" {
		live := obs.New()
		var mu sync.Mutex
		observers = append(observers, func(bench string, rep int, rec *obs.Recorder) {
			mu.Lock()
			defer mu.Unlock()
			for name, v := range rec.Counters() {
				live.Add(name, v)
			}
		})
		_, bound, err := obs.Serve(*serveFlag, live, obs.ServeOptions{
			Prom: obs.PromOptions{ConstLabels: map[string]string{"job": "benchrunner"}},
		}, func(err error) { fmt.Fprintln(os.Stderr, "metrics server:", err) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics server:", err)
			os.Exit(1)
		}
		fmt.Printf("(live metrics on http://%s/metrics, pprof on /debug/pprof/)\n", bound)
	}
	if len(observers) > 0 {
		cfg.Observer = func(bench string, rep int, rec *obs.Recorder) {
			for _, o := range observers {
				o(bench, rep, rec)
			}
		}
	}

	start := time.Now()
	results, err := perf.Run(context.Background(), suite, cfg)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("filter %q matched no benchmark", *filterFlag)
	}
	for _, r := range results {
		fmt.Printf("%-26s %12.0f ns/op (±%.0f)  %8.0f allocs/op", r.Name,
			r.TimeNSPerOp.Median, r.TimeNSPerOp.MAD, r.AllocsPerOp.Median)
		for _, name := range []string{obs.CtrMILPNodes, obs.CtrSimEvents} {
			if d, ok := r.Counters[name]; ok {
				fmt.Printf("  %s=%.0f/op", name, d.Median)
			}
		}
		fmt.Println()
		for _, e := range r.Flame {
			fmt.Printf("    %-32s self %9.3fms/op  cum %9.3fms/op\n",
				e.Path, e.SelfNSPerOp/1e6, e.TotalNSPerOp/1e6)
		}
	}

	if *memBudgetFlag > 0 {
		fmt.Printf("peak runtime footprint %d MiB (budget %d MiB, high-water at %s)\n",
			peakSysMiB, *memBudgetFlag, peakBench)
		if peakSysMiB > *memBudgetFlag {
			return fmt.Errorf("memory budget exceeded: %d MiB > %d MiB (at %s)",
				peakSysMiB, *memBudgetFlag, peakBench)
		}
	}

	out := *outFlag
	if out == "" {
		var err error
		if out, err = nextBenchPath("."); err != nil {
			return err
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := perf.NewFile(results, cfg).Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d benchmarks, %v total)\n", out, len(results), time.Since(start).Round(time.Millisecond))
	return nil
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextBenchPath picks BENCH_<n>.json with n one past the highest existing
// trajectory point in dir.
func nextBenchPath(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	max := 0
	for _, e := range entries {
		if m := benchName.FindStringSubmatch(e.Name()); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil && n > max {
				max = n
			}
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", max+1)), nil
}

func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants exactly two files: benchrunner -compare old.json new.json")
	}
	read := func(path string) (*perf.File, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return perf.ReadFile(f)
	}
	oldF, err := read(args[0])
	if err != nil {
		return err
	}
	newF, err := read(args[1])
	if err != nil {
		return err
	}
	rep := perf.Compare(oldF, newF, perf.CompareOptions{
		Threshold: *thresholdFlag,
		NoiseK:    *noiseKFlag,
	})
	rep.WriteText(os.Stdout)
	if rep.Mismatch != "" {
		return fmt.Errorf("files are not comparable")
	}
	if n := rep.Regressions(); n > 0 {
		return fmt.Errorf("%d regression(s) beyond the noise-aware threshold", n)
	}
	return nil
}
