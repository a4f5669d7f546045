// Command benchrunner runs the curated macro-benchmark suite
// (internal/perf) and writes a machine-readable trajectory point, or
// gates a run against a committed one.
//
// Usage:
//
//	benchrunner                      # run the suite, write BENCH_<n>.json
//	benchrunner -out my.json         # run, write to an explicit path
//	benchrunner -reps 9 -filter plan-execute
//	benchrunner -list                # print the suite and exit
//	benchrunner -compare run.json    # gate run.json against the latest BENCH_<n>.json
//	benchrunner -compare old.json new.json   # gate new.json against old.json
//
// Without -out, the run is written to BENCH_<n>.json in the working
// directory, where <n> is one past the highest existing number — so
// successive runs build a trajectory: BENCH_1.json, BENCH_2.json, …
// A run fails if the Go runtime footprint exceeds 4 GiB at any
// repetition boundary.
//
// -compare exits 1 when perf.Compare fails any benchmark: a drifted
// domain counter, bytes/op more than 1 % above the reference, median
// time/op beyond its family's tolerance, or a benchmark missing from the
// run. With one file, the reference is the highest-numbered
// BENCH_<n>.json in the working directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/perf"
)

var (
	outFlag     = flag.String("out", "", "output path (default: auto-numbered BENCH_<n>.json in the working directory)")
	repsFlag    = flag.Int("reps", 5, "measured repetitions per benchmark")
	warmupFlag  = flag.Int("warmup", 1, "discarded warmup repetitions per benchmark")
	filterFlag  = flag.String("filter", "", "run only benchmarks whose name contains this substring")
	listFlag    = flag.Bool("list", false, "list the suite and exit")
	compareFlag = flag.Bool("compare", false, "gate a run: benchrunner -compare [old.json] new.json (old defaults to the latest BENCH_<n>.json)")
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
		Warmup: *warmupFlag,
		Reps:   *repsFlag,
		Filter: *filterFlag,
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
	}

	out := *outFlag
	if out == "" {
		n, err := latestBench(".")
		if err != nil {
			return err
		}
		out = fmt.Sprintf("BENCH_%d.json", n+1)
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

// latestBench returns the highest n of a BENCH_<n>.json trajectory point
// in dir, in numeric order (BENCH_19 after BENCH_9), or 0 if there is none.
func latestBench(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	latest := 0
	for _, e := range entries {
		if m := benchName.FindStringSubmatch(e.Name()); m != nil {
			if n, err := strconv.Atoi(m[1]); err == nil && n > latest {
				latest = n
			}
		}
	}
	return latest, nil
}

func compare(args []string) error {
	switch len(args) {
	case 1:
		n, err := latestBench(".")
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("-compare: no BENCH_<n>.json in the working directory to compare %s against", args[0])
		}
		args = []string{fmt.Sprintf("BENCH_%d.json", n), args[0]}
	case 2:
	default:
		return fmt.Errorf("-compare wants one or two files: benchrunner -compare [old.json] new.json")
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
	fmt.Printf("comparing %s against %s\n", args[1], args[0])
	rep := perf.Compare(oldF, newF)
	rep.WriteText(os.Stdout)
	if rep.Mismatch != "" {
		return fmt.Errorf("files are not comparable")
	}
	if n := rep.Failures(); n > 0 {
		return fmt.Errorf("%d benchmark(s) failed the gate against %s", n, args[0])
	}
	return nil
}
