// Command benchmark is the repository's benchmark: four workloads, seven
// end-to-end metrics measured with tracing off, and a per-layer ledger
// measured from outside by spans around each layer's public calls. See
// README.md; BENCHMARK.json at the repository root names every metric.
//
//	benchmark -workload W -seed N -seconds S -trace 0|1   one run, result as the last line
//	benchmark [-seed N] [-seconds S] [-out FILE]          every workload, untraced then traced
//	benchmark -list                                       workloads, op counts, metric names
//	benchmark -agree A.json B.json                        do two result files agree within the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	workloadFlag := flag.String("workload", "", "run only this workload and print its result object as the last line")
	seed := flag.Uint64("seed", 7, "workload seed: op order, execution latencies, fault injectors, probe targets")
	seconds := flag.Float64("seconds", 20, "time box of the timed phase of each run")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	list := flag.Bool("list", false, "print workloads, op counts and metric names, then exit")
	agree := flag.Bool("agree", false, "compare the two result files given as arguments against the bounds in BENCHMARK.json")
	out := flag.String("out", "", "result file of a run of every workload (default benchmark/out/result.json)")
	flag.Parse()

	err := func() error {
		switch {
		case *list:
			return printList(os.Stdout)
		case *agree:
			if flag.NArg() != 2 {
				return fmt.Errorf("-agree takes two result files")
			}
			return agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		case flag.NArg() != 0:
			return fmt.Errorf("unexpected arguments %q", flag.Args())
		case *trace != 0 && *trace != 1:
			return fmt.Errorf("-trace takes 0 or 1")
		case *workloadFlag != "":
			return runOne(runConfig{Workload: *workloadFlag, Seed: *seed, Seconds: *seconds, Trace: *trace == 1})
		}
		return runAll(*seed, *seconds, *out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the result has been printed.
var errIncorrect = fmt.Errorf("an oracle failed; see the failures above")

// repoRoot finds the directory holding BENCHMARK.json: the working directory
// when run through run.sh, its parent when run from benchmark/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root")
}

func outDir() (string, error) {
	root, err := repoRoot()
	if err != nil {
		return "", err
	}
	dir := filepath.Join(root, "benchmark", "out")
	return dir, os.MkdirAll(dir, 0o755)
}

// traceArg is the value of -trace for a run of that kind.
func traceArg(trace bool) string {
	if trace {
		return "1"
	}
	return "0"
}

func resultPath(dir, workload string, trace bool) string {
	return filepath.Join(dir, workload+".trace"+traceArg(trace)+".json")
}

// runOne measures one workload, prints every metric by name with its unit,
// writes the full result (and the spans of a traced run) under benchmark/out,
// and prints the result object as the last line.
func runOne(cfg runConfig) error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	res, tr, err := run(context.Background(), cfg)
	if err != nil {
		return err
	}
	if tr != nil {
		if err := tr.writeJSONL(filepath.Join(dir, cfg.Workload+".trace.jsonl")); err != nil {
			return err
		}
	}
	if err := writeJSON(resultPath(dir, cfg.Workload, cfg.Trace), res); err != nil {
		return err
	}
	printResult(os.Stdout, res)
	line, err := json.Marshal(res.report)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
