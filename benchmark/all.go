package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// resultFile is what a run of every workload writes and -agree reads.
type resultFile struct {
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	GoVersion string    `json:"go_version"`
	NumCPU    int       `json:"num_cpu"`
	Runs      []*result `json:"runs"`
}

func (f *resultFile) find(workload string, trace bool) *result {
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// runAll runs every workload in a child process of its own, untraced then
// traced, so that peak_rss_mb and the heap of one run owe nothing to another.
func runAll(seed uint64, seconds float64, out string) error {
	dir, err := outDir()
	if err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(dir, "result.json")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := &resultFile{Seed: seed, Seconds: seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
	correct := true
	for _, d := range workloadDefs {
		for _, trace := range []bool{false, true} {
			t := traceArg(trace)
			cmd := exec.Command(self, "-workload", d.Name, "-seed", strconv.FormatUint(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// A child that exits non-zero after writing its result failed an
			// oracle; one that wrote nothing failed to run, and must not be
			// mistaken for an earlier run's file.
			path := resultPath(dir, d.Name, trace)
			_ = os.Remove(path) // absent is fine
			runErr := cmd.Run()
			res := new(result)
			if err := readJSON(path, res); err != nil {
				return fmt.Errorf("%s -trace %s: %v (%v)", d.Name, t, runErr, err)
			}
			correct = correct && res.Correct && runErr == nil
			file.Runs = append(file.Runs, res)
		}
		// Across processes too, the traced run must plan what the untraced
		// run planned.
		for _, miss := range digestMismatches(file.find(d.Name, false).Digests, file.find(d.Name, true).TracedDigests) {
			fmt.Printf("FAILED %s %s\n", d.Name, miss)
			correct = false
		}
	}
	if err := writeJSON(out, file); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if !correct {
		return errIncorrect
	}
	return nil
}
