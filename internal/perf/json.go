package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// Schema identifies the BENCH file format.
const Schema = "chameleon/bench/v1"

// File is the on-disk benchmark trajectory point: one suite run on one
// machine at one commit. Two Files compare cleanly iff their Schema and
// SuiteVersion match. Keys older points carry that File no longer has
// (min_duration_ns, cost, a result's iters) are ignored on read.
type File struct {
	Schema       string `json:"schema"`
	SuiteVersion int    `json:"suite_version"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`

	Config struct {
		Warmup int `json:"warmup"`
		Reps   int `json:"reps"`
	} `json:"config"`

	Benchmarks []Result `json:"benchmarks"`
}

// NewFile wraps results in the versioned envelope, stamping the toolchain.
func NewFile(results []Result, cfg Config) *File {
	cfg = cfg.withDefaults()
	f := &File{
		Schema:       Schema,
		SuiteVersion: SuiteVersion,
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Benchmarks:   results,
	}
	f.Config.Warmup = cfg.Warmup
	f.Config.Reps = cfg.Reps
	return f
}

// Write serializes the file as indented JSON (stable field order, so diffs
// of committed baselines stay reviewable).
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadFile parses and validates a BENCH file.
func ReadFile(r io.Reader) (*File, error) {
	var f File
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("perf: parsing bench file: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("perf: unknown schema %q (want %q)", f.Schema, Schema)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("perf: bench file has no benchmarks")
	}
	for _, b := range f.Benchmarks {
		if b.Name == "" {
			return nil, fmt.Errorf("perf: bench file has an unnamed benchmark")
		}
	}
	return &f, nil
}
