// Package perf is the macro-benchmark trajectory harness: a curated suite
// of end-to-end workloads (analysis, scheduling, simulator convergence,
// full plan+execute, chaos) measured with warmup and repetition under a
// memory guard, summarized robustly (median + MAD, so a single GC pause or
// scheduler hiccup cannot masquerade as a regression), and serialized to a
// machine-readable JSON file that Compare gates across commits.
//
// The harness reports three kinds of cost per benchmark:
//
//   - wall time per operation (the only machine-dependent axis),
//   - heap allocations and bytes per operation, and
//   - domain counters per operation (solver nodes, simulator events, BGP
//     messages — obs counters, machine-independent by construction).
package perf

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"chameleon/internal/obs"
)

// Fn is one benchmark operation. It runs against a context carrying a
// fresh per-repetition obs.Recorder; domain counters the operation (or the
// code it calls) records there become per-op counter metrics.
type Fn func(ctx context.Context) error

// Benchmark is one named workload. Setup builds whatever state every
// repetition shares (topologies, converged networks, analyses) and returns
// the operation; setup cost is excluded from measurement.
type Benchmark struct {
	Name  string
	Setup func() (Fn, error)
}

// Config tunes a Run.
type Config struct {
	// Warmup repetitions run and are discarded (default 1).
	Warmup int
	// Reps is how many measured repetitions each benchmark gets
	// (default 5). Medians want odd counts.
	Reps int
	// Filter keeps only benchmarks whose name contains the substring.
	Filter string
}

func (c Config) withDefaults() Config {
	if c.Warmup == 0 {
		c.Warmup = 1
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	return c
}

// Dist is a robust summary of per-op samples across repetitions: the
// median, the median absolute deviation, and the samples themselves (so a
// later comparison can re-derive anything).
type Dist struct {
	Median  float64   `json:"median"`
	MAD     float64   `json:"mad"`
	Samples []float64 `json:"samples"`
}

// Result is one benchmark's measurement.
type Result struct {
	Name string `json:"name"`
	// Reps is how many measured repetitions ran, one operation each.
	Reps int `json:"reps"`

	TimeNSPerOp Dist `json:"time_ns_per_op"`
	AllocsPerOp Dist `json:"allocs_per_op"`
	BytesPerOp  Dist `json:"bytes_per_op"`

	// Counters maps obs counter names to per-op distributions. For the
	// deterministic workloads these have MAD 0 by construction.
	Counters map[string]Dist `json:"counters,omitempty"`
}

// Run measures every benchmark in the suite under cfg, in suite order.
// A benchmark whose Setup or Fn errors aborts the run: a benchmark that
// cannot run is a broken build, not a data point.
func Run(ctx context.Context, suite []Benchmark, cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	var out []Result
	for _, b := range suite {
		if cfg.Filter != "" && !strings.Contains(b.Name, cfg.Filter) {
			continue
		}
		r, err := runOne(ctx, b, cfg)
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", b.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runOne(ctx context.Context, b Benchmark, cfg Config) (Result, error) {
	fn, err := b.Setup()
	if err != nil {
		return Result{}, fmt.Errorf("setup: %w", err)
	}
	res := Result{Name: b.Name, Reps: cfg.Reps}

	for w := 0; w < cfg.Warmup; w++ {
		if _, err := oneRep(ctx, fn, nil); err != nil {
			return Result{}, fmt.Errorf("warmup: %w", err)
		}
	}

	var times, allocs, bts []float64
	counters := map[string][]float64{}
	for range cfg.Reps {
		rec := obs.New()
		m, err := oneRep(ctx, fn, rec)
		if err != nil {
			return Result{}, err
		}
		times = append(times, float64(m.ns))
		allocs = append(allocs, float64(m.mallocs))
		bts = append(bts, float64(m.bytes))
		for name, v := range rec.Counters() {
			counters[name] = append(counters[name], float64(v))
		}
	}

	res.TimeNSPerOp = summarize(times)
	res.AllocsPerOp = summarize(allocs)
	res.BytesPerOp = summarize(bts)
	if len(counters) > 0 {
		res.Counters = map[string]Dist{}
		for name, samples := range counters {
			res.Counters[name] = summarize(samples)
		}
	}
	return res, nil
}

// memBudget caps the Go runtime footprint (MemStats.Sys, what the process
// holds from the OS) at every repetition boundary. Sys only grows, so a
// workload whose working set would not fit a CI runner's RAM fails the run
// even if it would also finish.
const memBudget = 4 << 30

type repMeasure struct {
	ns      int64
	mallocs int64
	bytes   int64
}

// oneRep runs fn once, measuring wall time and allocation deltas around
// it, and fails once the runtime footprint exceeds memBudget. rec, when
// non-nil, is carried to fn through the context.
func oneRep(ctx context.Context, fn Fn, rec *obs.Recorder) (repMeasure, error) {
	rctx := obs.WithRecorder(ctx, rec)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := fn(rctx); err != nil {
		return repMeasure{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if after.Sys > memBudget {
		return repMeasure{}, fmt.Errorf("memory budget exceeded: runtime footprint %d MiB > %d MiB", after.Sys>>20, memBudget>>20)
	}
	return repMeasure{
		ns:      elapsed.Nanoseconds(),
		mallocs: int64(after.Mallocs - before.Mallocs),
		bytes:   int64(after.TotalAlloc - before.TotalAlloc),
	}, nil
}

// summarize computes the median + MAD of samples (both 0 for empty input).
// The MAD is reported raw (unscaled): the comparison only ever uses it
// relative to another MAD from the same estimator.
func summarize(samples []float64) Dist {
	d := Dist{Samples: samples}
	d.Median = median(samples)
	if len(samples) > 0 {
		dev := make([]float64, len(samples))
		for i, s := range samples {
			dev[i] = math.Abs(s - d.Median)
		}
		d.MAD = median(dev)
	}
	return d
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
