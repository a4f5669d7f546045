// Package perf is the macro-benchmark trajectory harness: a curated suite
// of end-to-end workloads (analysis, scheduling, simulator convergence,
// full plan+execute, chaos) measured with warmup, repetition and
// minimum-duration control, summarized robustly (median + MAD, so a single
// GC pause or scheduler hiccup cannot masquerade as a regression), and
// serialized to a machine-readable JSON file that cmd/benchrunner diffs
// across commits with a noise-aware threshold.
//
// The harness reports three kinds of cost per benchmark:
//
//   - wall time per operation (the only machine-dependent axis),
//   - heap allocations and bytes per operation, and
//   - domain counters per operation (solver nodes, simulator events, BGP
//     messages — obs counters, machine-independent by construction),
//
// plus a flame digest: the top self-time paths from the obs span cost
// attribution, so a regression report says not only "plan-execute got 20%
// slower" but also which phase's self-time moved.
package perf

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
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
	// MinDuration makes each repetition loop the operation until this much
	// wall time has elapsed (default: a single iteration per repetition).
	// Per-op figures divide by the iteration count.
	MinDuration time.Duration
	// Filter keeps only benchmarks whose name contains the substring.
	Filter string
	// Cost enables span cost attribution on the per-repetition recorders,
	// feeding the flame digest. Off by default: ReadMemStats at every span
	// boundary is itself a cost.
	Cost bool
	// Observer, when non-nil, sees every measured repetition's recorder
	// right after it completes (live metrics endpoints hang off this).
	Observer func(bench string, rep int, rec *obs.Recorder)
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

// topK bounds the flame digest.
const topK = 5

// Dist is a robust summary of per-op samples across repetitions: the
// median, the median absolute deviation, and the samples themselves (so a
// later comparison can re-derive anything).
type Dist struct {
	Median  float64   `json:"median"`
	MAD     float64   `json:"mad"`
	Samples []float64 `json:"samples"`
}

// FlameEntry is one row of the flame digest: a span path and its median
// per-op self time across repetitions.
type FlameEntry struct {
	Path         string  `json:"path"`
	SelfNSPerOp  float64 `json:"self_ns_per_op"`
	TotalNSPerOp float64 `json:"total_ns_per_op"`
}

// Result is one benchmark's measurement.
type Result struct {
	Name string `json:"name"`
	// Reps and Iters record the shape of the measurement: how many
	// repetitions ran and how many operations each looped.
	Reps  int   `json:"reps"`
	Iters []int `json:"iters"`

	TimeNSPerOp Dist `json:"time_ns_per_op"`
	AllocsPerOp Dist `json:"allocs_per_op"`
	BytesPerOp  Dist `json:"bytes_per_op"`

	// Counters maps obs counter names to per-op distributions. For the
	// deterministic workloads these have MAD 0 by construction.
	Counters map[string]Dist `json:"counters,omitempty"`

	// Flame is the top-self-time digest (present only when Config.Cost).
	Flame []FlameEntry `json:"flame,omitempty"`
}

// Run measures every benchmark in the suite under cfg, in suite order.
// A benchmark whose Setup or Fn errors aborts the run: a benchmark that
// cannot run is a broken build, not a data point.
func Run(ctx context.Context, suite []Benchmark, cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	var out []Result
	for _, b := range suite {
		if cfg.Filter != "" && !contains(b.Name, cfg.Filter) {
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

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func runOne(ctx context.Context, b Benchmark, cfg Config) (Result, error) {
	fn, err := b.Setup()
	if err != nil {
		return Result{}, fmt.Errorf("setup: %w", err)
	}
	res := Result{Name: b.Name, Reps: cfg.Reps}

	for w := 0; w < cfg.Warmup; w++ {
		if _, _, err := oneRep(ctx, fn, cfg, nil); err != nil {
			return Result{}, fmt.Errorf("warmup: %w", err)
		}
	}

	var times, allocs, bts []float64
	counters := map[string][]float64{}
	flames := map[string][]FlameEntry{} // per-rep entries keyed by path
	flameOrder := []string{}
	for rep := 0; rep < cfg.Reps; rep++ {
		rec := obs.New()
		if cfg.Cost {
			rec.EnableCostAttribution()
		}
		m, iters, err := oneRep(ctx, fn, cfg, rec)
		if err != nil {
			return Result{}, err
		}
		res.Iters = append(res.Iters, iters)
		n := float64(iters)
		times = append(times, float64(m.ns)/n)
		allocs = append(allocs, float64(m.mallocs)/n)
		bts = append(bts, float64(m.bytes)/n)
		for name, v := range rec.Counters() {
			counters[name] = append(counters[name], float64(v)/n)
		}
		if cfg.Cost {
			paths, _ := rec.CostSummary()
			for _, p := range obs.TopSelf(paths, topK) {
				if _, seen := flames[p.Path]; !seen {
					flameOrder = append(flameOrder, p.Path)
				}
				flames[p.Path] = append(flames[p.Path], FlameEntry{
					Path:         p.Path,
					SelfNSPerOp:  float64(p.SelfWallNS) / n,
					TotalNSPerOp: float64(p.WallNS) / n,
				})
			}
		}
		if cfg.Observer != nil {
			cfg.Observer(b.Name, rep, rec)
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
	// Digest: median per-path self time over the reps that surfaced the
	// path, ranked by that median, capped at topK.
	if cfg.Cost {
		for _, path := range flameOrder {
			es := flames[path]
			self := make([]float64, len(es))
			total := make([]float64, len(es))
			for i, e := range es {
				self[i], total[i] = e.SelfNSPerOp, e.TotalNSPerOp
			}
			res.Flame = append(res.Flame, FlameEntry{
				Path:         path,
				SelfNSPerOp:  median(self),
				TotalNSPerOp: median(total),
			})
		}
		sort.SliceStable(res.Flame, func(i, j int) bool {
			if res.Flame[i].SelfNSPerOp != res.Flame[j].SelfNSPerOp {
				return res.Flame[i].SelfNSPerOp > res.Flame[j].SelfNSPerOp
			}
			return res.Flame[i].Path < res.Flame[j].Path
		})
		if len(res.Flame) > topK {
			res.Flame = res.Flame[:topK]
		}
	}
	return res, nil
}

type repMeasure struct {
	ns      int64
	mallocs int64
	bytes   int64
}

// oneRep loops fn until MinDuration has elapsed (at least once), measuring
// wall time and allocation deltas around the whole loop. rec, when
// non-nil, is carried to fn through the context.
func oneRep(ctx context.Context, fn Fn, cfg Config, rec *obs.Recorder) (repMeasure, int, error) {
	rctx := obs.WithRecorder(ctx, rec)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for {
		if err := fn(rctx); err != nil {
			return repMeasure{}, 0, err
		}
		iters++
		if time.Since(start) >= cfg.MinDuration {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return repMeasure{
		ns:      elapsed.Nanoseconds(),
		mallocs: int64(after.Mallocs - before.Mallocs),
		bytes:   int64(after.TotalAlloc - before.TotalAlloc),
	}, iters, nil
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
