package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runConfig is one measured run of one workload.
type runConfig struct {
	Workload string
	Seed     uint64
	// Seconds is the time box: a run repeats whole rounds (one pass of every
	// variant) while the next one is expected to fit, and always runs one.
	Seconds float64
	Trace   bool
	// Smoke shrinks lists and tables, sets up once and runs exactly two
	// rounds, so two in-process runs can be compared on their exact metrics.
	Smoke bool
}

// A run sets up at least minSetups times and keeps going, up to maxSetups
// times, until set-up has taken setupBudgetS in all: a 0.2 s set-up is timed
// nine times, a 6 s one three times. setup_s is the median.
const (
	minSetups    = 3
	maxSetups    = 9
	setupBudgetS = 3.0
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the object the run prints as the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is everything a run knows; it is written next to the trace file.
type result struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	report
	// Rounds is how many times every variant's pass ran; WallS the length of
	// the timed phase.
	Rounds int     `json:"rounds"`
	WallS  float64 `json:"wall_s"`
	// Samples is how many op latencies op_p50_ms and op_tail_ms rest on, and
	// Tail says which statistic op_tail_ms is at that count.
	Samples int    `json:"samples"`
	Tail    string `json:"tail"`
	// Failures lists why ops failed or cross-checks did not hold.
	Failures []string `json:"failures,omitempty"`
	// Digests maps plan entries to their planning outcome in the untraced
	// (reference) pass; TracedDigests likewise for the traced pass.
	Digests       map[string]string `json:"digests,omitempty"`
	TracedDigests map[string]string `json:"traced_digests,omitempty"`
	// Layers is the per-layer self-time table of the traced passes, whose
	// rows sum to TracedWallMS.
	Layers       []layerRow `json:"layers,omitempty"`
	TracedWallMS float64    `json:"traced_wall_ms,omitempty"`
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.Workload {
	case "plan-zoo", "plan-hard":
		return newPlanWorkload(cfg)
	case "exec-replay":
		return newReplayWorkload(cfg)
	case "prefix-storm":
		return newStormWorkload(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", cfg.Workload)
}

// traced runs one op under its own root span.
func traced(tr *tracer, op func() opRecord) opRecord {
	id, end := tr.beginOp()
	rec := op()
	end()
	rec.id = id
	return rec
}

// run measures one workload. The tracer is returned so the caller can write
// the spans out; it is nil for an untraced run.
func run(ctx context.Context, cfg runConfig) (*result, *tracer, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	var setupS []float64
	for total := 0.0; len(setupS) < minSetups || (total < setupBudgetS && len(setupS) < maxSetups); {
		t := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		total += setupS[len(setupS)-1]
		if cfg.Smoke {
			break
		}
	}

	variants := w.variants(cfg.Trace)
	recs := make([][]opRecord, len(variants))
	walls := make([][]float64, len(variants))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rounds := 0
	for {
		roundStart := time.Now()
		for v, m := range variants {
			t := time.Now()
			end := m.tr.begin("bench.pass")
			w.pass(ctx, rounds, m, &recs[v])
			end()
			walls[v] = append(walls[v], time.Since(t).Seconds())
		}
		rounds++
		// Stop when another round like the last would overrun the time box;
		// smoke runs stop on a count, so their exact metrics can be compared.
		stop := time.Since(start).Seconds()+time.Since(roundStart).Seconds() > cfg.Seconds
		if cfg.Smoke {
			stop = rounds == 2
		}
		if stop {
			break
		}
	}
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	res := &result{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Rounds: rounds, WallS: wall}
	res.Metrics = map[string]metricValue{}
	for _, ops := range recs {
		for _, op := range ops {
			res.Attempted++
			if op.Err != "" {
				res.Failed++
				res.Failures = append(res.Failures, op.Entry+": "+op.Err)
			}
		}
	}
	res.Digests = digests(recs[0])

	var tr *tracer
	if !cfg.Trace {
		endToEnd(res, recs[0], median(setupS), wall, float64(after.TotalAlloc-before.TotalAlloc))
	} else {
		var noMon []float64
		for v, m := range variants {
			switch {
			case m.tr != nil:
				tr = m.tr
				res.TracedDigests = digests(recs[v])
				perLayer(res, m.tr, recs[v], walls[0], walls[v])
			case m.noMonitor:
				noMon = walls[v]
			}
		}
		if noMon != nil {
			res.set("monitor.cost_pct", 100*(medianRatio(walls[0], noMon)-1))
		}
		res.Failures = append(res.Failures, digestMismatches(res.Digests, res.TracedDigests)...)
	}
	sort.Strings(res.Failures)
	res.Correct = len(res.Failures) == 0
	return res, tr, nil
}

func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.Name == name {
				r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
				return
			}
		}
	}
	panic("benchmark: metric " + name + " is not in names.go")
}

// digestMismatches lists the entries a traced pass planned differently from
// an untraced one: tracing must not change R or a single line of any plan.
func digestMismatches(untraced, traced map[string]string) []string {
	var out []string
	for e, d := range untraced {
		if td := traced[e]; td != d {
			out = append(out, fmt.Sprintf("%s: traced pass planned %q, untraced pass %q", e, td, d))
		}
	}
	return out
}

func digests(ops []opRecord) map[string]string {
	var out map[string]string
	for _, op := range ops {
		if op.Digest != "" {
			if out == nil {
				out = map[string]string{}
			}
			out[op.Entry] = op.Digest
		}
	}
	return out
}

// endToEnd fills the metrics of an untraced run.
func endToEnd(res *result, ops []opRecord, setupS, wallS, allocBytes float64) {
	var lat []float64
	var phases float64
	for _, op := range ops {
		if op.Sampled {
			lat = append(lat, op.MS)
		}
		phases += op.Phases
	}
	sort.Float64s(lat)
	n := float64(len(ops))
	res.Samples = len(lat)
	tail, rule := tailOf(lat)
	res.Tail = rule
	res.set("setup_s", setupS)
	res.set("ops_per_s", n/wallS)
	res.set("op_p50_ms", quantile(lat, 0.5))
	res.set("op_tail_ms", tail)
	res.set("peak_rss_mb", peakRSSMiB())
	res.set("alloc_mb_per_op", allocBytes/1e6/n)
	res.set("phases_mean", phases/n)
}

// spanMetrics maps each time-valued layer metric to the spans it sums per op.
var spanMetrics = map[string][]string{
	"scenario.build_ms":    {"scenario.build"},
	"analyzer.busy_ms":     {"analyzer.classes", "analyzer.analyze"},
	"scheduler.busy_ms":    {"scheduler.schedule"},
	"plan.compile_ms":      {"plan.compile"},
	"plan.align_ms":        {"plan.align"},
	"sim.clone_ms":         {"sim.clone"},
	"sim.whatif_ms":        {"sim.whatif"},
	"sim.storm_batched_ms": {"sim.storm_batched"},
	"sim.storm_routes_ms":  {"sim.storm_routes"},
	"spec.verify_ms":       {"spec.verify"},
}

// eventLoopSpans are the spans inside which the simulator processes events;
// sim.events_per_s divides by their time.
var eventLoopSpans = []string{"scenario.build", "sim.final_network", "runtime.execute", "sim.whatif", "sim.storm_batched", "sim.storm_routes"}

// perLayer fills the metrics of a traced run from the traced pass's spans and
// per-op counts; refWalls and trWalls are the pass times of the untraced
// reference and of the traced variant, round by round.
func perLayer(res *result, tr *tracer, ops []opRecord, refWalls, trWalls []float64) {
	for _, d := range perLayerDefs {
		res.set(d.Name, 0)
	}
	perOp := tr.perOp()
	sumSpans := func(op opRecord, names []string) (ms float64, ok bool) {
		for _, name := range names {
			if v, has := perOp[op.id][name]; has {
				ms += v
				ok = true
			}
		}
		return ms, ok
	}
	// Times: the median over the ops that make the call at all.
	medianOf := func(names []string, keep func(opRecord) bool) float64 {
		var xs []float64
		for _, op := range ops {
			if ms, ok := sumSpans(op, names); ok && keep(op) {
				xs = append(xs, ms)
			}
		}
		return median(xs)
	}
	all := func(opRecord) bool { return true }
	for name, spans := range spanMetrics {
		res.set(name, medianOf(spans, all))
	}
	res.set("runtime.exec_ms", medianOf([]string{"runtime.execute"}, func(op opRecord) bool { return !op.Faulted }))
	res.set("runtime.exec_faulted_ms", medianOf([]string{"runtime.execute"}, func(op opRecord) bool { return op.Faulted }))

	// Counts: the mean per op, exact.
	sums := map[string]float64{}
	var opMS, schedMS, loopMS, stormMS float64
	for _, op := range ops {
		for k, v := range op.Counts {
			sums[k] += v
		}
		opMS += op.MS
		ms, _ := sumSpans(op, []string{"scheduler.schedule"})
		schedMS += ms
		ms, _ = sumSpans(op, eventLoopSpans)
		loopMS += ms
		ms, _ = sumSpans(op, []string{"sim.storm_batched", "sim.storm_routes"})
		stormMS += ms
	}
	n := float64(len(ops))
	for _, d := range perLayerDefs {
		if v, ok := sums[d.Name]; ok {
			res.set(d.Name, v/n)
		}
	}
	res.set("runtime.sim_seconds", sums["runtime.sim_seconds"]/n/1e9)
	ratio := func(name string, num, den float64) {
		if den > 0 {
			res.set(name, num/den)
		}
	}
	ratio("scheduler.share", schedMS, opMS)
	ratio("scheduler.useful_solve_share", sums["scheduler.solves_feasible"], sums["scheduler.rounds_tried"])
	ratio("milp.ns_per_node", schedMS*1e6, sums["milp.nodes"])
	ratio("milp.props_per_node", sums["milp.propagations"], sums["milp.nodes"])
	ratio("sim.events_per_s", sums["sim.events"], loopMS/1e3)
	ratio("bgp.routes_per_s", sums[routesDelivered], stormMS/1e3)
	res.set("obs.trace_overhead_pct", 100*(medianRatio(trWalls, refWalls)-1))

	res.Layers = tr.layerTable()
	for _, w := range trWalls {
		res.TracedWallMS += w * 1e3
	}
	var rows float64
	for _, r := range res.Layers {
		rows += r.SelfMS
	}
	if d := rows - res.TracedWallMS; d > 0.02*res.TracedWallMS || -d > 0.02*res.TracedWallMS {
		res.Failures = append(res.Failures, fmt.Sprintf("per-layer self times sum to %.1f ms, traced wall time is %.1f ms", rows, res.TracedWallMS))
	}
}

// tailOf returns p90 when at least ten samples lie beyond it; with fewer
// samples, the highest one that still has ten beyond it; and below twenty
// samples the maximum, which is then all a tail can mean.
func tailOf(sorted []float64) (float64, string) {
	n := len(sorted)
	switch {
	case n == 0:
		return 0, "none"
	case n >= 100:
		return quantile(sorted, 0.9), "p90"
	case n >= 20:
		return sorted[n-11], fmt.Sprintf("p%d (ten samples beyond)", 100*(n-11)/(n-1))
	}
	return sorted[n-1], "max"
}

// quantile interpolates linearly between the closest ranks of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// medianRatio is the median over rounds of a[i]/b[i]: both variants ran in
// every round, so slow phases of the box hit numerator and denominator alike.
func medianRatio(a, b []float64) float64 {
	var rs []float64
	for i := range a {
		if i < len(b) && b[i] > 0 {
			rs = append(rs, a[i]/b[i])
		}
	}
	if len(rs) == 0 {
		return 1
	}
	return median(rs)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
