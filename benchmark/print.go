package main

import (
	"fmt"
	"io"
)

// metricsOf returns the definitions a run of that kind reports.
func metricsOf(trace bool) []metricDef {
	if trace {
		return perLayerDefs
	}
	return endToEndDefs
}

// printResult prints every metric of a run by name, with its unit.
func printResult(w io.Writer, res *result) {
	kind := "untraced"
	if res.Trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "%s  %s  seed %d  %d rounds in %.1f s  %d ops, %d failed\n",
		res.Workload, kind, res.Seed, res.Rounds, res.WallS, res.Attempted, res.Failed)
	for _, d := range metricsOf(res.Trace) {
		fmt.Fprintf(w, "  %-30s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if !res.Trace {
		fmt.Fprintf(w, "  op_p50_ms and op_tail_ms rest on %d samples; op_tail_ms is the %s\n", res.Samples, res.Tail)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "  self time per layer (rows sum to the traced wall time, %.1f ms):\n", res.TracedWallMS)
		for _, r := range res.Layers {
			fmt.Fprintf(w, "    %-10s %12.1f ms %6.1f %%  %7d spans\n", r.Layer, r.SelfMS, 100*r.Share, r.Spans)
		}
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}

// printList prints workloads, ops per pass and metric names as BENCHMARK.json
// spells them.
func printList(w io.Writer) error {
	fmt.Fprintln(w, "workloads (ops per pass):")
	for _, d := range workloadDefs {
		wl, err := newWorkload(runConfig{Workload: d.Name})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-14s %4d  %s\n", d.Name, wl.opsPerPass(), d.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (tracing off):")
	for _, d := range endToEndDefs {
		fmt.Fprintf(w, "  %-30s %-8s %s is better\n", d.Name, d.Unit, d.Better)
	}
	fmt.Fprintln(w, "per-layer metrics (traced run):")
	for _, d := range perLayerDefs {
		fmt.Fprintf(w, "  %-30s %-8s %s is better\n", d.Name, d.Unit, d.Better)
	}
	return nil
}
