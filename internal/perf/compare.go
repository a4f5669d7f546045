package perf

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// tolerance is the relative slowdown of median time/op a workload may show
// against its reference before it fails the gate. Scheduling is where
// planning time goes, so schedule/ is held tightest; the prefix-scale storms
// swing about 2× on a shared runner within one run of an unchanged tree
// (EXPERIMENTS.md "One BGP message"); every other family is held only to
// order-of-magnitude blowups (an accidentally quadratic path, a runaway
// solver), not percent-level runner noise.
func tolerance(name string) float64 {
	switch family, _, _ := strings.Cut(name, "/"); family {
	case "schedule":
		return 0.5
	case "prefix-scale":
		return 1.0
	}
	return 4.0
}

// noiseK widens a tolerance to noiseK·(oldMAD+newMAD)/oldMedian: a workload
// that was noisy in either run must move further before it is believed.
const noiseK = 3

// bytesGrowth is the relative bytes/op increase that fails the gate.
// Allocation is close to deterministic (MADs of tens of bytes on
// megabytes), so growth past it is the code, not the machine.
const bytesGrowth = 0.01

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name      string
	OldMedian float64 // ns/op
	NewMedian float64
	// Ratio is new/old (1.0 = unchanged; 0 when the old median is 0).
	Ratio float64
	// Threshold is the relative tolerance this pair was held to: its
	// family's tolerance, widened by the runs' MADs.
	Threshold float64
	// Regressed means the new median exceeds the old beyond Threshold.
	Regressed bool
	// CounterDrift names domain counters whose medians changed at all:
	// the workloads are deterministic, so any drift means the work itself
	// changed, not the machine.
	CounterDrift []string
	// OldBytes and NewBytes are the bytes/op medians; BytesGrew means the
	// new one exceeds the old by more than bytesGrowth.
	OldBytes, NewBytes float64
	BytesGrew          bool
}

func (d Delta) failed() bool {
	return d.Regressed || len(d.CounterDrift) > 0 || d.BytesGrew
}

// Report is a full comparison of two BENCH files.
type Report struct {
	Deltas []Delta
	// OnlyOld / OnlyNew name benchmarks present in one file but not the
	// other (suite drift). A benchmark missing from the new run fails the
	// gate; a new one has no reference and does not.
	OnlyOld, OnlyNew []string
	// Mismatch is non-empty when the files are not comparable at all
	// (schema or suite version drift); no Deltas are computed then.
	Mismatch string
}

// Failures counts the benchmarks that fail the gate: a failed delta or a
// benchmark missing from the new run.
func (r *Report) Failures() int {
	n := len(r.OnlyOld)
	for _, d := range r.Deltas {
		if d.failed() {
			n++
		}
	}
	return n
}

// Compare gates a run (new) against a reference trajectory point (old),
// benchmark by benchmark. A benchmark fails on a drifted domain counter,
// on bytes/op more than bytesGrowth above the reference, on median
// time/op beyond its family's tolerance, or by missing from the run.
func Compare(old, new *File) *Report {
	rep := &Report{}
	if old.SuiteVersion != new.SuiteVersion {
		rep.Mismatch = fmt.Sprintf("suite version %d vs %d — regenerate the baseline", old.SuiteVersion, new.SuiteVersion)
		return rep
	}
	oldBy := map[string]Result{}
	for _, b := range old.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := map[string]Result{}
	for _, b := range new.Benchmarks {
		newBy[b.Name] = b
	}
	for _, ob := range old.Benchmarks {
		if _, ok := newBy[ob.Name]; !ok {
			rep.OnlyOld = append(rep.OnlyOld, ob.Name)
		}
	}
	for _, nb := range new.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			rep.OnlyNew = append(rep.OnlyNew, nb.Name)
			continue
		}
		d := Delta{
			Name:      nb.Name,
			OldMedian: ob.TimeNSPerOp.Median,
			NewMedian: nb.TimeNSPerOp.Median,
			Threshold: tolerance(nb.Name),
			OldBytes:  ob.BytesPerOp.Median,
			NewBytes:  nb.BytesPerOp.Median,
		}
		d.BytesGrew = d.NewBytes > d.OldBytes*(1+bytesGrowth)
		if d.OldMedian > 0 {
			d.Ratio = d.NewMedian / d.OldMedian
			d.Threshold = max(d.Threshold, noiseK*(ob.TimeNSPerOp.MAD+nb.TimeNSPerOp.MAD)/d.OldMedian)
			d.Regressed = d.NewMedian > d.OldMedian*(1+d.Threshold)
		}
		for _, name := range sortedCounterNames(ob, nb) {
			if ob.Counters[name].Median != nb.Counters[name].Median {
				d.CounterDrift = append(d.CounterDrift, name)
			}
		}
		rep.Deltas = append(rep.Deltas, d)
	}
	return rep
}

func sortedCounterNames(a, b Result) []string {
	var names []string
	for name := range a.Counters {
		names = append(names, name)
	}
	for name := range b.Counters {
		if _, ok := a.Counters[name]; !ok {
			names = append(names, name)
		}
	}
	// Iteration order over two maps is random; sort for stable reports.
	slices.Sort(names)
	return names
}

// WriteText renders the report for humans, one line per benchmark.
func (r *Report) WriteText(w io.Writer) {
	if r.Mismatch != "" {
		fmt.Fprintf(w, "incomparable: %s\n", r.Mismatch)
		return
	}
	for _, d := range r.Deltas {
		status := "ok"
		if d.failed() {
			status = "FAIL"
		}
		fmt.Fprintf(w, "%-26s %12.0f → %12.0f ns/op  (%5.2fx, tol %4.1f%%)  %s",
			d.Name, d.OldMedian, d.NewMedian, d.Ratio, 100*d.Threshold, status)
		if d.Regressed {
			fmt.Fprint(w, "  [time/op beyond tolerance]")
		}
		if len(d.CounterDrift) > 0 {
			fmt.Fprintf(w, "  [counters drifted: %v]", d.CounterDrift)
		}
		if d.BytesGrew {
			fmt.Fprintf(w, "  [bytes grew: %.0f → %.0f B/op]", d.OldBytes, d.NewBytes)
		}
		fmt.Fprintln(w)
	}
	for _, name := range r.OnlyOld {
		fmt.Fprintf(w, "%-26s missing from new run  FAIL\n", name)
	}
	for _, name := range r.OnlyNew {
		fmt.Fprintf(w, "%-26s new benchmark (no reference)\n", name)
	}
	fmt.Fprintf(w, "%d benchmark(s) compared, %d failure(s)\n", len(r.Deltas), r.Failures())
}
