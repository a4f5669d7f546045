package perf

import (
	"fmt"
	"io"
)

// CompareOptions tune regression detection.
type CompareOptions struct {
	// Threshold is the base relative slowdown tolerated before a
	// time-per-op increase counts as a regression (default 0.10 = 10%).
	Threshold float64
	// NoiseK widens the threshold by K·(oldMAD+newMAD)/oldMedian: a
	// benchmark that was noisy in either run must move further before it
	// is believed (default 3).
	NoiseK float64
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.Threshold == 0 {
		o.Threshold = 0.10
	}
	if o.NoiseK == 0 {
		o.NoiseK = 3
	}
	return o
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name      string
	OldMedian float64 // ns/op
	NewMedian float64
	// Ratio is new/old (1.0 = unchanged; 0 when the old median is 0).
	Ratio float64
	// Threshold is the noise-aware relative tolerance this pair was held
	// to (base threshold widened by the runs' MADs).
	Threshold float64
	// Regressed means the new median exceeds the old beyond Threshold.
	Regressed bool
	// CounterDrift names domain counters whose medians changed at all:
	// the workloads are deterministic, so any drift means the work itself
	// changed, not the machine. Informational, never a regression by
	// itself.
	CounterDrift []string
	// OldBytes and NewBytes are the bytes/op medians; BytesGrew means the
	// new one exceeds the old by more than bytesGrowth. Allocation is close
	// to deterministic (MADs of tens of bytes on megabytes), so growth past
	// that is the code, not the machine. Informational, like CounterDrift.
	OldBytes, NewBytes float64
	BytesGrew          bool
}

// bytesGrowth is the relative bytes/op increase Compare reports.
const bytesGrowth = 0.01

// Report is a full comparison of two BENCH files.
type Report struct {
	Deltas []Delta
	// OnlyOld / OnlyNew name benchmarks present in one file but not the
	// other (suite drift).
	OnlyOld, OnlyNew []string
	// Mismatch is non-empty when the files are not comparable at all
	// (schema or suite version drift); no Deltas are computed then.
	Mismatch string
}

// Regressions counts regressed deltas.
func (r *Report) Regressions() int {
	n := 0
	for _, d := range r.Deltas {
		if d.Regressed {
			n++
		}
	}
	return n
}

// Compare diffs two trajectory points benchmark by benchmark. Only
// time-per-op gates: bytes/op growth and counter movement are reported but
// the machine-dependent wall clock is what the trajectory tracks.
func Compare(old, new *File, opts CompareOptions) *Report {
	opts = opts.withDefaults()
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
			Threshold: opts.Threshold,
			OldBytes:  ob.BytesPerOp.Median,
			NewBytes:  nb.BytesPerOp.Median,
		}
		d.BytesGrew = d.NewBytes > d.OldBytes*(1+bytesGrowth)
		if d.OldMedian > 0 {
			d.Ratio = d.NewMedian / d.OldMedian
			noise := opts.NoiseK * (ob.TimeNSPerOp.MAD + nb.TimeNSPerOp.MAD) / d.OldMedian
			if noise > 0 && d.Threshold < noise {
				d.Threshold = noise
			}
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
	seen := map[string]bool{}
	var names []string
	add := func(m map[string]Dist) {
		for name := range m {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	add(a.Counters)
	add(b.Counters)
	// Insertion order over two maps is random; sort for stable reports.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
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
		if d.Regressed {
			status = "REGRESSION"
		}
		fmt.Fprintf(w, "%-26s %12.0f → %12.0f ns/op  (%5.2fx, tol %4.1f%%)  %s",
			d.Name, d.OldMedian, d.NewMedian, d.Ratio, 100*d.Threshold, status)
		if len(d.CounterDrift) > 0 {
			fmt.Fprintf(w, "  [counters drifted: %v]", d.CounterDrift)
		}
		if d.BytesGrew {
			fmt.Fprintf(w, "  [bytes grew: %.0f → %.0f B/op]", d.OldBytes, d.NewBytes)
		}
		fmt.Fprintln(w)
	}
	for _, name := range r.OnlyOld {
		fmt.Fprintf(w, "%-26s missing from new run\n", name)
	}
	for _, name := range r.OnlyNew {
		fmt.Fprintf(w, "%-26s new benchmark (no baseline)\n", name)
	}
	fmt.Fprintf(w, "%d benchmark(s) compared, %d regression(s)\n", len(r.Deltas), r.Regressions())
}
