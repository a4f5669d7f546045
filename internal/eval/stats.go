package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Dist is a sample distribution sorted once at construction, so report
// loops asking for several statistics (median, P10, P90, fraction below, …) of
// the same
// data pay for a single copy-and-sort instead of one per call.
type Dist struct {
	sorted []float64
}

// NewDist copies and sorts xs once. The zero-length distribution is valid:
// every statistic of it is 0.
func NewDist(xs []float64) *Dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &Dist{sorted: s}
}

// Percentile returns the p-th percentile (0–100) by linear interpolation.
func (d *Dist) Percentile(p float64) float64 {
	s := d.sorted
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median returns the 50th percentile.
func (d *Dist) Median() float64 { return d.Percentile(50) }

// Mean returns the arithmetic mean.
func (d *Dist) Mean() float64 { return Mean(d.sorted) }

// FractionBelow returns the fraction of samples ≤ x.
func (d *Dist) FractionBelow(x float64) float64 {
	if len(d.sorted) == 0 {
		return 0
	}
	// First index whose value exceeds x, on the sorted data.
	lo, hi := 0, len(d.sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.sorted[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return float64(lo) / float64(len(d.sorted))
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// PearsonLogLog computes the Pearson correlation of log(x) vs log(y) for
// positive pairs — the Fig. 7 "strong correlation" statistic.
func PearsonLogLog(xs, ys []float64) float64 {
	var lx, ly []float64
	for i := range xs {
		if i < len(ys) && xs[i] > 0 && ys[i] > 0 {
			lx = append(lx, logf(xs[i]))
			ly = append(ly, logf(ys[i]))
		}
	}
	return pearson(lx, ly)
}

func logf(x float64) float64 { return math.Log(x) }

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// AsciiCDF renders a small text CDF plot (for the eval harness output).
func AsciiCDF(title, unit string, xs []float64, marks []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (n=%d)\n", title, len(xs))
	if len(xs) == 0 {
		return b.String()
	}
	d := NewDist(xs)
	for _, m := range marks {
		fmt.Fprintf(&b, "  ≤ %8.1f %s : %5.1f%%\n", m, unit, 100*d.FractionBelow(m))
	}
	fmt.Fprintf(&b, "  min %.2f / median %.2f / mean %.2f / p90 %.2f / max %.2f %s\n",
		d.Percentile(0), d.Median(), d.Mean(), d.Percentile(90), d.Percentile(100), unit)
	return b.String()
}
