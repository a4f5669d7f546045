package eval

import "testing"

// The stats helpers promise a defined zero — never NaN, never a panic —
// on empty samples, so sweep code can fold partially-errored result sets
// without guarding every aggregation. These tests pin that contract.

func TestStatsEmptySamples(t *testing.T) {
	none := NewDist(nil)
	for _, p := range []float64{-1, 0, 50, 100, 101} {
		if got := none.Percentile(p); got != 0 {
			t.Errorf("NewDist(nil).Percentile(%v) = %v, want 0", p, got)
		}
	}
	if got := none.Median(); got != 0 {
		t.Errorf("NewDist(nil).Median() = %v, want 0", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := none.FractionBelow(10); got != 0 {
		t.Errorf("NewDist(nil).FractionBelow(10) = %v, want 0", got)
	}
}

func TestDistEmpty(t *testing.T) {
	d := NewDist(nil)
	for _, p := range []float64{0, 10, 50, 90, 100} {
		if got := d.Percentile(p); got != 0 {
			t.Errorf("empty Dist.Percentile(%v) = %v, want 0", p, got)
		}
	}
	if got := d.Median(); got != 0 {
		t.Errorf("empty Dist.Median() = %v, want 0", got)
	}
	if got := d.Mean(); got != 0 {
		t.Errorf("empty Dist.Mean() = %v, want 0", got)
	}
	if got := d.FractionBelow(42); got != 0 {
		t.Errorf("empty Dist.FractionBelow(42) = %v, want 0", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	// Fewer than two positive pairs, or zero variance, correlate to 0
	// rather than NaN.
	if got := PearsonLogLog(nil, nil); got != 0 {
		t.Errorf("PearsonLogLog(nil, nil) = %v, want 0", got)
	}
	if got := PearsonLogLog([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("PearsonLogLog(1 pair) = %v, want 0", got)
	}
	if got := PearsonLogLog([]float64{3, 3, 3}, []float64{1, 2, 4}); got != 0 {
		t.Errorf("PearsonLogLog(zero x-variance) = %v, want 0", got)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75}, {-5, 1}, {200, 4},
	}
	for _, c := range cases {
		if got := NewDist(xs).Percentile(c.p); got != c.want {
			t.Errorf("NewDist(%v).Percentile(%v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
}
