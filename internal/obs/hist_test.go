package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	r := New()
	for _, v := range []int64{-5, 0, 1, 2, 3, 4, 5, 1024, 1025} {
		r.Observe("lat", v)
	}
	h, ok := r.Histogram("lat")
	if !ok {
		t.Fatal("histogram not recorded")
	}
	if h.Count != 9 {
		t.Errorf("count = %d, want 9", h.Count)
	}
	// -5 clamps to 0; sum = 0+0+1+2+3+4+5+1024+1025.
	if h.Sum != 2064 {
		t.Errorf("sum = %d, want 2064", h.Sum)
	}
	// le=1: {-5,0,1}; le=2: {2}; le=4: {3,4}; le=8: {5}; le=1024: {1024};
	// le=2048: {1025}. Ascending, empty buckets omitted.
	want := []HistBucket{{1, 3}, {2, 1}, {4, 2}, {8, 1}, {1024, 1}, {2048, 1}}
	if len(h.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", h.Buckets, want)
	}
	for i, b := range want {
		if h.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, h.Buckets[i], b)
		}
	}
	if _, ok := r.Histogram("missing"); ok {
		t.Error("unknown histogram reported present")
	}
}

func TestHistogramNilSafe(t *testing.T) {
	var r *Recorder
	r.Observe("x", 1) // must not panic
	if _, ok := r.Histogram("x"); ok {
		t.Error("nil recorder reported a histogram")
	}
	if hs := r.Histograms(); hs != nil {
		t.Errorf("nil recorder histograms = %v", hs)
	}
}

func TestWritePrometheusHistogramExposition(t *testing.T) {
	r := New()
	r.Add("ctr", 1)
	for _, v := range []int64{1, 3, 3, 9} {
		r.Observe("blame_ns", v)
	}
	r.Observe("alpha", 1)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b, PromOptions{}); err != nil {
		t.Fatal(err)
	}
	dump := b.String()

	// Cumulative buckets: le=1 → 1, le=4 → 3, le=16 → 4, +Inf → 4.
	for _, line := range []string{
		`# TYPE chameleon_blame_ns histogram`,
		`chameleon_blame_ns_bucket{le="1"} 1`,
		`chameleon_blame_ns_bucket{le="4"} 3`,
		`chameleon_blame_ns_bucket{le="16"} 4`,
		`chameleon_blame_ns_bucket{le="+Inf"} 4`,
		`chameleon_blame_ns_sum 16`,
		`chameleon_blame_ns_count 4`,
	} {
		if !strings.Contains(dump, line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, dump)
		}
	}
	// Stable group order: counters, then histograms sorted by name (alpha
	// before blame_ns).
	order := []string{
		"chameleon_ctr_total ",
		`chameleon_alpha_bucket{le="1"} 1`,
		"chameleon_blame_ns_count 4",
	}
	last := -1
	for _, marker := range order {
		i := strings.Index(dump, marker)
		if i < 0 {
			t.Fatalf("exposition lacks %q:\n%s", marker, dump)
		}
		if i < last {
			t.Errorf("%q appears out of order:\n%s", marker, dump)
		}
		last = i
	}

	// Byte-stable across scrapes.
	var b2 bytes.Buffer
	if err := r.WritePrometheus(&b2, PromOptions{}); err != nil {
		t.Fatal(err)
	}
	if dump != b2.String() {
		t.Error("two scrapes of an idle recorder differ")
	}
}

func TestWritePrometheusHistogramConstLabels(t *testing.T) {
	r := New()
	r.Observe("h", 2)
	var b bytes.Buffer
	err := r.WritePrometheus(&b, PromOptions{
		ConstLabels: map[string]string{"job": "bench"},
	})
	if err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	// le is appended after the sorted const labels; _sum/_count carry the
	// const labels only.
	for _, line := range []string{
		`chameleon_h_bucket{job="bench",le="2"} 1`,
		`chameleon_h_bucket{job="bench",le="+Inf"} 1`,
		`chameleon_h_sum{job="bench"} 2`,
		`chameleon_h_count{job="bench"} 1`,
	} {
		if !strings.Contains(dump, line+"\n") {
			t.Errorf("exposition lacks %q:\n%s", line, dump)
		}
	}
}

func TestAdoptMergesHistograms(t *testing.T) {
	parent := New()
	parent.Observe("h", 1)
	child := parent.Fork()
	child.Observe("h", 100)
	child.Observe("other", 5)
	parent.Adopt("work", child)

	h, ok := parent.Histogram("h")
	if !ok || h.Count != 2 || h.Sum != 101 {
		t.Errorf("merged h = %+v, %v; want count 2 sum 101", h, ok)
	}
	if o, ok := parent.Histogram("other"); !ok || o.Count != 1 || o.Sum != 5 {
		t.Errorf("adopted other = %+v, %v", o, ok)
	}
}

func TestHistogramsInDumps(t *testing.T) {
	r := New()
	sp := r.StartSpan(nil, "root")
	r.Observe("h", 3)
	sp.End()

	var j bytes.Buffer
	if err := r.WriteJSONL(&j); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"type":"hist"`) {
		t.Errorf("JSONL dump lacks the hist record:\n%s", j.String())
	}
	if _, err := ValidateJSONL(bytes.NewReader(j.Bytes())); err != nil {
		t.Errorf("dump with histogram does not validate: %v", err)
	}
}
