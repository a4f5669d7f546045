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
