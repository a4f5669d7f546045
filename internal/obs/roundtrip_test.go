package obs

import (
	"bytes"
	"strings"
	"testing"
)

// TestMetricsRoundTripByteIdentical pins WriteMetrics ↔ ParseMetrics as
// exact inverses — the canonicality contract the run-bundle differ relies
// on when it compares metrics parts structurally.
func TestMetricsRoundTripByteIdentical(t *testing.T) {
	r := New()
	r.Add("milp_nodes_explored", 1234)
	r.Add("sim_events_processed", 99)
	r.Add("exec_retries", -7)
	for _, v := range []int64{0, 1, 2, 3, 1023, 1024, 1025, 1 << 40} {
		r.Observe("monitor_blame_latency_ns", v)
	}
	r.Observe("sim_batch_size", 17)

	var orig bytes.Buffer
	if err := r.WriteMetrics(&orig); err != nil {
		t.Fatal(err)
	}
	d, err := ParseMetrics(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatalf("emitted metrics do not parse: %v", err)
	}
	if d.Counters["milp_nodes_explored"] != 1234 || d.Counters["exec_retries"] != -7 {
		t.Fatalf("parsed values wrong: %+v", d)
	}
	if len(d.Hists) != 2 || d.Hists[0].Name != "monitor_blame_latency_ns" {
		t.Fatalf("parsed hists wrong: %+v", d.Hists)
	}
	var rewritten bytes.Buffer
	if err := d.Write(&rewritten); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), rewritten.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n-- original --\n%s\n-- rewritten --\n%s",
			orig.String(), rewritten.String())
	}

	// An empty recorder round-trips to empty bytes.
	var empty bytes.Buffer
	if err := New().WriteMetrics(&empty); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty recorder wrote %q", empty.String())
	}
	if d, err := ParseMetrics(&empty); err != nil || len(d.Counters) != 0 {
		t.Fatalf("empty parse = %+v, %v", d, err)
	}
}

func TestParseMetricsRejectsNonCanonical(t *testing.T) {
	cases := map[string]string{
		"unknown kind":      "meter foo 1\n",
		"truncated":         "counter foo\n",
		"non-integer":       "counter foo bar\n",
		"out of order":      "counter b 1\ncounter a 2\n",
		"duplicate":         "counter a 1\ncounter a 2\n",
		"hist bad field":    "hist h x=1 sum=1 count=1\n",
		"hist no sum":       "hist h le1=1 count=1\n",
		"hist bucket order": "hist h le4=1 le2=1 sum=3 count=2\n",
		"hist count ≠ sum":  "hist h le1=1 sum=1 count=2\n",
		// Each of these once panicked or was accepted without re-writing
		// byte for byte (the FuzzParseMetrics seed corpus holds them too).
		"whitespace-only line": " \n",
		"leading zero":         "counter a 01\n",
		"plus sign":            "counter a +5\n",
		"leading blank line":   "\ncounter a 1\n",
		"hist sum twice":       "hist h le1=1 sum=1 sum=1 count=1\n",
		"hist before counter":  "hist h le1=1 sum=1 count=1\ncounter a 1\n",
	}
	for name, input := range cases {
		if _, err := ParseMetrics(strings.NewReader(input)); err == nil {
			t.Errorf("%s: ParseMetrics accepted %q", name, input)
		}
	}
}
