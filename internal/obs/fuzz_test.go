package obs

import (
	"bytes"
	"strings"
	"testing"
)

// rejectedTraces are hostile trace parts ValidateJSONL must refuse.
var rejectedTraces = []struct{ why, trace string }{
	{"duplicate span id",
		`{"type":"span","id":1,"parent":0,"name":"a","start_tick":1,"end_tick":4,"sim_start_ns":-1,"sim_end_ns":-1}` + "\n" +
			`{"type":"span","id":1,"parent":0,"name":"b","start_tick":2,"end_tick":3,"sim_start_ns":-1,"sim_end_ns":-1}` + "\n"},
	{"unknown parent",
		`{"type":"span","id":2,"parent":7,"name":"orphan","start_tick":1,"end_tick":2,"sim_start_ns":-1,"sim_end_ns":-1}` + "\n"},
	{"hist buckets that do not sum to count",
		`{"type":"hist","name":"h","buckets":{"1":1,"4":1},"sum":5,"count":3}` + "\n"},
	{"hist with a negative bucket count",
		`{"type":"hist","name":"h","buckets":{"1":5,"2":-3},"sum":0,"count":2}` + "\n"},
	{"hist bucket sum that wraps around to the count",
		`{"type":"hist","name":"h","buckets":{"1":9223372036854775807,"2":1},"sum":0,"count":-9223372036854775808}` + "\n"},
}

// FuzzValidateTrace: ValidateJSONL, which the run-bundle differ trusts with
// hostile trace parts, never panics on arbitrary bytes; and every trace
// WriteJSONL emits validates. The same input doubles as a script for the
// recorder whose trace is checked: each byte opens a span under the
// innermost open one, ends it, adds to a counter or observes a histogram
// sample. The corpus under testdata/fuzz/FuzzValidateTrace/ holds a real
// -smoke trace and six hostile inputs (a histogram before a counter, a
// repeated field, blank and whitespace lines, numbers spelled "01" and
// "+5"); rejectedTraces and the records below seed it too.
func FuzzValidateTrace(f *testing.F) {
	for _, c := range rejectedTraces {
		f.Add(c.trace)
	}
	for _, hostile := range []string{
		"",
		"\n\n",
		`{"type":"counter","name":"c","value":"1"}` + "\n",
	} {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, input string) {
		ValidateJSONL(strings.NewReader(input))

		r := New()
		var open []*Span
		for i := 0; i < len(input); i++ {
			c := input[i]
			name := input[i:min(i+3, len(input))]
			switch c % 4 {
			case 0:
				var parent *Span
				if len(open) > 0 {
					parent = open[len(open)-1]
				}
				open = append(open, r.StartSpan(parent, name, Attr{Key: "k", Value: name}))
			case 1:
				if len(open) > 0 {
					open[len(open)-1].End()
					open = open[:len(open)-1]
				}
			case 2:
				if len(open) > 0 {
					open[len(open)-1].Add(name, int64(c))
				}
				r.Add(name, -int64(c))
			case 3:
				r.Observe(name, int64(c)<<(c%48))
			}
		}
		for len(open) > 0 {
			open[len(open)-1].End()
			open = open[:len(open)-1]
		}
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		spans, _ := r.snapshot()
		if n, err := ValidateJSONL(bytes.NewReader(buf.Bytes())); err != nil || n != len(spans) {
			t.Fatalf("WriteJSONL of script %q does not validate (%d of %d spans, %v):\n%s",
				input, n, len(spans), err, buf.String())
		}
	})
}
