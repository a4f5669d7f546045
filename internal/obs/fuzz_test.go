package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseMetrics feeds arbitrary text to the metrics parser the run-bundle
// differ trusts with hostile input. ParseMetrics never panics, and an input
// it accepts re-writes byte for byte: Write and ParseMetrics are exact
// inverses. The seed corpus under testdata/fuzz/FuzzParseMetrics holds the
// inputs that once panicked or were accepted without re-writing, and every
// minimized finding.
func FuzzParseMetrics(f *testing.F) {
	f.Add("counter a 1\ncounter b -2\nhist h le1=1 le4=2 sum=7 count=3\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, err := ParseMetrics(strings.NewReader(input))
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := d.Write(&b); err != nil {
			t.Fatal(err)
		}
		if b.String() != input {
			t.Fatalf("accepted %q but it re-writes as %q", input, b.String())
		}
	})
}
