package config_test

import (
	"testing"

	"chameleon/internal/config"
)

// FuzzConfigParse feeds arbitrary text to the DSL. Parse never panics; an
// accepted configuration formats to a fixpoint of Parse (what Parse reads
// back from Format formats to the same text); and Build returns a network
// or an error, never a panic. The seed corpus under
// testdata/fuzz/FuzzConfigParse holds the running example and hostile
// lines, and every minimized finding.
func FuzzConfigParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		c, err := config.Parse(input)
		if err != nil {
			return
		}
		text := c.Format()
		again, err := config.Parse(text)
		if err != nil {
			t.Fatalf("Parse rejects its own Format output: %v\n%s", err, text)
		}
		if got := again.Format(); got != text {
			t.Fatalf("Format is not a fixpoint of Parse:\n%s\nformats back to\n%s", text, got)
		}
		c.Build(1)
	})
}
