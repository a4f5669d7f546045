package monitor

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzValidateJSONL: ValidateJSONL, which the run-bundle differ trusts
// with hostile input, never panics; records it accepts, re-emitted by
// WriteRecords, validate again; and a second re-emission is byte-identical
// to the first. A real timeline artifact seeds the corpus under
// testdata/fuzz/FuzzValidateJSONL/.
func FuzzValidateJSONL(f *testing.F) {
	for _, hostile := range []string{
		"",
		"\n\n",
		`{"type":"violation","name":"x","seq":1}` + "\n",
		`{"type":"timeline","name":"x","violations":-1,"violation_ns":0}` + "\n",
		`{"type":"timeline","name":"x","violations":1,"violation_ns":0}` + "\n" +
			`{"type":"violation","name":"x","seq":1,"invariant":"reach","start_ns":5,"end_ns":4,"duration_ns":-1,"cause_kind":"init","hop_depth":0,"blame_ns":0}` + "\n",
		`{"type":"timeline","name":"x","violations":1,"violation_ns":0}` + "\n" +
			`{"type":"violation","name":"x","seq":1,"invariant":"reach","nodes":[30,30],"cause_kind":"init","hop_depth":0,"blame_ns":0}` + "\n",
		`{"type":"timeline","name":"x","violations":0,"violation_ns":0,"nodes":[1],"unknown":true}` + "\r\n",
		`{"type":"timeline","name":"\xff","violations":0,"violation_ns":0}` + "\n",
		`{"type":"timeline","name":"x","violations":0,"violation_ns":0,"end_of_run_ns":9223372036854775808}` + "\n",
		`[{"type":"timeline"}]` + "\n",
		`{"type":"timeline","name":"x","name":"y","violations":0,"violation_ns":0}` + "\n",
	} {
		f.Add(hostile)
	}
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ValidateJSONL(strings.NewReader(input))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteRecords(&first, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ValidateJSONL(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("accepted %q, but its re-emission %q does not validate: %v", input, first.String(), err)
		}
		if err := WriteRecords(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-emissions of %q differ:\n%s\n%s", input, first.String(), second.String())
		}
	})
}
