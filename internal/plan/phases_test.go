package plan_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"chameleon/internal/plan"
	"chameleon/internal/sim"
)

// steps returns one step per description, its command named by it.
func steps(descs ...string) []plan.Step {
	out := make([]plan.Step, len(descs))
	for i, d := range descs {
		out[i] = plan.Step{Command: sim.Command{Description: d}}
	}
	return out
}

// slots returns a Between list, one slot per argument; "" is an empty slot
// and "a,b" a slot holding commands a and b.
func slots(spec ...string) [][]sim.Command {
	out := make([][]sim.Command, len(spec))
	for i, s := range spec {
		if s == "" {
			continue
		}
		for _, d := range strings.Split(s, ",") {
			out[i] = append(out[i], sim.Command{Description: d})
		}
	}
	return out
}

// renderPhases writes each phase as its name, "sync" for a synchronization
// point, and each part as d<prefix>[its step descriptions].
func renderPhases(phases []plan.Phase) []string {
	out := make([]string, len(phases))
	for i, ph := range phases {
		s := ph.Name
		if ph.Sync {
			s += " sync"
		}
		for _, part := range ph.Parts {
			descs := make([]string, len(part.Steps))
			for j, st := range part.Steps {
				descs[j] = st.Command.Description
			}
			s += fmt.Sprintf(" d%d[%s]", int(part.Prefix), strings.Join(descs, ","))
		}
		out[i] = s
	}
	return out
}

// TestPhases holds the run's phase order (§5) on hand-built plans: names,
// synchronization points, and each part's prefix and steps.
func TestPhases(t *testing.T) {
	twoRounds := func(between [][]sim.Command) *plan.Plan {
		return &plan.Plan{Prefix: 4, R: 2, Setup: steps("s"), Rounds: [][]plan.Step{steps("r1"), steps("r2a", "r2b")},
			Between: between, Cleanup: steps("c")}
	}
	// The three-destination case: o1 and o2 share a slot in every plan and
	// go as one group, o3 goes alone.
	a := &plan.Plan{Prefix: 2, R: 1, Setup: steps("sa"), Rounds: [][]plan.Step{steps("a1")},
		Between: slots("o1,o2", "o3"), OriginalSlots: map[int]int{0: 0, 1: 0, 2: 1}, Cleanup: steps("ca")}
	b := &plan.Plan{Prefix: 5, R: 2, Rounds: [][]plan.Step{steps("b1"), steps("b2")},
		Between: slots("", "o1,o2", "o3"), OriginalSlots: map[int]int{0: 1, 1: 1, 2: 2}, Cleanup: steps("cb")}
	c := &plan.Plan{Prefix: 9, R: 1, Setup: steps("sc"), Rounds: [][]plan.Step{steps("c1")},
		Between: slots("o1,o2,o3", ""), OriginalSlots: map[int]int{0: 0, 1: 0, 2: 0}, Cleanup: steps("cc")}
	three, err := plan.Align([]*plan.Plan{a, b, c}, []sim.Command{
		{Description: "o1"}, {Description: "o2"}, {Description: "o3"}})
	if err != nil {
		t.Fatal(err)
	}
	// The two-destination case: o sits in slot 1 of d3 and slot 2 of d7.
	d3 := &plan.Plan{Prefix: 3, R: 2, Setup: steps("s3"), Rounds: [][]plan.Step{steps("x1"), steps("x2")},
		Between: slots("", "o", ""), OriginalSlots: map[int]int{0: 1}, Cleanup: steps("c3")}
	d7 := &plan.Plan{Prefix: 7, R: 3, Setup: steps("s7"), Rounds: [][]plan.Step{steps("y1"), steps("y2"), steps("y3")},
		Between: slots("", "", "o", ""), OriginalSlots: map[int]int{0: 2}, Cleanup: steps("c7")}
	two, err := plan.Align([]*plan.Plan{d3, d7}, []sim.Command{{Description: "o"}})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mp   *plan.MultiPlan
		want []string
	}{
		{"original in slot 0", plan.Single(twoRounds(slots("o", "", ""))), []string{
			"setup d4[s]",
			"between 0 sync d4[o]",
			"round 1 d4[r1]",
			"between 1 sync d4[]",
			"round 2 d4[r2a,r2b]",
			"between 2 sync d4[]",
			"cleanup d4[c]",
		}},
		{"two originals in a middle slot", plan.Single(twoRounds(slots("", "o1,o2", ""))), []string{
			"setup d4[s]",
			"between 0 sync d4[]",
			"round 1 d4[r1]",
			"between 1 sync d4[o1,o2]",
			"round 2 d4[r2a,r2b]",
			"between 2 sync d4[]",
			"cleanup d4[c]",
		}},
		{"original after the last round", plan.Single(twoRounds(slots("", "", "o"))), []string{
			"setup d4[s]",
			"between 0 sync d4[]",
			"round 1 d4[r1]",
			"between 1 sync d4[]",
			"round 2 d4[r2a,r2b]",
			"between 2 sync d4[o]",
			"cleanup d4[c]",
		}},
		// Empty setup, rounds and cleanup are parts all the same, and a
		// slot Between does not list is no synchronization point.
		{"empty phases, one slot listed", plan.Single(&plan.Plan{Prefix: 1, R: 2, Rounds: make([][]plan.Step, 2),
			Between: slots("")}), []string{
			"setup d1[]",
			"between 0 sync d1[]",
			"round 1 d1[]",
			"round 2 d1[]",
			"cleanup d1[]",
		}},
		{"no Between", plan.Single(twoRounds(nil)), []string{
			"setup d4[s]",
			"round 1 d4[r1]",
			"round 2 d4[r2a,r2b]",
			"cleanup d4[c]",
		}},
		// A synchronization point carries the prefix whose steps ran last.
		{"two destinations, different slots", two, []string{
			"setup d3[s3] d7[s7]",
			"between 0 sync d7[]",
			"d3 round 1 d3[x1]",
			"between 1 sync d3[]",
			"d7 round 1 d7[y1]",
			"between 2 sync d7[]",
			"d7 round 2 d7[y2]",
			"between 3 sync d7[o]",
			"d3 round 2 d3[x2]",
			"between 4 sync d3[]",
			"d7 round 3 d7[y3]",
			"between 5 sync d7[]",
			"cleanup d3[c3] d7[c7]",
		}},
		{"three destinations, shared slots", three, []string{
			"setup d2[sa] d5[] d9[sc]",
			"between 0 sync d9[]",
			"d5 round 1 d5[b1]",
			"between 1 sync d5[o1,o2]",
			"d2 round 1 d2[a1]",
			"d5 round 2 d5[b2]",
			"between 2 sync d5[o3]",
			"d9 round 1 d9[c1]",
			"between 3 sync d9[]",
			"cleanup d2[ca] d5[cb] d9[cc]",
		}},
	} {
		got := renderPhases(tc.mp.Phases())
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: phases\n%s\nwant\n%s", tc.name, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}
