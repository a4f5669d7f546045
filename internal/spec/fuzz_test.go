package spec

import (
	"strconv"
	"testing"

	"chameleon/internal/topology"
)

// decimalResolver names node n by its decimal ID, the form Expr.String
// prints, so a printed specification parses back. Only decimals below 2¹⁶
// resolve.
func decimalResolver(name string) (topology.NodeID, error) {
	id, err := strconv.ParseUint(name, 10, 16)
	if err != nil {
		return topology.None, err
	}
	return topology.NodeID(id), nil
}

// FuzzSpecParse: Parse, which reads user-supplied specifications, never
// panics, and the printer is a fixpoint of it: every accepted spec s prints
// a specification that parses back and prints exactly s.String() again.
// Seeds: the package-doc examples with decimal names, the Eq. 4 form, nested
// right-associative binary operators, and hostile inputs (unbalanced
// parentheses, trailing operators, the Unicode connectives, names with
// leading zeros or out of range).
func FuzzSpecParse(f *testing.F) {
	for _, seed := range []string{
		"G reach(1)",
		"wp(1, 7) U G wp(1, 2)",
		"!(reach(1) && reach(2))",
		"G reach(3) && wp(1, 2)",
		"wp(1, 2) U G wp(1, 3)",
		"reach(1) U reach(2) R reach(3) U reach(4)",
		"(reach(1) U reach(2)) R (reach(3) W reach(4)) M reach(5)",
		"exits(1, 2) || F N X !true && not false or reach(0)",
		"((reach(1)",
		"reach(1))",
		"reach(1) U",
		"reach(1) &&",
		"¬reach(1) ∧ reach(2) ∨ ¬¬reach(3)",
		"reach(007)",
		"wp(01, 2)",
		"reach(65536)",
		"reach(-1)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		s, err := Parse(input, decimalResolver)
		if err != nil {
			return
		}
		printed := s.String()
		again, err := Parse(printed, decimalResolver)
		if err != nil {
			t.Fatalf("%q prints %q, which does not parse: %v", input, printed, err)
		}
		if got := again.String(); got != printed {
			t.Fatalf("%q prints %q, which reprints as %q", input, printed, got)
		}
	})
}
