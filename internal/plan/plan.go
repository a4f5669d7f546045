// Package plan implements Chameleon's compiler (§5): it transforms a node
// schedule into a reconfiguration plan — a setup phase, R update rounds of
// commands with pre- and post-conditions (Table 1), interleaved original
// reconfiguration commands, and a cleanup phase. Commands only modify route
// weights (local to one router) or establish/remove temporary BGP sessions;
// conditions inspect a single router's RIB.
package plan

import (
	"fmt"
	"strings"
	"unicode"

	"chameleon/internal/bgp"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// Route-map weight levels. Weight dominates every other BGP attribute, so
// later phases override earlier ones by using strictly larger weights.
const (
	WeightPinOld  = 500  // setup: pin the old route from m_old
	WeightTempOld = 800  // round r_old: prefer the temp old-egress route
	WeightTempNew = 900  // round r_nh: prefer the temp new-egress route
	WeightNew     = 1000 // round r_new: prefer the new route from m_new
)

// Route-map entry orders used by Chameleon's temporary commands; cleanup
// removes exactly these. Orders are namespaced per prefix so concurrent
// multi-destination plans never clobber each other's entries.
const (
	orderPinOld  = 100
	orderTempOld = 110
	orderTempNew = 120
	orderNew     = 130
	orderStride  = 1000
)

func orderFor(base int, prefix bgp.Prefix) int {
	return base + orderStride*(int(prefix)+1)
}

// ConditionKind distinguishes the two §5 condition forms.
type ConditionKind int

const (
	// CondKnows asserts the router has the route available (pre-condition).
	CondKnows ConditionKind = iota
	// CondSelects asserts the router currently selects the route
	// (post-condition).
	CondSelects
	// CondHasRoute asserts the router selects some route for the prefix,
	// regardless of egress — used by cleanup, whose outcome may
	// legitimately differ from the precomputed final state when external
	// events (link failures, better routes) arrived mid-reconfiguration
	// (§8, Fig. 11).
	CondHasRoute
)

// Condition is a locally checkable assertion on one router's RIB.
type Condition struct {
	Kind   ConditionKind
	Node   topology.NodeID
	Egress topology.NodeID
	// From restricts the advertising neighbor (topology.None: any).
	From topology.NodeID
}

// Check evaluates the condition against the live network.
func (c Condition) Check(net *sim.Network, prefix bgp.Prefix) bool {
	match := func(r bgp.Route) bool {
		if r.Egress != c.Egress {
			return false
		}
		if c.From == topology.None {
			return true
		}
		if r.FromEBGP {
			return r.External == c.From
		}
		return r.Pre() == c.From
	}
	switch c.Kind {
	case CondKnows:
		return net.Knows(c.Node, prefix, match)
	case CondSelects:
		best, ok := net.Best(c.Node, prefix)
		return ok && match(best)
	case CondHasRoute:
		_, ok := net.Best(c.Node, prefix)
		return ok
	}
	return false
}

func (c Condition) String() string {
	if c.Kind == CondHasRoute {
		return fmt.Sprintf("n%d has a route", int(c.Node))
	}
	verb := "knows"
	if c.Kind == CondSelects {
		verb = "selects"
	}
	from := "any"
	if c.From != topology.None {
		from = fmt.Sprintf("%d", int(c.From))
	}
	return fmt.Sprintf("n%d %s route(egress=%d, from=%s)", int(c.Node), verb, int(c.Egress), from)
}

// Step is one synchronized unit: check Pre, apply Command, await Post.
type Step struct {
	Pre     []Condition
	Command sim.Command
	Post    []Condition
}

// Session identifies a temporary BGP session.
type Session struct {
	A, B topology.NodeID
}

// Plan is a compiled reconfiguration plan for one destination.
type Plan struct {
	Prefix bgp.Prefix
	R      int

	Setup  []Step
	Rounds [][]Step // Rounds[k-1] holds round k's steps

	// Between[k] holds original reconfiguration commands applied after
	// round k completes (k = 0 means after setup, before round 1).
	Between [][]sim.Command
	// OriginalSlots maps each original command (by its index in the list
	// passed to Compile) to its Between slot, for multi-destination
	// alignment (§5).
	OriginalSlots map[int]int

	Cleanup []Step

	// TempSessions lists the temporary sessions established during setup
	// and removed during cleanup (§7.3's source of state overhead).
	TempSessions []Session
}

// NumSteps returns the total number of synchronized steps.
func (p *Plan) NumSteps() int {
	n := len(p.Setup) + len(p.Cleanup)
	for _, r := range p.Rounds {
		n += len(r)
	}
	return n
}

// NumCommands returns steps plus interleaved original commands.
func (p *Plan) NumCommands() int {
	n := p.NumSteps()
	for _, cs := range p.Between {
		n += len(cs)
	}
	return n
}

// String renders the plan in the style of Fig. 4's right-hand column: its
// phases in run order, an original command beside the round it precedes.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Reconfiguration plan (prefix %d, %d rounds, %d temp sessions)\n",
		int(p.Prefix), p.R, len(p.TempSessions))
	for _, ph := range Single(p).Phases() {
		steps := ph.Parts[0].Steps
		if ph.Sync {
			for _, s := range steps {
				fmt.Fprintf(&b, "  ⚡ original command: %s\n", s.Command.Description)
			}
			continue
		}
		b.WriteRune(unicode.ToUpper(rune(ph.Name[0])))
		b.WriteString(ph.Name[1:])
		b.WriteString(":\n")
		for _, s := range steps {
			fmt.Fprintf(&b, "  • %s\n", s.Command.Description)
			for _, c := range s.Pre {
				fmt.Fprintf(&b, "      pre:  %s\n", c)
			}
			for _, c := range s.Post {
				fmt.Fprintf(&b, "      post: %s\n", c)
			}
		}
	}
	return b.String()
}
