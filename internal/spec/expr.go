// Package spec implements the paper's specification language (Fig. 2):
// propositional forwarding properties — reach(n) and wp(n, w) — combined
// with boolean operators and Linear Temporal Logic. Specifications are
// evaluated over finite sequences of forwarding states with the standard
// "final state persists" semantics, matching the paper's ILP unrolling
// (§4.3): the network remains in the last state after the reconfiguration.
package spec

import (
	"fmt"
	"strings"

	"chameleon/internal/fwd"
	"chameleon/internal/topology"
)

// Kind enumerates expression node kinds.
type Kind int

const (
	// KTrue and KFalse are constant propositions.
	KTrue Kind = iota
	KFalse
	// KReach is reach(n): traffic entering at n reaches the destination.
	KReach
	// KWp is wp(n, w): traffic entering at n traverses waypoint w.
	KWp
	// KExits is exits(n, e): traffic entering at n leaves the network at
	// egress e — the §8 "routing invariant" extension constraining which
	// route a node effectively uses, enabling operators to trade
	// interdomain route consistency for reconfiguration feasibility.
	KExits
	// Boolean connectives.
	KAnd
	KOr
	KNot
	// Temporal operators.
	KNext          // N φ
	KGlobally      // G φ
	KFinally       // F φ
	KUntil         // φ U ψ
	KRelease       // φ R ψ
	KWeakUntil     // φ W ψ  (= G φ ∨ φ U ψ)
	KStrongRelease // φ M ψ  (= ψ U (φ ∧ ψ), the paper's "mighty W")
)

var kindNames = map[Kind]string{
	KTrue: "true", KFalse: "false", KReach: "reach", KWp: "wp",
	KExits: "exits",
	KAnd:   "&&", KOr: "||", KNot: "!", KNext: "N", KGlobally: "G",
	KFinally: "F", KUntil: "U", KRelease: "R", KWeakUntil: "W",
	KStrongRelease: "M",
}

// Temporal reports whether k is a temporal operator.
func (k Kind) Temporal() bool {
	switch k {
	case KNext, KGlobally, KFinally, KUntil, KRelease, KWeakUntil, KStrongRelease:
		return true
	}
	return false
}

func (k Kind) String() string { return kindNames[k] }

// Expr is a node of the specification syntax graph. Expressions are
// hash-consed by a Builder: structurally identical subexpressions share one
// node (the paper's DAG Gφ of §4.3), so ID uniquely identifies a
// subexpression and can index solver variables.
type Expr struct {
	Kind Kind
	Node topology.NodeID // for KReach, KWp: the source node n
	Via  topology.NodeID // for KWp: the waypoint w
	A, B *Expr           // children (B only for binary kinds)

	// ID is the node's dense index within its Builder, in topological
	// order (children precede parents).
	ID int
}

// String renders the expression in the surface syntax.
func (e *Expr) String() string {
	switch e.Kind {
	case KTrue:
		return "true"
	case KFalse:
		return "false"
	case KReach:
		return fmt.Sprintf("reach(%d)", int(e.Node))
	case KWp:
		return fmt.Sprintf("wp(%d, %d)", int(e.Node), int(e.Via))
	case KExits:
		return fmt.Sprintf("exits(%d, %d)", int(e.Node), int(e.Via))
	case KNot:
		return "!" + parens(e.A)
	case KNext, KGlobally, KFinally:
		return e.Kind.String() + " " + parens(e.A)
	case KAnd, KOr, KUntil, KRelease, KWeakUntil, KStrongRelease:
		return parens(e.A) + " " + e.Kind.String() + " " + parens(e.B)
	}
	return "?"
}

func parens(e *Expr) string {
	switch e.Kind {
	case KTrue, KFalse, KReach, KWp, KNot:
		return e.String()
	}
	return "(" + e.String() + ")"
}

// Builder hash-conses expressions. The zero value is ready to use.
type Builder struct {
	interned map[string]*Expr
	exprs    []*Expr
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{interned: make(map[string]*Expr)} }

func (b *Builder) intern(e Expr) *Expr {
	if b.interned == nil {
		b.interned = make(map[string]*Expr)
	}
	key := b.key(&e)
	if found, ok := b.interned[key]; ok {
		return found
	}
	e.ID = len(b.exprs)
	node := &e
	b.exprs = append(b.exprs, node)
	b.interned[key] = node
	return node
}

func (b *Builder) key(e *Expr) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d/%d/%d", e.Kind, e.Node, e.Via)
	if e.A != nil {
		fmt.Fprintf(&sb, "/a%d", e.A.ID)
	}
	if e.B != nil {
		fmt.Fprintf(&sb, "/b%d", e.B.ID)
	}
	return sb.String()
}

// Exprs returns all interned expressions in topological order.
func (b *Builder) Exprs() []*Expr { return b.exprs }

// True returns the constant true proposition.
func (b *Builder) True() *Expr { return b.intern(Expr{Kind: KTrue}) }

// False returns the constant false proposition.
func (b *Builder) False() *Expr { return b.intern(Expr{Kind: KFalse}) }

// Reach builds reach(n).
func (b *Builder) Reach(n topology.NodeID) *Expr {
	return b.intern(Expr{Kind: KReach, Node: n, Via: topology.None})
}

// Wp builds wp(n, w).
func (b *Builder) Wp(n, w topology.NodeID) *Expr {
	return b.intern(Expr{Kind: KWp, Node: n, Via: w})
}

// Exits builds exits(n, e): traffic from n leaves the network at egress e.
func (b *Builder) Exits(n, e topology.NodeID) *Expr {
	return b.intern(Expr{Kind: KExits, Node: n, Via: e})
}

// And builds the conjunction of all given expressions (true if empty).
func (b *Builder) And(es ...*Expr) *Expr {
	if len(es) == 0 {
		return b.True()
	}
	out := es[0]
	for _, e := range es[1:] {
		out = b.intern(Expr{Kind: KAnd, Node: topology.None, Via: topology.None, A: out, B: e})
	}
	return out
}

// Or builds the disjunction of all given expressions (false if empty).
func (b *Builder) Or(es ...*Expr) *Expr {
	if len(es) == 0 {
		return b.False()
	}
	out := es[0]
	for _, e := range es[1:] {
		out = b.intern(Expr{Kind: KOr, Node: topology.None, Via: topology.None, A: out, B: e})
	}
	return out
}

// Not builds ¬a.
func (b *Builder) Not(a *Expr) *Expr {
	return b.intern(Expr{Kind: KNot, Node: topology.None, Via: topology.None, A: a})
}

// Next builds N a.
func (b *Builder) Next(a *Expr) *Expr {
	return b.intern(Expr{Kind: KNext, Node: topology.None, Via: topology.None, A: a})
}

// Globally builds G a.
func (b *Builder) Globally(a *Expr) *Expr {
	return b.intern(Expr{Kind: KGlobally, Node: topology.None, Via: topology.None, A: a})
}

// Finally builds F a.
func (b *Builder) Finally(a *Expr) *Expr {
	return b.intern(Expr{Kind: KFinally, Node: topology.None, Via: topology.None, A: a})
}

// Until builds a U b.
func (b *Builder) Until(x, y *Expr) *Expr {
	return b.intern(Expr{Kind: KUntil, Node: topology.None, Via: topology.None, A: x, B: y})
}

// Release builds a R b.
func (b *Builder) Release(x, y *Expr) *Expr {
	return b.intern(Expr{Kind: KRelease, Node: topology.None, Via: topology.None, A: x, B: y})
}

// WeakUntil builds a W b.
func (b *Builder) WeakUntil(x, y *Expr) *Expr {
	return b.intern(Expr{Kind: KWeakUntil, Node: topology.None, Via: topology.None, A: x, B: y})
}

// StrongRelease builds a M b.
func (b *Builder) StrongRelease(x, y *Expr) *Expr {
	return b.intern(Expr{Kind: KStrongRelease, Node: topology.None, Via: topology.None, A: x, B: y})
}

// Spec is a complete specification: a root expression plus its builder
// (giving access to the deduplicated syntax DAG).
type Spec struct {
	Root    *Expr
	Builder *Builder
}

// NewSpec wraps a root expression built with b.
func NewSpec(b *Builder, root *Expr) *Spec { return &Spec{Root: root, Builder: b} }

// Reachability builds G ∧_n reach(n) over all internal routers of g, the
// specification every pipeline plans against unless it is given another.
func Reachability(g *topology.Graph) *Spec {
	b := NewBuilder()
	var es []*Expr
	for _, n := range g.Internal() {
		es = append(es, b.Reach(n))
	}
	return NewSpec(b, b.Globally(b.And(es...)))
}

// String renders the root expression.
func (s *Spec) String() string { return s.Root.String() }

// Exprs returns the deduplicated expression DAG in topological order.
func (s *Spec) Exprs() []*Expr { return s.Builder.Exprs() }

// TemporalDepth returns the maximum nesting depth of temporal operators,
// one component of specification complexity (§7.1).
func (s *Spec) TemporalDepth() int {
	memo := make(map[int]int)
	var depth func(e *Expr) int
	depth = func(e *Expr) int {
		if d, ok := memo[e.ID]; ok {
			return d
		}
		d := 0
		if e.A != nil {
			d = depth(e.A)
		}
		if e.B != nil {
			if db := depth(e.B); db > d {
				d = db
			}
		}
		if e.Kind.Temporal() {
			d++
		}
		memo[e.ID] = d
		return d
	}
	return depth(s.Root)
}

// Eval evaluates the specification over a finite trace of forwarding
// states, with the final state persisting forever. An empty trace yields
// false.
func (s *Spec) Eval(trace []fwd.State) bool {
	if len(trace) == 0 {
		return false
	}
	return s.EvalAll(trace)[0]
}

// EvalAll returns, for each position k of the trace, whether the root
// expression holds at k (with the final state persisting).
func (s *Spec) EvalAll(trace []fwd.State) []bool {
	L := len(trace)
	exprs := s.Exprs()
	// val[e.ID][k]
	val := make([][]bool, len(exprs))
	for i := range val {
		val[i] = make([]bool, L)
	}
	for k := L - 1; k >= 0; k-- {
		last := k == L-1
		for _, e := range exprs { // topological: children first
			var v bool
			switch e.Kind {
			case KTrue:
				v = true
			case KFalse:
				v = false
			case KReach:
				v = trace[k].Reach(e.Node)
			case KWp:
				v = trace[k].Waypoint(e.Node, e.Via)
			case KExits:
				v = trace[k].Egress(e.Node) == e.Via
			case KAnd:
				v = val[e.A.ID][k] && val[e.B.ID][k]
			case KOr:
				v = val[e.A.ID][k] || val[e.B.ID][k]
			case KNot:
				v = !val[e.A.ID][k]
			case KNext:
				if last {
					v = val[e.A.ID][k]
				} else {
					v = val[e.A.ID][k+1]
				}
			case KGlobally:
				if last {
					v = val[e.A.ID][k]
				} else {
					v = val[e.A.ID][k] && val[e.ID][k+1]
				}
			case KFinally:
				if last {
					v = val[e.A.ID][k]
				} else {
					v = val[e.A.ID][k] || val[e.ID][k+1]
				}
			case KUntil:
				if last {
					v = val[e.B.ID][k]
				} else {
					v = val[e.B.ID][k] || (val[e.A.ID][k] && val[e.ID][k+1])
				}
			case KRelease:
				if last {
					v = val[e.B.ID][k]
				} else {
					v = val[e.B.ID][k] && (val[e.A.ID][k] || val[e.ID][k+1])
				}
			case KWeakUntil:
				if last {
					v = val[e.A.ID][k] || val[e.B.ID][k]
				} else {
					v = val[e.B.ID][k] || (val[e.A.ID][k] && val[e.ID][k+1])
				}
			case KStrongRelease:
				if last {
					v = val[e.A.ID][k] && val[e.B.ID][k]
				} else {
					v = (val[e.A.ID][k] && val[e.B.ID][k]) ||
						(val[e.B.ID][k] && val[e.ID][k+1])
				}
			}
			val[e.ID][k] = v
		}
	}
	return val[s.Root.ID]
}

// EvalState evaluates the specification against a single forwarding state
// under the final-state-persists semantics — the steady-state projection in
// which every temporal operator collapses to its fixpoint at the last
// position. This is what an online monitor can decide about the current
// transient state without seeing the future: the propositional content of
// the spec. Equivalent to Eval([]fwd.State{s}) but allocation-light, since
// the monitor calls it on every snapshot.
func (s *Spec) EvalState(st fwd.State) bool {
	exprs := s.Exprs()
	val := make([]bool, len(exprs))
	for _, e := range exprs { // topological: children first
		var v bool
		switch e.Kind {
		case KTrue:
			v = true
		case KFalse:
			v = false
		case KReach:
			v = st.Reach(e.Node)
		case KWp:
			v = st.Waypoint(e.Node, e.Via)
		case KExits:
			v = st.Egress(e.Node) == e.Via
		case KAnd:
			v = val[e.A.ID] && val[e.B.ID]
		case KOr:
			v = val[e.A.ID] || val[e.B.ID]
		case KNot:
			v = !val[e.A.ID]
		case KNext, KGlobally, KFinally:
			v = val[e.A.ID]
		case KUntil, KRelease:
			v = val[e.B.ID]
		case KWeakUntil:
			v = val[e.A.ID] || val[e.B.ID]
		case KStrongRelease:
			v = val[e.A.ID] && val[e.B.ID]
		}
		val[e.ID] = v
	}
	return val[s.Root.ID]
}

// FailingAtoms returns the atomic propositions (reach/wp/exits nodes) of
// the specification that do not hold in the given state, in DAG-ID order.
// Monitors use this to attribute a violation to concrete routers: the
// blast radius of a failed check is the Node fields of the failing atoms.
func (s *Spec) FailingAtoms(st fwd.State) []*Expr {
	var out []*Expr
	for _, e := range s.Exprs() {
		var v bool
		switch e.Kind {
		case KReach:
			v = st.Reach(e.Node)
		case KWp:
			v = st.Waypoint(e.Node, e.Via)
		case KExits:
			v = st.Egress(e.Node) == e.Via
		default:
			continue
		}
		if !v {
			out = append(out, e)
		}
	}
	return out
}

// FirstViolation returns the first trace position at which the root
// expression does not hold, or -1 if the whole trace satisfies it. Note
// that for temporal specifications, the spec holding "at position k" means
// the suffix starting at k satisfies it.
func (s *Spec) FirstViolation(trace []fwd.State) int {
	if len(trace) == 0 {
		return 0
	}
	all := s.EvalAll(trace)
	for k, ok := range all {
		if !ok {
			return k
		}
	}
	return -1
}
