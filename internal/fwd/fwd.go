// Package fwd represents per-destination forwarding states: the mapping
// nh : N → N ∪ {d, ∅} of §3. A State is shared between the simulator (which
// produces them), the specification evaluator (which checks LTL properties
// over sequences of them), and the traffic measurement harness.
package fwd

import (
	"fmt"
	"slices"
	"strings"

	"chameleon/internal/topology"
)

// Special next-hop values. Regular values are internal router IDs.
const (
	// Drop (∅): the node has no route and drops packets.
	Drop topology.NodeID = -1
	// External (d): the node is the egress and hands packets to the
	// external destination.
	External topology.NodeID = -2
)

// State is a forwarding state for a single destination: State[n] is the
// next hop of node n. Only internal routers have meaningful entries;
// external nodes carry Drop.
type State []topology.NodeID

// NewState returns a state of size n where every node drops.
func NewState(n int) State {
	s := make(State, n)
	for i := range s {
		s[i] = Drop
	}
	return s
}

// Clone returns a copy of s.
func (s State) Clone() State { return slices.Clone(s) }

// Equal reports whether two states are identical.
func (s State) Equal(o State) bool { return slices.Equal(s, o) }

// Path walks the forwarding state from n. It returns the traversed nodes
// (starting with n) and the terminal value: External if the packet exits,
// Drop if it is dropped or enters a forwarding loop (found by scanning the
// path so far — per-snapshot checks use the allocation-free walks below).
func (s State) Path(n topology.NodeID) ([]topology.NodeID, topology.NodeID) {
	var path []topology.NodeID
	for cur := n; !slices.Contains(path, cur); {
		path = append(path, cur)
		nh := s[cur]
		if nh == Drop || nh == External {
			return path, nh
		}
		cur = nh
	}
	return path, Drop // forwarding loop
}

// walk follows the forwarding chain from n. It returns the node at which
// the packet exits (topology.None if it is dropped or loops) and whether w
// was on the way. The state is a functional graph, so a walk that has not
// terminated after len(s) hops has revisited a node and therefore loops.
// Allocation-free: monitor and spec call it per node per snapshot.
func (s State) walk(n, w topology.NodeID) (egress topology.NodeID, via bool) {
	cur := n
	for range s {
		via = via || cur == w
		switch nh := s[cur]; nh {
		case External:
			return cur, via
		case Drop:
			return topology.None, via
		default:
			cur = nh
		}
	}
	return topology.None, via
}

// Reach reports whether packets from n reach the external destination.
func (s State) Reach(n topology.NodeID) bool {
	return s.Egress(n) != topology.None
}

// Waypoint reports whether packets from n traverse w before exiting (a node
// trivially waypoints through itself). Dropped or looping traffic does not
// satisfy the waypoint.
func (s State) Waypoint(n, w topology.NodeID) bool {
	egress, via := s.walk(n, w)
	return via && egress != topology.None
}

// Loop-classification colors. The forwarding state is a functional graph
// (each node has at most one successor), so a single three-color DFS shared
// across all start nodes classifies every node in O(|N|): grey marks the
// chain currently being walked, and the two final colors record whether a
// node's traffic eventually enters a cycle or terminates (exit or drop).
const (
	loopWhite  uint8 = iota // unvisited
	loopGrey                // on the chain currently being walked
	loopCycles              // resolved: path enters a forwarding loop
	loopTerm                // resolved: path terminates (External or Drop)
)

// classifyLoops walks every forwarding chain once and returns, per node,
// whether its path enters a forwarding loop. Each node is greyed and
// resolved exactly once, so the whole-state check is linear — the online
// monitor loop-checks every transient snapshot, which made the previous
// walk-per-router quadratic version a hot path. The colors are its only
// allocation: the chain just walked is the grey run from its start node.
func (s State) classifyLoops() []uint8 {
	color := make([]uint8, len(s))
	for n := range s {
		if color[n] != loopWhite {
			continue
		}
		cur := topology.NodeID(n)
		verdict := loopTerm
		for {
			nh := s[cur]
			if nh == Drop || nh == External {
				break
			}
			color[cur] = loopGrey
			switch color[nh] {
			case loopGrey: // closed a cycle within this chain
				verdict = loopCycles
			case loopCycles:
				verdict = loopCycles
			case loopTerm:
				verdict = loopTerm
			case loopWhite:
				cur = nh
				continue
			}
			break
		}
		if color[cur] == loopWhite { // chain ended on a terminal node
			color[cur] = loopTerm
		}
		for m := topology.NodeID(n); color[m] == loopGrey; m = s[m] {
			color[m] = verdict
		}
	}
	return color
}

// HasLoop reports whether any node's forwarding path loops. Single-pass:
// one shared three-color DFS over the functional graph, O(|N|) per state.
func (s State) HasLoop() bool {
	for _, c := range s.classifyLoops() {
		if c == loopCycles {
			return true
		}
	}
	return false
}

// LoopNodes returns every node whose forwarding path enters a loop (cycle
// members and the chains feeding them), in node-ID order — the blast
// radius of a loop-freedom violation.
func (s State) LoopNodes() []topology.NodeID {
	var out []topology.NodeID
	for n, c := range s.classifyLoops() {
		if c == loopCycles {
			out = append(out, topology.NodeID(n))
		}
	}
	return out
}

// Egress returns the node at which traffic from n exits, or topology.None
// if it never exits.
func (s State) Egress(n topology.NodeID) topology.NodeID {
	egress, _ := s.walk(n, topology.None)
	return egress
}

// String renders the state compactly, e.g. "0→1 1→d 2→∅".
func (s State) String() string {
	var b strings.Builder
	for n, nh := range s {
		if n > 0 {
			b.WriteByte(' ')
		}
		switch nh {
		case Drop:
			fmt.Fprintf(&b, "%d→∅", n)
		case External:
			fmt.Fprintf(&b, "%d→d", n)
		default:
			fmt.Fprintf(&b, "%d→%d", n, int(nh))
		}
	}
	return b.String()
}

// Trace is a timestamped sequence of forwarding states for one destination.
// Consecutive equal states may share one backing array (Append stores a
// repeat as the previous entry), so the states of a trace are read-only.
type Trace struct {
	// Times[i] is when States[i] became active; States[i] remains active
	// until Times[i+1] (or forever, for the last state).
	Times  []float64 // seconds
	States []State
}

// At returns the state active at time t (seconds). The first state is
// assumed active from -inf.
func (tr *Trace) At(t float64) State {
	if len(tr.States) == 0 {
		return nil
	}
	idx := 0
	for i, ti := range tr.Times {
		if ti <= t {
			idx = i
		} else {
			break
		}
	}
	return tr.States[idx]
}

// Since returns the part of the trace recorded at or after t seconds (a
// state recorded within a nanosecond before t counts as at t), sharing the
// trace's storage: the window of an execution that started at t.
func (tr *Trace) Since(t float64) Trace {
	i := 0
	for i < len(tr.Times) && tr.Times[i] < t-1e-9 {
		i++
	}
	return Trace{Times: tr.Times[i:], States: tr.States[i:]}
}

// Append adds a state snapshot taken at time t. The trace stores a copy of
// s, or, when s equals the last stored state, that state itself: a repeat
// costs no allocation and shares the previous entry's backing.
func (tr *Trace) Append(t float64, s State) {
	tr.Times = append(tr.Times, t)
	if k := len(tr.States); k > 0 && s.Equal(tr.States[k-1]) {
		s = tr.States[k-1]
	} else {
		s = s.Clone()
	}
	tr.States = append(tr.States, s)
}

// Compact drops consecutive duplicate states, keeping the earliest time of
// each run.
func (tr *Trace) Compact() {
	if len(tr.States) == 0 {
		return
	}
	outT := tr.Times[:1]
	outS := tr.States[:1]
	for i := 1; i < len(tr.States); i++ {
		if !tr.States[i].Equal(outS[len(outS)-1]) {
			outT = append(outT, tr.Times[i])
			outS = append(outS, tr.States[i])
		}
	}
	tr.Times, tr.States = outT, outS
}
