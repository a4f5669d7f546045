package fwd

import (
	"slices"
	"testing"

	"chameleon/internal/topology"
)

func TestPathReachAndEgress(t *testing.T) {
	// 0 -> 1 -> 2 -> d, 3 -> drop
	s := State{1, 2, External, Drop}
	path, term := s.Path(0)
	if term != External || len(path) != 3 {
		t.Fatalf("Path(0) = %v, %v", path, term)
	}
	if !s.Reach(0) || !s.Reach(2) {
		t.Error("0 and 2 must reach d")
	}
	if s.Reach(3) {
		t.Error("3 must not reach d")
	}
	if e := s.Egress(0); e != 2 {
		t.Errorf("Egress(0) = %d, want 2", e)
	}
	if e := s.Egress(3); e != topology.None {
		t.Errorf("Egress(3) = %d, want None", e)
	}
}

func TestWaypoint(t *testing.T) {
	s := State{1, 2, External, External}
	if !s.Waypoint(0, 1) {
		t.Error("0 traverses 1")
	}
	if !s.Waypoint(0, 0) {
		t.Error("a node waypoints through itself")
	}
	if s.Waypoint(3, 1) {
		t.Error("3 exits directly, does not traverse 1")
	}
	dropping := State{Drop}
	if dropping.Waypoint(0, 0) {
		t.Error("dropped traffic never satisfies a waypoint")
	}
}

func TestLoopDetection(t *testing.T) {
	s := State{1, 0, External}
	if !s.HasLoop() {
		t.Error("0<->1 is a loop")
	}
	if s.Reach(0) {
		t.Error("looping traffic does not reach d")
	}
	ok := State{1, External, Drop}
	if ok.HasLoop() {
		t.Error("no loop expected")
	}
}

func TestCloneAndEqual(t *testing.T) {
	s := State{1, External}
	c := s.Clone()
	if !s.Equal(c) {
		t.Error("clone must equal source")
	}
	c[0] = Drop
	if s.Equal(c) {
		t.Error("mutating clone must not affect source")
	}
	if s[0] != 1 {
		t.Error("source mutated")
	}
}

func TestNewState(t *testing.T) {
	s := NewState(3)
	for i, nh := range s {
		if nh != Drop {
			t.Errorf("NewState[%d] = %d, want Drop", i, nh)
		}
	}
}

func TestTraceAtAndCompact(t *testing.T) {
	var tr Trace
	s1 := State{External, Drop}
	s2 := State{External, 0}
	tr.Append(0, s1)
	tr.Append(1, s1) // duplicate
	tr.Append(2, s2)
	tr.Compact()
	if len(tr.States) != 2 {
		t.Fatalf("Compact left %d states, want 2", len(tr.States))
	}
	if !tr.At(0.5).Equal(s1) {
		t.Error("At(0.5) should be s1")
	}
	if !tr.At(2.5).Equal(s2) {
		t.Error("At(2.5) should be s2")
	}
	if !tr.At(-1).Equal(s1) {
		t.Error("At before first time returns first state")
	}
}

func TestTraceAtEmpty(t *testing.T) {
	var tr Trace
	if tr.At(0) != nil {
		t.Error("empty trace At should be nil")
	}
	tr.Compact() // must not panic
}

func TestLoopClassification(t *testing.T) {
	cases := []struct {
		name string
		s    State
		want []topology.NodeID // LoopNodes
	}{
		{"self-loop with feeder chain", State{1, 2, 2, External, Drop}, []topology.NodeID{0, 1, 2}},
		{"two-cycle with feeders both sides", State{1, 2, 1, 2, External}, []topology.NodeID{0, 1, 2, 3}},
		{"chain into already-resolved cycle", State{1, 0, 0}, []topology.NodeID{0, 1, 2}},
		{"chain into already-resolved terminator", State{External, 0, 0}, nil},
		{"all drop", State{Drop, Drop}, nil},
		{"long clean chain", State{1, 2, 3, External}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.s.LoopNodes(); !slices.Equal(got, tc.want) {
				t.Errorf("LoopNodes = %v, want %v", got, tc.want)
			}
			if got, want := tc.s.HasLoop(), len(tc.want) > 0; got != want {
				t.Errorf("HasLoop = %v, want %v", got, want)
			}
			// The single-pass classification must agree with the
			// walk-per-router reference (Path reports Drop for loops).
			for n := range tc.s {
				_, term := tc.s.Path(topology.NodeID(n))
				pathLoops := term == Drop && tc.s[n] != Drop && !isDropChain(tc.s, topology.NodeID(n))
				inLoopNodes := slices.Contains(tc.s.LoopNodes(), topology.NodeID(n))
				if pathLoops != inLoopNodes {
					t.Errorf("node %d: Path says loop=%v, LoopNodes says %v", n, pathLoops, inLoopNodes)
				}
			}
		})
	}
}

// isDropChain reports whether n's path ends at an explicit Drop (as opposed
// to looping forever); helper for cross-checking the loop classifier.
func isDropChain(s State, n topology.NodeID) bool {
	seen := make(map[topology.NodeID]bool)
	for !seen[n] {
		seen[n] = true
		switch s[n] {
		case Drop:
			return true
		case External:
			return false
		}
		n = s[n]
	}
	return false // revisited a node: loop
}

func TestTraceAtExactSampleTime(t *testing.T) {
	var tr Trace
	s1 := State{External}
	s2 := State{Drop}
	tr.Append(1, s1)
	tr.Append(2, s2)
	if !tr.At(1).Equal(s1) {
		t.Error("At(1) must return the state sampled exactly at t=1")
	}
	if !tr.At(2).Equal(s2) {
		t.Error("a new state is active exactly at its sample time")
	}
	if !tr.At(1.999).Equal(s1) {
		t.Error("the previous state holds until the next sample time")
	}
}

func TestTraceCompactIdempotent(t *testing.T) {
	var tr Trace
	tr.Append(0, State{External, Drop})
	tr.Append(1, State{External, Drop})
	tr.Append(2, State{External, 0})
	tr.Append(3, State{External, 0})
	tr.Compact()
	if len(tr.States) != 2 || tr.Times[0] != 0 || tr.Times[1] != 2 {
		t.Fatalf("after Compact: times %v (%d states), want [0 2]", tr.Times, len(tr.States))
	}
	times := slices.Clone(tr.Times)
	tr.Compact()
	if !slices.Equal(tr.Times, times) || len(tr.States) != 2 {
		t.Errorf("Compact not idempotent: times %v (%d states)", tr.Times, len(tr.States))
	}
}

func TestTraceAppendClones(t *testing.T) {
	var tr Trace
	s := State{External}
	tr.Append(0, s)
	s[0] = Drop
	if !tr.At(0).Equal(State{External}) {
		t.Error("Append must store a copy, not alias the caller's state")
	}
}

// TestTraceAppendSharesRepeats: a state equal to the last stored one is
// stored as that entry, sharing its backing; a changed one is copied.
func TestTraceAppendSharesRepeats(t *testing.T) {
	var tr Trace
	s := State{External, 0}
	tr.Append(0, s)
	tr.Append(1, s)
	s[1] = Drop
	tr.Append(2, s)
	tr.Append(3, s)
	if &tr.States[0][0] != &tr.States[1][0] {
		t.Error("a repeated state was copied, want the previous entry's backing")
	}
	if &tr.States[1][0] == &tr.States[2][0] || &tr.States[2][0] != &tr.States[3][0] {
		t.Error("a changed state must be copied once and its repeat shared")
	}
	if &tr.States[3][0] == &s[0] || !tr.States[1].Equal(State{External, 0}) {
		t.Error("Append must store a copy, not alias the caller's state")
	}
}

// BenchmarkHasLoop exercises the single-pass classifier on the two extreme
// shapes: one maximal chain (worst case for the old walk-per-router
// version, which was quadratic here) and a fully fragmented state.
func BenchmarkHasLoop(b *testing.B) {
	const n = 1024
	chain := make(State, n)
	for i := 0; i < n-1; i++ {
		chain[i] = topology.NodeID(i + 1)
	}
	chain[n-1] = External
	cycle := chain.Clone()
	cycle[n-1] = 0 // close the chain into one big cycle
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if chain.HasLoop() {
				b.Fatal("unexpected loop")
			}
		}
	})
	b.Run("cycle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !cycle.HasLoop() {
				b.Fatal("loop not detected")
			}
		}
	})
}

func TestStateString(t *testing.T) {
	s := State{1, Drop, External}
	got := s.String()
	want := "0→1 1→∅ 2→d"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
