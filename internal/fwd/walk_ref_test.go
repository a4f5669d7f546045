package fwd

import (
	"math/rand/v2"
	"slices"
	"testing"

	"chameleon/internal/topology"
)

// refPath is the map-based walk Path used before the bounded walks: the
// independent oracle Reach, Waypoint, Egress and Path are checked against.
func refPath(s State, n topology.NodeID) ([]topology.NodeID, topology.NodeID) {
	var path []topology.NodeID
	seen := make(map[topology.NodeID]bool)
	cur := n
	for {
		if seen[cur] {
			return path, Drop // forwarding loop
		}
		seen[cur] = true
		path = append(path, cur)
		nh := s[cur]
		switch nh {
		case Drop, External:
			return path, nh
		}
		cur = nh
	}
}

// checkWalks compares every walk over s, and the loop classifier, with
// their definitions in terms of the reference path, for every start node
// and every waypoint.
func checkWalks(t *testing.T, s State) {
	t.Helper()
	var wantLoop []topology.NodeID
	for i := range s {
		n := topology.NodeID(i)
		wantPath, wantTerm := refPath(s, n)
		if wantTerm == Drop && s[wantPath[len(wantPath)-1]] != Drop {
			wantLoop = append(wantLoop, n) // ended on a revisit, not on ∅
		}
		path, term := s.Path(n)
		if term != wantTerm || !slices.Equal(path, wantPath) {
			t.Fatalf("%v: Path(%d) = %v, %d; want %v, %d", s, n, path, term, wantPath, wantTerm)
		}
		exits := wantTerm == External
		if got := s.Reach(n); got != exits {
			t.Fatalf("%v: Reach(%d) = %v, want %v", s, n, got, exits)
		}
		wantEgress := topology.None
		if exits {
			wantEgress = wantPath[len(wantPath)-1]
		}
		if got := s.Egress(n); got != wantEgress {
			t.Fatalf("%v: Egress(%d) = %d, want %d", s, n, got, wantEgress)
		}
		for j := range s {
			w := topology.NodeID(j)
			want := exits && slices.Contains(wantPath, w)
			if got := s.Waypoint(n, w); got != want {
				t.Fatalf("%v: Waypoint(%d, %d) = %v, want %v", s, n, w, got, want)
			}
		}
	}
	if got := s.LoopNodes(); !slices.Equal(got, wantLoop) || s.HasLoop() != (len(wantLoop) > 0) {
		t.Fatalf("%v: LoopNodes = %v, HasLoop = %v; want %v", s, got, s.HasLoop(), wantLoop)
	}
}

// stateFromBytes decodes a byte string into a state of 1–64 nodes, one byte
// per node: modulo n+2, a value below n is that next hop, n is Drop and n+1
// is External.
func stateFromBytes(data []byte) State {
	n := min(len(data), 64)
	s := make(State, n)
	for i := range s {
		switch v := int(data[i]) % (n + 2); v {
		case n:
			s[i] = Drop
		case n + 1:
			s[i] = External
		default:
			s[i] = topology.NodeID(v)
		}
	}
	return s
}

func TestWalksMatchReference(t *testing.T) {
	shapes := map[string]State{
		"self-loop":              {0, 0, External},
		"two-cycle":              {1, 0, 1, External},
		"long-cycle":             {1, 2, 3, 4, 5, 6, 7, 0},
		"chains-feeding-a-cycle": {1, 2, 3, 4, 2, 0, 5, Drop},
		"all-drop":               {Drop, Drop, Drop},
		"several-exits":          {External, 0, External, 2, 3, External, Drop},
		"exit-behind-waypoint":   {1, 2, External, 2, External},
		"hamiltonian-chain":      {1, 2, 3, 4, External},
		"single-exit":            {External},
		"single-self-loop":       {0},
	}
	for name, s := range shapes {
		t.Run(name, func(t *testing.T) { checkWalks(t, s) })
	}

	rng := rand.New(rand.NewPCG(7, 15))
	for i := 0; i < 3000; i++ {
		s := make(State, 1+rng.IntN(64))
		exitPct, dropPct := rng.IntN(30), rng.IntN(20)
		for j := range s {
			switch p := rng.IntN(100); {
			case p < exitPct:
				s[j] = External
			case p < exitPct+dropPct:
				s[j] = Drop
			default:
				s[j] = topology.NodeID(rng.IntN(len(s)))
			}
		}
		checkWalks(t, s)
	}
	for i := 0; i < 1000; i++ {
		data := make([]byte, 1+rng.IntN(80))
		for j := range data {
			data[j] = byte(rng.UintN(256))
		}
		checkWalks(t, stateFromBytes(data))
	}
}

// FuzzStateWalks runs checkWalks on arbitrary states. Seed corpus:
// testdata/fuzz/FuzzStateWalks.
func FuzzStateWalks(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkWalks(t, stateFromBytes(data)) })
}

// TestWalksDoNotAllocate guards the point of the bounded walks: the monitor
// and the spec evaluator ask these per node per snapshot.
func TestWalksDoNotAllocate(t *testing.T) {
	s := make(State, 64)
	for i := range s {
		s[i] = topology.NodeID(i + 1)
	}
	s[63] = External
	loop := State{1, 2, 0}
	var sink bool
	allocs := testing.AllocsPerRun(100, func() {
		sink = s.Reach(0) || s.Waypoint(0, 40) || s.Egress(0) == 63 ||
			loop.Reach(0) || loop.Waypoint(0, 2) || loop.Egress(0) == 0
	})
	if allocs != 0 || !sink {
		t.Fatalf("Reach/Waypoint/Egress: %v allocs per run (want 0), result %v", allocs, sink)
	}
}
