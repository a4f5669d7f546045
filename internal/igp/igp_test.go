package igp

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"chameleon/internal/topology"
)

// line builds a path graph a0-a1-...-a(n-1) with unit weights.
func line(n int) *topology.Graph {
	g := topology.New("line")
	for i := 0; i < n; i++ {
		g.AddRouter(string(rune('a' + i)))
	}
	for i := 0; i+1 < n; i++ {
		g.AddLink(topology.NodeID(i), topology.NodeID(i+1), 1)
	}
	return g
}

func TestLineDistances(t *testing.T) {
	s := Compute(line(5))
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := float64(j - i)
			if want < 0 {
				want = -want
			}
			if got := s.Dist(topology.NodeID(i), topology.NodeID(j)); got != want {
				t.Errorf("Dist(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

func TestNextHopAndPath(t *testing.T) {
	s := Compute(line(4))
	if nh := s.NextHop(0, 3); nh != 1 {
		t.Errorf("NextHop(0,3) = %d, want 1", nh)
	}
	if nh := s.NextHop(2, 2); nh != 2 {
		t.Errorf("NextHop(2,2) = %d, want 2", nh)
	}
	p := s.Path(0, 3)
	want := []topology.NodeID{0, 1, 2, 3}
	if len(p) != len(want) {
		t.Fatalf("Path(0,3) = %v", p)
	}
	for i := range p {
		if p[i] != want[i] {
			t.Fatalf("Path(0,3) = %v, want %v", p, want)
		}
	}
}

func TestShortestPathPicksLighterRoute(t *testing.T) {
	// Triangle where the direct edge is heavier than the detour.
	g := topology.New("tri")
	a, b, c := g.AddRouter("a"), g.AddRouter("b"), g.AddRouter("c")
	g.AddLink(a, c, 10)
	g.AddLink(a, b, 2)
	g.AddLink(b, c, 3)
	s := Compute(g)
	if got := s.Dist(a, c); got != 5 {
		t.Errorf("Dist(a,c) = %v, want 5", got)
	}
	if nh := s.NextHop(a, c); nh != b {
		t.Errorf("NextHop(a,c) = %d, want %d", nh, b)
	}
}

func TestEqualCostTieBreakDeterministic(t *testing.T) {
	// Two equal-cost paths a-b-d and a-c-d: the lower next-hop ID wins.
	g := topology.New("ecmp")
	a, b, c, d := g.AddRouter("a"), g.AddRouter("b"), g.AddRouter("c"), g.AddRouter("d")
	g.AddLink(a, b, 1)
	g.AddLink(a, c, 1)
	g.AddLink(b, d, 1)
	g.AddLink(c, d, 1)
	s := Compute(g)
	if nh := s.NextHop(a, d); nh != b {
		t.Errorf("NextHop(a,d) = %d, want %d (lowest-ID tie-break)", nh, b)
	}
	_ = c
}

func TestLinkFailureAndRestore(t *testing.T) {
	g := topology.New("ring")
	a, b, c := g.AddRouter("a"), g.AddRouter("b"), g.AddRouter("c")
	g.AddLink(a, b, 1)
	g.AddLink(b, c, 1)
	g.AddLink(a, c, 5)
	s := Compute(g)
	if got := s.Dist(a, c); got != 2 {
		t.Fatalf("Dist(a,c) = %v, want 2", got)
	}
	if !s.FailLink(a, b) {
		t.Fatal("FailLink(a,b) should succeed")
	}
	s.Recompute()
	if got := s.Dist(a, c); got != 5 {
		t.Errorf("after failure Dist(a,c) = %v, want 5", got)
	}
	if nh := s.NextHop(a, b); nh != c {
		t.Errorf("after failure NextHop(a,b) = %d, want %d", nh, c)
	}
	if !s.RestoreLink(a, b) {
		t.Fatal("RestoreLink should succeed")
	}
	s.Recompute()
	if got := s.Dist(a, c); got != 2 {
		t.Errorf("after restore Dist(a,c) = %v, want 2", got)
	}
	if s.FailedLinks() != 0 {
		t.Errorf("FailedLinks = %d, want 0", s.FailedLinks())
	}
}

// TestCloneSharesTablesUntilRecompute: a clone carries the failed links and
// answers like the original; failing, restoring and reconverging either
// side leaves the other's failed set, distances and next hops where they
// were.
func TestCloneSharesTablesUntilRecompute(t *testing.T) {
	g := topology.New("ring")
	a, b, c := g.AddRouter("a"), g.AddRouter("b"), g.AddRouter("c")
	g.AddLink(a, b, 1)
	g.AddLink(b, c, 1)
	g.AddLink(a, c, 5)
	orig := Compute(g)
	orig.FailLink(a, b)
	orig.Recompute()

	cl := orig.Clone()
	if cl.FailedLinks() != 1 || cl.Dist(a, c) != 5 || cl.NextHop(a, b) != c {
		t.Fatalf("clone: failed %d, Dist(a,c) %v, NextHop(a,b) %d; want 1, 5, %d",
			cl.FailedLinks(), cl.Dist(a, c), cl.NextHop(a, b), c)
	}
	cl.RestoreLink(a, b)
	cl.Recompute()
	if cl.FailedLinks() != 0 || cl.Dist(a, c) != 2 || cl.NextHop(a, b) != b {
		t.Errorf("restored clone: failed %d, Dist(a,c) %v, NextHop(a,b) %d",
			cl.FailedLinks(), cl.Dist(a, c), cl.NextHop(a, b))
	}
	if orig.FailedLinks() != 1 || orig.Dist(a, c) != 5 || orig.NextHop(a, b) != c {
		t.Errorf("Recompute on the clone moved the original: failed %d, Dist(a,c) %v, NextHop(a,b) %d",
			orig.FailedLinks(), orig.Dist(a, c), orig.NextHop(a, b))
	}
	orig.FailLink(b, c)
	orig.Recompute()
	if orig.Dist(a, b) < Infinity {
		t.Error("b must be cut off in the original")
	}
	if cl.FailedLinks() != 0 || cl.Dist(a, c) != 2 || cl.Dist(a, b) >= Infinity {
		t.Errorf("Recompute on the original moved the clone: failed %d, Dist(a,c) %v",
			cl.FailedLinks(), cl.Dist(a, c))
	}
}

func TestFailUnknownLink(t *testing.T) {
	s := Compute(line(3))
	if s.FailLink(0, 2) {
		t.Error("FailLink on non-adjacent nodes must return false")
	}
}

func TestDisconnection(t *testing.T) {
	s := Compute(line(3))
	s.FailLink(0, 1)
	s.Recompute()
	if s.Dist(0, 2) < Infinity {
		t.Error("0 must be unreachable from 2 after cut")
	}
	if s.Dist(0, 2) != Infinity {
		t.Error("Dist should be Infinity when disconnected")
	}
	if s.Path(0, 2) != nil {
		t.Error("Path should be nil when disconnected")
	}
	if nh := s.NextHop(0, 2); nh != topology.None {
		t.Errorf("NextHop = %d, want None", nh)
	}
}

// TestTriangleInequality is a property test: Dijkstra distances satisfy
// d(a,c) <= d(a,b) + d(b,c) on random connected graphs.
func TestTriangleInequality(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%20) + 3
		g := topology.Synthetic("prop", n, seed)
		s := Compute(g)
		rng := rand.New(rand.NewPCG(seed, 1))
		for k := 0; k < 30; k++ {
			a := topology.NodeID(rng.IntN(n))
			b := topology.NodeID(rng.IntN(n))
			c := topology.NodeID(rng.IntN(n))
			if s.Dist(a, c) > s.Dist(a, b)+s.Dist(b, c)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPathConsistency: walking NextHop from a towards b yields a path whose
// length matches Dist and which ends at b.
func TestPathConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%25) + 2
		g := topology.Synthetic("prop", n, seed)
		s := Compute(g)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				p := s.Path(topology.NodeID(a), topology.NodeID(b))
				if p == nil {
					return false // synthetic graphs are connected
				}
				var total float64
				for i := 0; i+1 < len(p); i++ {
					l, ok := g.LinkBetween(p[i], p[i+1])
					if !ok {
						return false
					}
					total += l.Weight
				}
				if total != s.Dist(topology.NodeID(a), topology.NodeID(b)) {
					return false
				}
				if p[len(p)-1] != topology.NodeID(b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
