package analyzer_test

import (
	"context"
	"strings"
	"testing"

	"chameleon/internal/analyzer"
	"chameleon/internal/bgp"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

func analyzeRunningExample(t *testing.T) (*scenario.Scenario, *analyzer.Analysis) {
	t.Helper()
	s := scenario.RunningExample()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func TestAnalyzeRunningExample(t *testing.T) {
	s, a := analyzeRunningExample(t)
	n1, n6 := s.Graph.MustNode("n1"), s.Graph.MustNode("n6")
	// Every internal node switches announcement from ρ1 (egress n1) to ρ6
	// (egress n6).
	if len(a.Switching) != 6 {
		t.Errorf("switching = %v, want all 6", a.Switching)
	}
	for _, n := range s.Graph.Internal() {
		if a.POld[n].Egress != n1 {
			t.Errorf("node %d POld egress %d, want n1", n, a.POld[n].Egress)
		}
		if a.PNew[n].Egress != n6 {
			t.Errorf("node %d PNew egress %d, want n6", n, a.PNew[n].Egress)
		}
	}
	// The egresses learn over eBGP.
	if !a.ExtProviderOld[n1] {
		t.Error("n1's old route must come from its external peer")
	}
	if !a.ExtProviderNew[n6] {
		t.Error("n6's new route must come from its external peer")
	}
}

func TestProviderSetsCaptureRedundancy(t *testing.T) {
	s, a := analyzeRunningExample(t)
	// n4 (a client of both reflectors) must have two old-route providers
	// — the Fig. 5 situation.
	n4 := s.Graph.MustNode("n4")
	if len(a.DOld[n4]) != 2 {
		t.Errorf("DOld(n4) = %v, want both reflectors", a.DOld[n4])
	}
	n2, n5 := s.Graph.MustNode("n2"), s.Graph.MustNode("n5")
	seen := map[topology.NodeID]bool{}
	for _, m := range a.DOld[n4] {
		seen[m] = true
	}
	if !seen[n2] || !seen[n5] {
		t.Errorf("DOld(n4) = %v, want {n2, n5}", a.DOld[n4])
	}
}

func TestChangesNextHopAndNnh(t *testing.T) {
	_, a := analyzeRunningExample(t)
	nnh := a.NodesChangingNextHop()
	if len(nnh) == 0 {
		t.Fatal("no node changes its next hop")
	}
	for _, n := range nnh {
		if !a.ChangesNextHop(n) {
			t.Errorf("inconsistent ChangesNextHop for %d", n)
		}
	}
}

func TestReconfigurationComplexity(t *testing.T) {
	_, a := analyzeRunningExample(t)
	cr := a.ReconfigurationComplexity()
	nnh := len(a.NodesChangingNextHop())
	// Cr counts pairs: at least each changing node reaches itself... it
	// reaches nodes along its forwarding paths; bounds: nnh ≤ Cr ≤ nnh².
	if cr < nnh || cr > nnh*nnh {
		t.Errorf("Cr = %d outside [%d, %d]", cr, nnh, nnh*nnh)
	}
}

func TestCrIsZeroForNoop(t *testing.T) {
	s := scenario.RunningExample()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.Net.Clone(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if cr := a.ReconfigurationComplexity(); cr != 0 {
		t.Errorf("no-op Cr = %d, want 0", cr)
	}
	if len(a.Switching) != 0 {
		t.Errorf("no-op switching = %v", a.Switching)
	}
}

func TestSimpleCyclesInUnionGraph(t *testing.T) {
	_, a := analyzeRunningExample(t)
	cycles := a.SimpleCycles(0)
	// The old state forwards left, the new right: their union on this
	// topology contains at least one potential 2-cycle.
	if len(cycles) == 0 {
		t.Error("expected at least one simple cycle in G_nh")
	}
	for _, c := range cycles {
		if len(c) < 2 {
			t.Errorf("degenerate cycle %v", c)
		}
	}
	if limited := a.SimpleCycles(1); len(limited) > 1 {
		t.Errorf("limit ignored: %d cycles", len(limited))
	}
}

func TestSessionExists(t *testing.T) {
	s, a := analyzeRunningExample(t)
	n1, n2, n3 := s.Graph.MustNode("n1"), s.Graph.MustNode("n2"), s.Graph.MustNode("n3")
	if !a.SessionExists(n1, n2) || !a.SessionExists(n2, n1) {
		t.Error("client-reflector session not recorded")
	}
	if a.SessionExists(n1, n3) {
		t.Error("phantom session n1-n3")
	}
}

func TestAnalyzeRejectsUnconverged(t *testing.T) {
	s := scenario.RunningExample()
	// A message in flight: BGP has not settled.
	s.Net.InjectExternalRoute(s.Graph.MustNode("ext1"), sim.Announcement{Prefix: s.Prefix})
	if _, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.Net, s.Prefix); err == nil {
		t.Fatal("unconverged network accepted")
	}
}

func TestAnalyzeRejectsMissingRoutes(t *testing.T) {
	s := scenario.RunningExample()
	// Final state with NO routes at all: withdraw both.
	final := s.Net.Clone()
	final.WithdrawExternalRoute(s.Graph.MustNode("ext1"), s.Prefix)
	final.WithdrawExternalRoute(s.Graph.MustNode("ext6"), s.Prefix)
	final.Run()
	_, err := analyzer.AnalyzeCtx(context.Background(), s.Net, final, s.Prefix)
	if err == nil || !strings.Contains(err.Error(), "lacks a route") {
		t.Fatalf("err = %v, want missing-route error", err)
	}
}

func TestCheckConsistentDetectsViolation(t *testing.T) {
	s := scenario.RunningExample()
	if err := analyzer.CheckConsistent(s.Net, s.Prefix); err != nil {
		t.Fatalf("converged state reported inconsistent: %v", err)
	}
}

func TestEquivalenceClasses(t *testing.T) {
	// Two prefixes with identical announcements collapse into one class;
	// a third with a different egress preference stays separate.
	s := scenario.RunningExample()
	ext1, ext6 := s.Graph.MustNode("ext1"), s.Graph.MustNode("ext6")
	net := s.Net
	net.InjectExternalRoute(ext1, sim.Announcement{Prefix: 1, ASPathLen: 2})
	net.InjectExternalRoute(ext6, sim.Announcement{Prefix: 1, ASPathLen: 2})
	// Prefix 2 only exists at ext6.
	net.InjectExternalRoute(ext6, sim.Announcement{Prefix: 2, ASPathLen: 2})
	net.Run()
	// LP 200 applies only to prefix... the n1 ingress map matches any
	// prefix, so prefixes 0 and 1 behave identically; 2 differs.
	final := net.Clone()
	final.Run()
	classes := analyzer.Classes(net, final, []bgp.Prefix{0, 1, 2})
	if len(classes) != 2 {
		t.Fatalf("classes = %v, want 2", classes)
	}
	if m := classes[0].Members; len(m) != 2 || m[0] != 0 || m[1] != 1 {
		t.Errorf("first class = %v, want [0 1]", m)
	}
}
