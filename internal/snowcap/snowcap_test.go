package snowcap_test

import (
	"errors"
	"testing"
	"time"

	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/snowcap"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
	"chameleon/internal/traffic"
)

func reachSpec(g *topology.Graph) *spec.Spec {
	b := spec.NewBuilder()
	var es []*spec.Expr
	for _, n := range g.Internal() {
		es = append(es, b.Reach(n))
	}
	return spec.NewSpec(b, b.Globally(b.And(es...)))
}

func TestApplyReachesFinalState(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := snowcap.Apply(s.Net, s.Commands, []int{0}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range s.Graph.Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress == s.E1 {
			t.Errorf("node %d did not leave e1", n)
		}
	}
	if res.Duration() <= 0 {
		t.Error("no time elapsed")
	}
}

// TestSnowcapCausesTransientDrops reproduces Fig. 1's left side: applying
// the command directly causes transient black holes while Chameleon's
// plans (tested in internal/runtime) do not.
func TestSnowcapCausesTransientDrops(t *testing.T) {
	dropped := false
	// BGP message ordering depends on jitter; across a few seeds the
	// direct application must show at least one transient violation.
	for seed := uint64(1); seed <= 10 && !dropped; seed++ {
		s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		start := s.Net.Now()
		s.Net.RecordInitialState(s.Prefix)
		if _, err := snowcap.Apply(s.Net, s.Commands, []int{0}, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		tr := s.Net.Trace(s.Prefix)
		m := traffic.Measure(tr, s.Graph.Internal(), nil, traffic.Options{
			RatePerNode: 1500, Step: 0.01, From: start.Seconds(), To: s.Net.Now().Seconds(),
		})
		if m.TotalDropped > 0 {
			dropped = true
		}
	}
	if !dropped {
		t.Error("Snowcap-style direct application never dropped packets in 10 seeds — transient modeling broken?")
	}
}

func TestSynthesizeSingleCommand(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp := reachSpec(s.Graph)
	res, err := snowcap.Synthesize(s.Net, s.Prefix, s.Commands, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 1 || res.Order[0] != 0 {
		t.Errorf("Order = %v, want [0]", res.Order)
	}
	// Synthesize must not modify the input network.
	if best, _ := s.Net.Best(s.E2, s.Prefix); best.Egress != s.E1 {
		t.Error("Synthesize mutated the network")
	}
}

func TestSynthesizeOrdersTwoCommands(t *testing.T) {
	// Two commands: (1) deny e1's route, (2) deny e2's route. Applying
	// (2) then (1) leaves a steady state where everything still works
	// (e3 remains), and so does (1) then (2) — both orders valid. But a
	// pair where denying both e2 and e3 first would violate reachability
	// only in one order demonstrates ordering synthesis.
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp := reachSpec(s.Graph)
	// Command A: deny routes from ext2 at e2. Command B: same at e3.
	// Applying both kills e2 and e3; with e1 still up, reachability holds
	// in every steady state, so any order works.
	mk := func(e, ext topology.NodeID, name string) sim.Command {
		return sim.Command{
			Node: e, Description: name, DeniesOld: true,
			Apply: func(net *sim.Network) {
				net.UpdateRouteMap(e, ext, sim.In, func(rm *sim.RouteMap) {
					rm.Add(sim.Entry{Order: 7, Action: sim.Action{Deny: true}})
				})
			},
		}
	}
	cmds := []sim.Command{
		mk(s.E2, s.Ext[1], "deny at e2"),
		mk(s.E3, s.Ext[2], "deny at e3"),
	}
	res, err := snowcap.Synthesize(s.Net, s.Prefix, cmds, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 2 {
		t.Errorf("Order = %v, want 2 commands", res.Order)
	}
}

func TestSynthesizeDetectsImpossible(t *testing.T) {
	// Denying ALL three egresses can satisfy reachability in no final
	// state: synthesis must fail (the final steady state violates).
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp := reachSpec(s.Graph)
	var cmds []sim.Command
	for i, e := range []topology.NodeID{s.E1, s.E2, s.E3} {
		e, ext := e, s.Ext[i]
		cmds = append(cmds, sim.Command{
			Node: e, Description: "deny", DeniesOld: true,
			Apply: func(net *sim.Network) {
				net.UpdateRouteMap(e, ext, sim.In, func(rm *sim.RouteMap) {
					rm.Add(sim.Entry{Order: 7, Action: sim.Action{Deny: true}})
				})
			},
		})
	}
	if _, err := snowcap.Synthesize(s.Net, s.Prefix, cmds, sp); !errors.Is(err, snowcap.ErrNoOrdering) {
		t.Fatalf("err = %v, want ErrNoOrdering", err)
	}
}

func TestApplyRejectsUnconverged(t *testing.T) {
	s := scenario.RunningExample()
	// A message in flight: BGP has not settled.
	s.Net.InjectExternalRoute(s.Graph.MustNode("ext1"), sim.Announcement{Prefix: s.Prefix})
	if _, err := snowcap.Apply(s.Net, s.Commands, []int{0}, time.Second); err == nil {
		t.Fatal("expected error on unconverged network")
	}
}

func TestApplyBadOrderIndex(t *testing.T) {
	s := scenario.RunningExample()
	if _, err := snowcap.Apply(s.Net, s.Commands, []int{5}, time.Second); err == nil {
		t.Fatal("expected error on out-of-range order")
	}
}
