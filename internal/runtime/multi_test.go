package runtime_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"chameleon/internal/analyzer"
	"chameleon/internal/bgp"
	"chameleon/internal/eval"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
)

// twoPrefixExample builds the Fig. 3 network with a second, identically
// configured prefix so the reconfiguration affects two destinations.
func twoPrefixExample(t *testing.T) *scenario.Scenario {
	t.Helper()
	s := scenario.RunningExample()
	ext1 := s.Graph.MustNode("ext1")
	ext6 := s.Graph.MustNode("ext6")
	s.Net.InjectExternalRoute(ext1, sim.Announcement{Prefix: 1, ASPathLen: 2})
	s.Net.InjectExternalRoute(ext6, sim.Announcement{Prefix: 1, ASPathLen: 2})
	s.Net.Run()
	return s
}

func planFor(t *testing.T, s *scenario.Scenario, prefix bgp.Prefix) *plan.Plan {
	t.Helper()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), prefix)
	if err != nil {
		t.Fatal(err)
	}
	sp := eval.ReachabilitySpec(s.Graph)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(a, sched, s.Commands)
	if err != nil {
		t.Fatal(err)
	}
	p.Prefix = prefix
	return p
}

func TestExecuteMultiTwoPrefixes(t *testing.T) {
	s := twoPrefixExample(t)
	p0 := planFor(t, s, 0)
	p1 := planFor(t, s, 1)
	mp, err := plan.Align([]*plan.Plan{p0, p1}, s.Commands)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	res, err := ex.ExecuteCtx(obs.WithRecorder(context.Background(), rec), mp)
	if err != nil {
		t.Fatal(err)
	}
	// Every phase is a span under "execute", named per destination.
	spans := rec.SpanNames()[1:]
	for _, name := range []string{"setup", "d0 round 1", "d1 round 4", "cleanup"} {
		if !slices.Contains(spans, name) {
			t.Errorf("phase %q has no span: %v", name, spans)
		}
	}
	n6 := s.Graph.MustNode("n6")
	for _, prefix := range []bgp.Prefix{0, 1} {
		for _, n := range s.Graph.Internal() {
			best, ok := s.Net.Best(n, prefix)
			if !ok || best.Egress != n6 {
				t.Errorf("prefix %d node %d ended on %v, want n6", prefix, n, best.Egress)
			}
		}
		// Both traces must be violation-free during execution.
		tr := s.Net.Trace(prefix)
		tr.Compact()
		start := res.Start.Seconds()
		for i, ts := range tr.Times {
			if ts < start {
				continue
			}
			for _, n := range s.Graph.Internal() {
				if !tr.States[i].Reach(n) {
					t.Errorf("prefix %d state %d: node %d dropped", prefix, i, n)
				}
			}
		}
	}
	if res.Duration() <= 0 {
		t.Error("no simulated time elapsed")
	}
}

func TestAlignConsistentOrders(t *testing.T) {
	mk := func(slots map[int]int) *plan.Plan {
		return &plan.Plan{R: 5, OriginalSlots: slots}
	}
	cmds := make([]sim.Command, 2)
	mp, err := plan.Align([]*plan.Plan{
		mk(map[int]int{0: 1, 1: 3}),
		mk(map[int]int{0: 2, 1: 4}),
	}, cmds)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp.Order) != 2 || mp.Order[0] != 0 || mp.Order[1] != 1 {
		t.Errorf("Order = %v, want [0 1]", mp.Order)
	}
}

func TestAlignDetectsConflict(t *testing.T) {
	mk := func(slots map[int]int) *plan.Plan {
		return &plan.Plan{R: 5, OriginalSlots: slots}
	}
	cmds := make([]sim.Command, 2)
	_, err := plan.Align([]*plan.Plan{
		mk(map[int]int{0: 1, 1: 3}), // d1 wants c0 before c1
		mk(map[int]int{0: 4, 1: 2}), // d2 wants c1 before c0
	}, cmds)
	if !errors.Is(err, plan.ErrNeedsSplit) {
		t.Fatalf("err = %v, want ErrNeedsSplit", err)
	}
}

func TestAlignEmpty(t *testing.T) {
	if _, err := plan.Align(nil, nil); err == nil {
		t.Fatal("empty alignment accepted")
	}
}

// TestExecuteSplit is the §5 fallback for conflicting command orders, which
// needs nothing from the executor but Execute: the reconfiguration is split
// into per-command steps and each gets its own full pipeline, planned on the
// then-current network.
func TestExecuteSplit(t *testing.T) {
	// Two commands that must each get their own mini-reconfiguration:
	// deny e1's route, then deny e2's route (e3 remains).
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cmds := []sim.Command{
		{
			Node: s.E1, Description: "deny at e1", DeniesOld: true,
			Apply: func(net *sim.Network) {
				net.UpdateRouteMap(s.E1, s.Ext[0], sim.In, func(rm *sim.RouteMap) {
					rm.Add(sim.Entry{Order: 5, Action: sim.Action{Deny: true}})
				})
			},
		},
		{
			Node: s.E2, Description: "deny at e2", DeniesOld: true,
			Apply: func(net *sim.Network) {
				net.UpdateRouteMap(s.E2, s.Ext[1], sim.In, func(rm *sim.RouteMap) {
					rm.Add(sim.Entry{Order: 5, Action: sim.Action{Deny: true}})
				})
			},
		},
	}
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 7})
	sp := eval.ReachabilitySpec(s.Graph)
	start := s.Net.Now()
	for _, cmd := range cmds {
		// Plan the single command against the *current* network state.
		final := s.Net.Clone()
		cmd.Apply(final)
		final.Run()
		a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, final, s.Prefix)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Compile(a, sched, []sim.Command{cmd})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ex.ExecuteCtx(context.Background(), plan.Single(p)); err != nil {
			t.Fatalf("%s: %v", cmd.Description, err)
		}
	}
	// Everything must end on e3, with reachability held throughout.
	for _, n := range s.Graph.Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress != s.E3 {
			t.Errorf("node %d ended on %v, want e3=%d", n, best.Egress, s.E3)
		}
	}
	tr := s.Net.Trace(s.Prefix)
	tr.Compact()
	for i, ts := range tr.Times {
		if ts < start.Seconds() {
			continue
		}
		for _, n := range s.Graph.Internal() {
			if !tr.States[i].Reach(n) {
				t.Errorf("state %d: node %d dropped during split execution", i, n)
			}
		}
	}
}
