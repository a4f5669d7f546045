package runtime_test

import (
	"context"
	"testing"
	"time"

	"chameleon/internal/analyzer"
	"chameleon/internal/fwd"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

// pipeline runs analyze → schedule → compile for a scenario.
func pipeline(t *testing.T, s *scenario.Scenario, sp *spec.Spec) (*analyzer.Analysis, *scheduler.NodeSchedule, *plan.Plan) {
	t.Helper()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(a, sp, sched); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	p, err := plan.Compile(a, sched, s.Commands)
	if err != nil {
		t.Fatal(err)
	}
	return a, sched, p
}

func reachSpec(g *topology.Graph) *spec.Spec {
	b := spec.NewBuilder()
	var es []*spec.Expr
	for _, n := range g.Internal() {
		es = append(es, b.Reach(n))
	}
	return spec.NewSpec(b, b.Globally(b.And(es...)))
}

// eq4Spec builds the paper's Eq. 4 for a scenario.
func eq4Spec(a *analyzer.Analysis, e1 topology.NodeID) *spec.Spec {
	b := spec.NewBuilder()
	var es []*spec.Expr
	for _, n := range a.Graph.Internal() {
		es = append(es, b.Globally(b.Reach(n)))
		en := a.NHNew.Egress(n)
		if en == topology.None {
			continue
		}
		es = append(es, b.Until(b.Wp(n, e1), b.Globally(b.Wp(n, en))))
	}
	return spec.NewSpec(b, b.And(es...))
}

// verifyTrace checks the message-level forwarding trace recorded by the
// simulator against the specification: every intermediate forwarding state
// the network traversed — including mid-convergence states — must satisfy
// the invariants encoded by sp (evaluated from the first recorded state).
func verifyTrace(t *testing.T, s *scenario.Scenario, sp *spec.Spec, res *runtime.Result) {
	t.Helper()
	states := executionStates(t, s, res)
	if !sp.Eval(states) {
		for i, st := range states {
			t.Logf("state %d: %v", i, st)
		}
		t.Fatal("specification violated by the executed trace")
	}
}

// executionStates extracts the forwarding states traversed during the
// plan's execution window (the trace also records the initial bring-up
// convergence, which is outside Chameleon's responsibility).
func executionStates(t *testing.T, s *scenario.Scenario, res *runtime.Result) []fwd.State {
	return executionWindow(t, s, res.Start, res.End+time.Hour)
}

// executionWindow extracts the forwarding states recorded within [from,
// to] of simulated time.
func executionWindow(t *testing.T, s *scenario.Scenario, from, to time.Duration) []fwd.State {
	t.Helper()
	tr := s.Net.Trace(s.Prefix)
	if tr == nil || len(tr.States) == 0 {
		t.Fatal("no forwarding trace recorded")
	}
	tr.Compact()
	lo, hi := from.Seconds(), to.Seconds()
	var states []fwd.State
	for i, ts := range tr.Times {
		if ts >= lo-1e-9 && ts <= hi+1e-9 {
			states = append(states, tr.States[i])
		}
	}
	if len(states) == 0 {
		states = append(states, tr.States[len(tr.States)-1])
	}
	return states
}

func TestEndToEndRunningExample(t *testing.T) {
	s := scenario.RunningExample()
	sp := reachSpec(s.Graph)
	a, sched, p := pipeline(t, s, sp)
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	res, err := ex.ExecuteCtx(context.Background(), plan.Single(p))
	if err != nil {
		t.Fatal(err)
	}
	// The network must end in the final configuration.
	n6 := s.Graph.MustNode("n6")
	for _, n := range s.Net.Graph().Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress != n6 {
			t.Errorf("node %d ended on egress %v, want n6", n, best.Egress)
		}
	}
	verifyTrace(t, s, sp, res)
	// Every node changed its next hop at most once (§3).
	states := executionStates(t, s, res)
	for _, n := range s.Graph.Internal() {
		changes := 0
		for i := 1; i < len(states); i++ {
			if states[i][n] != states[i-1][n] {
				changes++
			}
		}
		if changes > 1 {
			t.Errorf("node %d changed its next hop %d times, want ≤ 1", n, changes)
		}
	}
	if res.Duration() <= 0 {
		t.Error("no simulated time elapsed")
	}
	t.Logf("running example executed in %v simulated (R=%d, %d commands, phases=%d)",
		res.Duration(), sched.R, res.CommandsApplied, len(res.Phases))
	_ = a
}

func TestEndToEndAbileneEq4(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	aTmp, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	sp := eq4Spec(aTmp, s.E1)
	_, sched, p := pipeline(t, s, sp)
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 7})
	res, err := ex.ExecuteCtx(context.Background(), plan.Single(p))
	if err != nil {
		t.Fatal(err)
	}
	verifyTrace(t, s, sp, res)
	// No packets may ever be dropped: reachability in every recorded state.
	for i, st := range executionStates(t, s, res) {
		for _, n := range s.Graph.Internal() {
			if !st.Reach(n) {
				t.Errorf("state %d: node %d dropped traffic", i, n)
			}
		}
	}
	t.Logf("abilene executed in %v simulated, R=%d, tempSessions=%d, maxTable=%d",
		res.Duration(), sched.R, len(p.TempSessions), res.MaxTableEntries)
}

func TestEndToEndSessionRemovalVariant(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 3, RemoveSession: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := reachSpec(s.Graph)
	_, _, p := pipeline(t, s, sp)
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 3})
	res, err := ex.ExecuteCtx(context.Background(), plan.Single(p))
	if err != nil {
		t.Fatal(err)
	}
	verifyTrace(t, s, sp, res)
	for _, n := range s.Graph.Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress == s.E1 {
			t.Errorf("node %d still on e1 after session removal plan", n)
		}
	}
}

func TestEndToEndMoreTopologies(t *testing.T) {
	for _, name := range []string{"Compuserve", "HiberniaCanada", "Sprint", "JGN2plus", "EEnet"} {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := scenario.CaseStudy(name, scenario.Config{Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			sp := reachSpec(s.Graph)
			_, _, p := pipeline(t, s, sp)
			ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 21})
			res, err := ex.ExecuteCtx(context.Background(), plan.Single(p))
			if err != nil {
				t.Fatal(err)
			}
			verifyTrace(t, s, sp, res)
		})
	}
}

func TestNoTransientEBGPLeak(t *testing.T) {
	// §3: Chameleon never exports transient routes to eBGP peers. Each
	// external peer may see at most: the initial best, and the final best
	// (one change), per egress session.
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp := reachSpec(s.Graph)
	_, _, p := pipeline(t, s, sp)
	before := s.Net.EBGPExports(s.Prefix)
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 7})
	if _, err := ex.ExecuteCtx(context.Background(), plan.Single(p)); err != nil {
		t.Fatal(err)
	}
	// Exports during reconfiguration: each of the ≤4 external peers may
	// learn the new best route once (plus possible withdraw/announce at
	// the egress swap). Anything beyond a small constant per peer would
	// indicate transient churn.
	delta := s.Net.EBGPExports(s.Prefix) - before
	limit := 3 * len(s.Ext)
	if delta > limit {
		t.Errorf("external peers saw %d updates during reconfiguration (> %d): transient leak", delta, limit)
	}
}

func TestExternalEventLinkFailure(t *testing.T) {
	// Fig. 11a: a link failure mid-reconfiguration triggers IGP
	// reconvergence but no invariant violation beyond the IGP transient.
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sp := reachSpec(s.Graph)
	_, _, p := pipeline(t, s, sp)
	// Fail a link not adjacent to any egress, 7 s in (as in Fig. 11a).
	var la, lb topology.NodeID = topology.None, topology.None
	for _, l := range s.Graph.Links() {
		if s.Graph.Node(l.A).External || s.Graph.Node(l.B).External {
			continue
		}
		if l.A == s.E1 || l.B == s.E1 || l.A == s.E2 || l.B == s.E2 || l.A == s.E3 || l.B == s.E3 {
			continue
		}
		la, lb = l.A, l.B
		break
	}
	if la == topology.None {
		t.Skip("no suitable link")
	}
	opts := runtime.Options{Seed: 7}
	opts.ExternalEvents = []runtime.ScheduledEvent{{
		After: 7 * time.Second,
		Name:  "link failure",
		Apply: func(n *sim.Network) { n.FailLink(la, lb) },
	}}
	ex := runtime.NewExecutor(s.Net, opts)
	if _, err := ex.ExecuteCtx(context.Background(), plan.Single(p)); err != nil {
		t.Fatalf("link failure broke the reconfiguration: %v", err)
	}
	// After the plan completes, all nodes must be on their final egress
	// and reachable.
	st := s.Net.ForwardingState(s.Prefix)
	for _, n := range s.Graph.Internal() {
		if !st.Reach(n) {
			t.Errorf("node %d unreachable after link-failure run", n)
		}
	}
}

func TestEstimateReconfigurationTime(t *testing.T) {
	if got := runtime.EstimateReconfigurationTime(7); got != 108*time.Second {
		t.Errorf("T̃(7) = %v, want 108s", got)
	}
	if got := runtime.EstimateReconfigurationTime(0); got != 24*time.Second {
		t.Errorf("T̃(0) = %v, want 24s", got)
	}
}

func TestExecutorRequiresConvergedNetwork(t *testing.T) {
	s := scenario.RunningExample()
	sp := reachSpec(s.Graph)
	_, _, p := pipeline(t, s, sp)
	// A message in flight: BGP has not settled.
	s.Net.InjectExternalRoute(s.Graph.MustNode("ext1"), sim.Announcement{Prefix: s.Prefix})
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	if _, err := ex.ExecuteCtx(context.Background(), plan.Single(p)); err == nil {
		t.Fatal("Execute must reject a non-converged network")
	}
}

func TestExternalEventNewRouteIgnored(t *testing.T) {
	// Fig. 11b: a better route announced mid-reconfiguration is ignored
	// until cleanup restores the original preferences; afterwards the
	// network converges to it.
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7, SpareEgress: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := reachSpec(s.Graph)
	_, _, p := pipeline(t, s, sp)
	opts := runtime.Options{Seed: 7}
	// Inject mid-update: §8's guarantee covers events against the
	// installed transient state, not ones racing the setup phase.
	opts.ExternalEvents = []runtime.ScheduledEvent{{
		After: 30 * time.Second,
		Name:  "better route at e4",
		Apply: func(n *sim.Network) {
			// Shorter AS path than every existing route: globally best.
			n.InjectExternalRoute(s.Ext4, sim.Announcement{Prefix: s.Prefix, ASPathLen: 0})
		},
	}}
	ex := runtime.NewExecutor(s.Net, opts)
	res, err := ex.ExecuteCtx(context.Background(), plan.Single(p))
	if err != nil {
		t.Fatal(err)
	}
	// §8: the specification is guaranteed up to the point where the
	// reconfiguration commits (cleanup restores original preferences and
	// the network performs ordinary BGP convergence to the external
	// event's new route — that convergence is outside the guarantee).
	cleanupStart := res.End
	for _, ph := range res.Phases {
		if ph.Name == "cleanup" {
			cleanupStart = ph.Start
		}
	}
	during := executionWindow(t, s, res.Start, cleanupStart)
	if !sp.Eval(during) {
		t.Error("specification violated before cleanup despite the pinned transient state")
	}
	// After cleanup, every node must prefer the new e4 route.
	for _, n := range s.Graph.Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress != s.E4 {
			t.Errorf("node %d ended on egress %v, want e4=%d", n, best.Egress, s.E4)
		}
	}
}
