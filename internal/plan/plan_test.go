package plan_test

import (
	"context"
	"strings"
	"testing"

	"chameleon/internal/sim"

	"chameleon/internal/analyzer"
	"chameleon/internal/plan"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

func compile(t testing.TB, s *scenario.Scenario) (*analyzer.Analysis, *scheduler.NodeSchedule, *plan.Plan) {
	t.Helper()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	b := spec.NewBuilder()
	var es []*spec.Expr
	for _, n := range s.Graph.Internal() {
		es = append(es, b.Reach(n))
	}
	sp := spec.NewSpec(b, b.Globally(b.And(es...)))
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(a, sched, s.Commands)
	if err != nil {
		t.Fatal(err)
	}
	return a, sched, p
}

func TestPlanStructure(t *testing.T) {
	s := scenario.RunningExample()
	_, sched, p := compile(t, s)
	if p.R != sched.R {
		t.Errorf("plan R=%d, schedule R=%d", p.R, sched.R)
	}
	if len(p.Rounds) != p.R {
		t.Errorf("rounds = %d, want %d", len(p.Rounds), p.R)
	}
	if len(p.Between) != p.R+1 {
		t.Errorf("between slots = %d, want R+1", len(p.Between))
	}
	if len(p.Setup) == 0 || len(p.Cleanup) == 0 {
		t.Error("setup/cleanup missing")
	}
	if p.NumSteps() == 0 || p.NumCommands() < p.NumSteps() {
		t.Error("step accounting broken")
	}
}

func TestTable1RuleMapping(t *testing.T) {
	// Each schedule tuple class must compile to the Table 1 command
	// pattern: the final preference command always exists; the temp
	// commands iff the corresponding inequality is strict.
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, sched, p := compile(t, s)
	// Count per-node commands across rounds: find each node's commands.
	cmdsPerNode := map[topology.NodeID]int{}
	for _, round := range p.Rounds {
		for _, st := range round {
			cmdsPerNode[st.Command.Node]++
		}
	}
	for _, n := range a.Switching {
		tup := sched.Tuples[n]
		want := 0
		if tup.Old < tup.NH && tup.Old >= 1 {
			want++ // temp-old switch happens in a round (not setup)
		}
		if tup.NH < tup.New {
			want++ // temp-new switch
		}
		if tup.New <= sched.R {
			want++ // final preference within the update phase
		}
		if got := cmdsPerNode[n]; got != want {
			t.Errorf("node %d (tuple %+v): %d round-commands, want %d", n, tup, got, want)
		}
	}
	_ = p
}

func TestOriginalCommandPlacementDeny(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, sched, p := compile(t, s)
	// The deny command targets e1 and must sit right after round
	// r_nh(e1).
	slot := -1
	for k, cmds := range p.Between {
		if len(cmds) > 0 {
			slot = k
		}
	}
	e1NH := sched.Tuples[s.E1].NH
	if slot != e1NH {
		t.Errorf("original deny command at slot %d, want r_nh(e1)=%d", slot, e1NH)
	}
}

func TestOriginalCommandPlacementNonDeny(t *testing.T) {
	s := scenario.RunningExample()
	_, sched, p := compile(t, s)
	// The LP-lowering command does not deny; it must run right before
	// r_nh(n1).
	n1 := s.Graph.MustNode("n1")
	slot := -1
	for k, cmds := range p.Between {
		if len(cmds) > 0 {
			slot = k
		}
	}
	if want := sched.Tuples[n1].NH - 1; slot != want {
		t.Errorf("original command at slot %d, want r_nh(n1)-1=%d", slot, want)
	}
}

func TestTempSessionsNeverPreexisting(t *testing.T) {
	s, err := scenario.CaseStudy("EEnet", scenario.Config{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	a, _, p := compile(t, s)
	for _, sess := range p.TempSessions {
		if a.SessionExists(sess.A, sess.B) {
			t.Errorf("plan would tear down pre-existing session %v", sess)
		}
	}
}

func TestConditionChecks(t *testing.T) {
	s := scenario.RunningExample()
	n1 := s.Graph.MustNode("n1")
	// n1 currently selects ρ1 (egress n1, from ext1).
	selects := plan.Condition{Kind: plan.CondSelects, Node: n1, Egress: n1, From: s.Graph.MustNode("ext1")}
	if !selects.Check(s.Net, s.Prefix) {
		t.Error("CondSelects should hold for the converged state")
	}
	wrong := plan.Condition{Kind: plan.CondSelects, Node: n1, Egress: s.Graph.MustNode("n6"), From: topology.None}
	if wrong.Check(s.Net, s.Prefix) {
		t.Error("CondSelects for the wrong egress should fail")
	}
	knows := plan.Condition{Kind: plan.CondKnows, Node: s.Graph.MustNode("n3"),
		Egress: n1, From: topology.None}
	if !knows.Check(s.Net, s.Prefix) {
		t.Error("n3 must know a route with egress n1")
	}
	has := plan.Condition{Kind: plan.CondHasRoute, Node: n1, Egress: topology.None, From: topology.None}
	if !has.Check(s.Net, s.Prefix) {
		t.Error("CondHasRoute should hold")
	}
}

func TestConditionString(t *testing.T) {
	c := plan.Condition{Kind: plan.CondKnows, Node: 1, Egress: 2, From: 3}
	if got := c.String(); !strings.Contains(got, "knows") {
		t.Errorf("String = %q", got)
	}
	c.Kind = plan.CondSelects
	if got := c.String(); !strings.Contains(got, "selects") {
		t.Errorf("String = %q", got)
	}
	c.Kind = plan.CondHasRoute
	if got := c.String(); !strings.Contains(got, "has a route") {
		t.Errorf("String = %q", got)
	}
}

func TestPlanString(t *testing.T) {
	s := scenario.RunningExample()
	_, _, p := compile(t, s)
	out := p.String()
	for _, want := range []string{"Setup", "Round 1", "Cleanup", "original command"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan rendering missing %q", want)
		}
	}
}

func TestWeightOrdering(t *testing.T) {
	// The phase weights must be strictly increasing so later phases
	// override earlier ones.
	if !(plan.WeightPinOld < plan.WeightTempOld &&
		plan.WeightTempOld < plan.WeightTempNew &&
		plan.WeightTempNew < plan.WeightNew) {
		t.Error("weight ladder violated")
	}
}

func TestCompileRejectsIncompleteSchedule(t *testing.T) {
	s := scenario.RunningExample()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Empty schedule with switching nodes present: Compile must fail.
	empty := &scheduler.NodeSchedule{
		R:      1,
		Tuples: map[topology.NodeID]scheduler.Tuple{},
		MOld:   map[topology.NodeID]topology.NodeID{},
		MNew:   map[topology.NodeID]topology.NodeID{},
	}
	if _, err := plan.Compile(a, empty, nil); err == nil {
		t.Fatal("Compile accepted a schedule missing switching nodes")
	}
}

func TestMultiPlanTempSessionsDeduplicated(t *testing.T) {
	mp := &plan.MultiPlan{Plans: []*plan.Plan{
		{TempSessions: []plan.Session{{A: 1, B: 2}, {A: 3, B: 4}}},
		{TempSessions: []plan.Session{{A: 1, B: 2}}},
	}}
	if got := len(mp.TempSessions()); got != 2 {
		t.Errorf("TempSessions = %d, want 2 (deduplicated)", got)
	}
}

func TestPlanCountsAndStringWithTemps(t *testing.T) {
	// A scenario that needs temp sessions: the running example's ILP plan
	// uses two.
	s := scenario.RunningExample()
	_, sched, p := compile(t, s)
	if sched.TempOldSessions+sched.TempNewSessions > 0 && len(p.TempSessions) == 0 {
		t.Error("schedule has temp sessions but plan has none")
	}
	out := p.String()
	if len(p.TempSessions) > 0 && !strings.Contains(out, "temporary iBGP session") {
		t.Error("plan rendering missing temp session steps")
	}
	if p.NumCommands() != p.NumSteps()+1 {
		t.Errorf("NumCommands = %d, want steps+1 original", p.NumCommands())
	}
}

func TestAlignMissingSlots(t *testing.T) {
	cmds := make([]sim.Command, 1)
	if _, err := plan.Align([]*plan.Plan{{R: 1}}, cmds); err == nil {
		t.Fatal("Align accepted a plan without OriginalSlots")
	}
}

// TestSingleWrapsAPlan: Single lists a hand-built plan's Between commands in
// slot order, gives the wrapped copy the slots Align and the executor read,
// and leaves the plan it was handed alone.
func TestSingleWrapsAPlan(t *testing.T) {
	cmd := func(d string) sim.Command { return sim.Command{Description: d} }
	p := &plan.Plan{Prefix: 3, R: 2, Between: [][]sim.Command{{cmd("a"), cmd("b")}, nil, {cmd("c")}}}
	mp := plan.Single(p)
	if p.OriginalSlots != nil {
		t.Error("Single modified the plan it wraps")
	}
	if len(mp.Plans) != 1 || mp.Plans[0].Prefix != 3 || mp.Plans[0].R != 2 {
		t.Fatalf("Plans = %+v, want one copy of the plan", mp.Plans)
	}
	var got []string
	for _, ci := range mp.Order {
		got = append(got, mp.Originals[ci].Description)
	}
	if strings.Join(got, "") != "abc" {
		t.Errorf("commands in Order = %v, want a b c", got)
	}
	for ci, want := range []int{0, 0, 2} {
		if slot := mp.Plans[0].OriginalSlots[ci]; slot != want {
			t.Errorf("command %d in slot %d, want %d", ci, slot, want)
		}
	}
	// What Single builds is what Align accepts: a consistent multi-plan.
	if again, err := plan.Align(mp.Plans, mp.Originals); err != nil || len(again.Order) != 3 {
		t.Errorf("Align(Single) = %+v, %v", again, err)
	}
}

// BenchmarkConditionCheck polls every pre- and post-condition of the
// Abilene plan's rounds once per iteration — what the runtime's step loop
// does after every simulated event.
func BenchmarkConditionCheck(b *testing.B) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	_, _, p := compile(b, s)
	var conds []plan.Condition
	for _, round := range p.Rounds {
		for _, st := range round {
			conds = append(append(conds, st.Pre...), st.Post...)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	holds := 0
	for i := 0; i < b.N; i++ {
		for _, c := range conds {
			if c.Check(s.Net, p.Prefix) {
				holds++
			}
		}
	}
	if holds == 0 {
		b.Fatal("no condition of the plan holds in the initial network")
	}
}

// TestCleanupVerifyDoesNotAllocate: the runtime polls a cleanup step's
// Verify after every simulated event until it confirms, so the readback
// must walk the node's sessions without copying them.
func TestCleanupVerifyDoesNotAllocate(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, _, p := compile(t, s)
	checked := 0
	for _, st := range p.Cleanup {
		if st.Command.Verify == nil || !st.Command.Verify(s.Net) {
			continue
		}
		checked++
		if allocs := testing.AllocsPerRun(10, func() { st.Command.Verify(s.Net) }); allocs != 0 {
			t.Errorf("%s: Verify allocates %v times per poll", st.Command.Description, allocs)
		}
	}
	if checked == 0 {
		t.Fatal("no cleanup step verifies clean on the converged network")
	}
}
