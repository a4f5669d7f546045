package scheduler_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"chameleon/internal/analyzer"
	"chameleon/internal/milp"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

func analyze(t *testing.T, s *scenario.Scenario) *analyzer.Analysis {
	t.Helper()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// reachSpec builds G ∧_n reach(n).
func reachSpec(g *topology.Graph) *spec.Spec {
	b := spec.NewBuilder()
	var exprs []*spec.Expr
	for _, n := range g.Internal() {
		exprs = append(exprs, b.Reach(n))
	}
	return spec.NewSpec(b, b.Globally(b.And(exprs...)))
}

// caseStudySpec builds Eq. 4: ∧_n G reach(n) ∧ (wp(n,e1) U G wp(n,e_n)).
func caseStudySpec(a *analyzer.Analysis, e1 topology.NodeID) *spec.Spec {
	b := spec.NewBuilder()
	var exprs []*spec.Expr
	for _, n := range a.Graph.Internal() {
		exprs = append(exprs, b.Globally(b.Reach(n)))
		en := a.NHNew.Egress(n)
		if en == topology.None {
			continue
		}
		exprs = append(exprs,
			b.Until(b.Wp(n, e1), b.Globally(b.Wp(n, en))))
	}
	return spec.NewSpec(b, b.And(exprs...))
}

func TestScheduleRunningExampleReachability(t *testing.T) {
	s := scenario.RunningExample()
	a := analyze(t, s)
	sp := reachSpec(s.Graph)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(a, sp, sched); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	if sched.R < 1 || sched.R > 6 {
		t.Errorf("R = %d, want a small positive round count", sched.R)
	}
	// The paper schedules this example in 4 rounds with concurrency; our
	// minimal R must be at most the switching-node count.
	if sched.R > len(a.Switching) {
		t.Errorf("R = %d exceeds switching nodes %d", sched.R, len(a.Switching))
	}
	t.Logf("running example: R=%d, temp sessions=%d (old %d, new %d)",
		sched.R, sched.Stats.TempSessions, sched.TempOldSessions, sched.TempNewSessions)
}

func TestScheduleIsMinimalRounds(t *testing.T) {
	s := scenario.RunningExample()
	a := analyze(t, s)
	sp := reachSpec(s.Graph)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Re-solving with MaxRounds = R-1 must fail: R is minimal.
	if sched.R > 1 {
		opts := scheduler.DefaultOptions()
		opts.MaxRounds = sched.R - 1
		if _, err := scheduler.ScheduleCtx(context.Background(), a, sp, opts); !errors.Is(err, scheduler.ErrUnschedulable) {
			t.Errorf("R-1 rounds unexpectedly schedulable (err=%v)", err)
		}
	}
}

func TestScheduleAbileneCaseStudyEq4(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, s)
	sp := caseStudySpec(a, s.E1)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(a, sp, sched); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	t.Logf("abilene: switching=%d R=%d temp=%d solverNodes=%d",
		len(a.Switching), sched.R, sched.Stats.TempSessions, sched.Stats.SolverNodes)
}

func TestScheduleTuplesSatisfyEq1(t *testing.T) {
	s, err := scenario.CaseStudy("Aarnet", scenario.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, s)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, reachSpec(s.Graph), scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for n, tp := range sched.Tuples {
		// Eq. 1 extended by the setup (r_old = 0) and cleanup (r_new =
		// R+1) phases.
		if !(0 <= tp.Old && tp.Old <= tp.NH && 1 <= tp.NH && tp.NH <= sched.R &&
			tp.NH <= tp.New && tp.New <= sched.R+1) {
			t.Errorf("node %d: tuple %+v violates Eq. 1", n, tp)
		}
	}
}

func TestSchedulePerRoundIndependence(t *testing.T) {
	s, err := scenario.CaseStudy("Agis", scenario.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, s)
	sp := reachSpec(s.Graph)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Validate performs the independence and loop-freedom checks.
	if err := scheduler.Validate(a, sp, sched); err != nil {
		t.Fatal(err)
	}
	// Every intermediate state keeps full reachability.
	trace := scheduler.InducedTrace(a, sched)
	for k, st := range trace {
		for _, n := range a.Graph.Internal() {
			if !st.Reach(n) {
				t.Errorf("round %d: node %d lost reachability", k, n)
			}
		}
	}
}

func TestImplicitVsExplicitLoopConstraints(t *testing.T) {
	// Both encodings must agree on feasibility and round count (App. D:
	// the explicit constraints are redundant).
	s, err := scenario.CaseStudy("Claranet", scenario.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, s)
	sp := reachSpec(s.Graph)
	optsE := scheduler.DefaultOptions()
	optsI := scheduler.DefaultOptions()
	optsI.ExplicitLoopConstraints = false
	se, err := scheduler.ScheduleCtx(context.Background(), a, sp, optsE)
	if err != nil {
		t.Fatal(err)
	}
	si, err := scheduler.ScheduleCtx(context.Background(), a, sp, optsI)
	if err != nil {
		t.Fatal(err)
	}
	if se.R != si.R {
		t.Errorf("explicit R=%d vs implicit R=%d", se.R, si.R)
	}
	if err := scheduler.Validate(a, sp, si); err != nil {
		t.Errorf("implicit-constraint schedule invalid: %v", err)
	}
}

func TestTemporalSpecSwitchOnce(t *testing.T) {
	// Eq. 4's U G component: each node switches egress at most once, from
	// e1 to its final egress. Build it for the running example.
	s := scenario.RunningExample()
	a := analyze(t, s)
	b := spec.NewBuilder()
	var exprs []*spec.Expr
	for _, n := range a.Graph.Internal() {
		exprs = append(exprs, b.Globally(b.Reach(n)))
		en := a.NHNew.Egress(n)
		e1 := a.NHOld.Egress(n)
		if en == topology.None || e1 == topology.None {
			continue
		}
		exprs = append(exprs, b.Until(b.Wp(n, e1), b.Globally(b.Wp(n, en))))
	}
	sp := spec.NewSpec(b, b.And(exprs...))
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(a, sp, sched); err != nil {
		t.Fatal(err)
	}
}

func TestUnschedulableSpecReported(t *testing.T) {
	// An impossible specification: require永 wp through the old egress
	// globally while the reconfiguration removes it.
	s := scenario.RunningExample()
	a := analyze(t, s)
	b := spec.NewBuilder()
	n4 := s.Graph.MustNode("n4")
	sp := spec.NewSpec(b, b.Globally(b.Wp(n4, s.Graph.MustNode("n1"))))
	opts := scheduler.DefaultOptions()
	opts.MaxRounds = 4
	_, err := scheduler.ScheduleCtx(context.Background(), a, sp, opts)
	if !errors.Is(err, scheduler.ErrUnschedulable) {
		t.Fatalf("err = %v, want ErrUnschedulable", err)
	}
}

func TestConstructiveReachability(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, s)
	sched, err := scheduler.ConstructiveReachability(a)
	if err != nil {
		t.Fatal(err)
	}
	sp := reachSpec(s.Graph)
	// The constructive schedule is a forwarding-level construction
	// (Theorem 1); signaling-level availability needs the ILP.
	if err := scheduler.ValidateForwarding(a, sp, sched); err != nil {
		t.Fatalf("constructive schedule invalid: %v", err)
	}
	// One node per round: R equals the switching count.
	if sched.R != len(a.Switching) {
		t.Errorf("constructive R = %d, want %d", sched.R, len(a.Switching))
	}
}

func TestConstructiveVsILPRounds(t *testing.T) {
	// The ILP must never need more rounds than the constructive baseline.
	s, err := scenario.CaseStudy("Aarnet", scenario.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, s)
	sp := reachSpec(s.Graph)
	ilp, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	con, err := scheduler.ConstructiveReachability(a)
	if err != nil {
		t.Fatal(err)
	}
	if ilp.R > con.R {
		t.Errorf("ILP R=%d worse than constructive R=%d", ilp.R, con.R)
	}
	t.Logf("rounds: ILP=%d constructive=%d", ilp.R, con.R)
}

func TestEmptySwitchingSet(t *testing.T) {
	// A no-op reconfiguration (final == initial) yields an empty schedule.
	s := scenario.RunningExample()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.Net.Clone(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.ScheduleCtx(context.Background(), a, reachSpec(s.Graph), scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sched.R != 0 || len(sched.Tuples) != 0 {
		t.Errorf("no-op reconfiguration produced R=%d tuples=%d", sched.R, len(sched.Tuples))
	}
}

// TestValidateEmptySchedule: with R = 0 the induced trace is one state, and
// validation judges the specification on it instead of on the empty tail
// the rounds would leave.
func TestValidateEmptySchedule(t *testing.T) {
	s := scenario.RunningExample()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.Net.Clone(), s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.ScheduleCtx(context.Background(), a, reachSpec(s.Graph), scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(a, reachSpec(s.Graph), sched); err != nil {
		t.Errorf("no-op schedule rejected: %v", err)
	}
	b := spec.NewBuilder()
	never := spec.NewSpec(b, b.Globally(b.False()))
	if err := scheduler.Validate(a, never, sched); err == nil {
		t.Error("no-op schedule accepted under a specification its one state violates")
	}
}

// TestScheduleNodeBudgetExhausted: with a budget no pass can decide any
// round count in, Schedule reports the solver running out of nodes rather
// than claiming the reconfiguration unschedulable.
func TestScheduleNodeBudgetExhausted(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, s)
	opts := scheduler.DefaultOptions()
	opts.SolverNodeBudget = 1
	_, err = scheduler.ScheduleCtx(context.Background(), a, reachSpec(s.Graph), opts)
	if !errors.Is(err, milp.ErrTimeout) {
		t.Fatalf("err = %v, want milp.ErrTimeout", err)
	}
}

// TestSearchTreePinned pins the branch-and-bound tree of three reachability
// case studies at scenario seed 7 under DefaultOptions: rounds, temporary
// sessions, nodes explored and whether the temp-session minimum was proven.
// Propagation-kernel work must leave all four alone (only
// Stats.Propagations may move); a change that means to move the tree edits
// these numbers on purpose.
func TestSearchTreePinned(t *testing.T) {
	for _, want := range []struct {
		topo     string
		r, temp  int
		nodes    int64
		provenOK bool
	}{
		{"Abilene", 4, 4, 230, true},
		{"Sprint", 3, 6, 558, true},
		{"Aarnet", 5, 1, 1225, true},
	} {
		s, err := scenario.CaseStudy(want.topo, scenario.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduler.ScheduleCtx(context.Background(), analyze(t, s), reachSpec(s.Graph), scheduler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", want.topo, err)
		}
		st := sched.Stats
		if sched.R != want.r || st.TempSessions != want.temp || st.SolverNodes != want.nodes || st.ObjectiveOpt != want.provenOK {
			t.Errorf("%s: R=%d temp=%d nodes=%d opt=%v, pinned R=%d temp=%d nodes=%d opt=%v", want.topo,
				sched.R, st.TempSessions, st.SolverNodes, st.ObjectiveOpt, want.r, want.temp, want.nodes, want.provenOK)
		}
	}
}

// TestEncodingPinned holds the model of every round count the Abilene,
// Sprint and Aarnet scans encode (reachability, scenario seed 7) to its
// variable count, row count and structural fingerprint, recorded before the
// encoder posted its rows in place and served a whole scan. Work on the
// encoder or on milp's row posting must leave every row, its term order and
// the order of the rows alone; a change that means to move the encoding edits
// these numbers on purpose.
func TestEncodingPinned(t *testing.T) {
	type pin struct {
		r, vars, cons int
		fp            uint64
	}
	for _, want := range []struct {
		topo string
		pins []pin
	}{
		{"Abilene", []pin{
			{1, 123, 226, 0xb7fdc00c38c78935},
			{2, 169, 358, 0xda297fc11c926112},
			{3, 223, 527, 0x6a1d5485cb0c8cb5},
			{4, 277, 696, 0x115f3e38eaa3856e},
		}},
		{"Sprint", []pin{
			{1, 120, 205, 0x4bcf69296e5c7dfa},
			{2, 157, 306, 0x771784832ac75881},
			{3, 199, 429, 0x89f49311edaee9c3},
		}},
		{"Aarnet", []pin{
			{1, 231, 378, 0x7626bc51a6188e50},
			{2, 295, 558, 0x8414a7ede27f44f5},
			{3, 368, 780, 0xcd599299be8410fb},
			{4, 441, 1002, 0x19e7a2d3e05179ab},
			{5, 514, 1224, 0x2f2551a6662c4f47},
		}},
	} {
		s, err := scenario.CaseStudy(want.topo, scenario.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		a, sp, opts := analyze(t, s), reachSpec(s.Graph), scheduler.DefaultOptions()
		sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, opts)
		if err != nil {
			t.Fatalf("%s: %v", want.topo, err)
		}
		if sched.Stats.RoundsTried != len(want.pins) {
			t.Errorf("%s: the scan encoded %d round counts, pinned %d", want.topo, sched.Stats.RoundsTried, len(want.pins))
		}
		scheduler.EncodeRounds(a, sp, opts, len(want.pins), func(r int, m *milp.Model) {
			got := pin{r, m.NumVars(), m.NumConstraints(), m.Fingerprint()}
			if w := want.pins[r-1]; got != w {
				t.Errorf("%s: R=%d vars=%d rows=%d fingerprint=%#x, pinned vars=%d rows=%d fingerprint=%#x",
					want.topo, r, got.vars, got.cons, got.fp, w.vars, w.cons, w.fp)
			}
		})
	}
}

// TestScheduleAllocs: a round scan encodes every round count with one
// encoder into one model, and takes that encoder, grown by the scans before
// it, from the free list; so a warm scan of Abilene (four round counts) costs
// about a hundred allocations and a dozen KiB. An encoder per scan cost 367
// allocations and 314 536 B; an encoder per round count, with rows copied
// expression by expression, 4 452 allocations.
func TestScheduleAllocs(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, sp := analyze(t, s), reachSpec(s.Graph)
	run := func() {
		if _, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	// Whatever earlier tests left on the free list, the scans below run on
	// the one encoder this warm-up grows.
	scheduler.DrainEncoders()
	run()
	n := testing.AllocsPerRun(5, run)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("ScheduleCtx on Abilene: %.0f allocations, %d B", n, bytes)
	if n > 200 {
		t.Errorf("ScheduleCtx on Abilene allocates %.0f times; want at most 200", n)
	}
	if bytes > 32<<10 {
		t.Errorf("ScheduleCtx on Abilene allocates %d B; want at most 32 KiB", bytes)
	}
}

// TestHardCorpusDecides: two entries the static branch order left undecided
// at every round count, whatever the pass. GtsCzechRepublic failed outright
// and Cwix was rescued by the since-deleted slack phase with R = 64; under
// conflict-weighted branching the scan pass decides both.
func TestHardCorpusDecides(t *testing.T) {
	for _, topo := range []string{"GtsCzechRepublic", "Cwix"} {
		s, err := scenario.CaseStudy(topo, scenario.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		a, sp := analyze(t, s), reachSpec(s.Graph)
		opts := scheduler.DefaultOptions()
		sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, opts)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if err := scheduler.Validate(a, sp, sched); err != nil {
			t.Errorf("%s: invalid schedule: %v", topo, err)
		}
		if sched.R > opts.MaxRounds || sched.Stats.RoundsTried != sched.R {
			t.Errorf("%s: R = %d after %d solves, want a scan-pass decision within %d rounds", topo, sched.R, sched.Stats.RoundsTried, opts.MaxRounds)
		}
	}
}

// TestSmallZooNoWorse holds fourteen small Zoo entries at scenario seed 7 to
// the rounds and temporary sessions the static-order search committed (PR 15,
// EXPERIMENTS.md): a change to the search may lower either, never raise one.
func TestSmallZooNoWorse(t *testing.T) {
	for _, was := range []struct {
		topo    string
		r, temp int
	}{
		{"Abilene", 4, 4}, {"Basnet", 3, 3}, {"Compuserve", 4, 0}, {"Dataxchange", 3, 4},
		{"EEnet", 4, 1}, {"Epoch", 3, 2}, {"Getnet", 2, 8}, {"Globalcenter", 3, 3},
		{"Gridnet", 3, 3}, {"Heanet", 3, 2}, {"HiberniaIreland", 2, 6}, {"JGN2plus", 2, 10},
		{"Sanren", 3, 3}, {"Aarnet", 5, 13},
	} {
		s, err := scenario.CaseStudy(was.topo, scenario.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		a, sp := analyze(t, s), reachSpec(s.Graph)
		sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", was.topo, err)
		}
		if err := scheduler.Validate(a, sp, sched); err != nil {
			t.Errorf("%s: invalid schedule: %v", was.topo, err)
		}
		if sched.R > was.r || sched.R == was.r && sched.Stats.TempSessions > was.temp {
			t.Errorf("%s: R=%d with %d temporary sessions, was R=%d with %d", was.topo,
				sched.R, sched.Stats.TempSessions, was.r, was.temp)
		}
	}
}

func TestScheduleStats(t *testing.T) {
	s := scenario.RunningExample()
	a := analyze(t, s)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, reachSpec(s.Graph), scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sched.Stats.RoundsTried < 1 || sched.Stats.Variables == 0 || sched.Stats.Duration <= 0 {
		t.Errorf("stats not populated: %+v", sched.Stats)
	}
}

func TestScheduleStringFormatting(t *testing.T) {
	s := scenario.RunningExample()
	a := analyze(t, s)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, reachSpec(s.Graph), scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for n, tp := range sched.Tuples {
		line := fmt.Sprintf("node %d: %+v tempOld=%v tempNew=%v", n, tp,
			sched.TempOld(n), sched.TempNew(n))
		if line == "" {
			t.Fatal("unreachable")
		}
	}
}

// TestRoutingInvariantExits exercises the §8 routing-invariant extension:
// schedule under a spec that constrains which egress each node uses over
// time, using the exits predicate.
func TestRoutingInvariantExits(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := analyze(t, s)
	b := spec.NewBuilder()
	var es []*spec.Expr
	for _, n := range a.Graph.Internal() {
		es = append(es, b.Globally(b.Reach(n)))
		en := a.NHNew.Egress(n)
		if en == topology.None {
			continue
		}
		// Routing invariant: n uses exactly e1, then exactly its final
		// egress — stricter than the waypoint form since it pins the
		// egress router itself.
		es = append(es, b.Until(b.Exits(n, s.E1), b.Globally(b.Exits(n, en))))
	}
	sp := spec.NewSpec(b, b.And(es...))
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := scheduler.Validate(a, sp, sched); err != nil {
		t.Fatalf("invalid schedule under routing invariants: %v", err)
	}
}
