package chameleon_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"chameleon"
	"chameleon/internal/analyzer"
	"chameleon/internal/eval"
	"chameleon/internal/fwd"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/scheduler"
	"chameleon/internal/topology"
)

// renderPlans fingerprints a reconfiguration's complete multi-destination
// output as text. Plans embed sim.Command func values, which
// reflect.DeepEqual never equates, so equality is checked on the full
// rendering (steps, conditions, interleaved originals, slots, order).
func renderPlans(r *chameleon.Reconfiguration) string {
	var b strings.Builder
	b.WriteString(r.Plan.String())
	if r.Multi != nil {
		for _, p := range r.Multi.Plans {
			b.WriteString(p.String())
			fmt.Fprintf(&b, "slots: %v\n", p.OriginalSlots)
		}
		fmt.Fprintf(&b, "order: %v\n", r.Multi.Order)
	}
	return b.String()
}

// multiClassScenario builds the Abilene case study with three extra
// prefixes: one collapses into the base prefix's equivalence class and two
// form classes of their own, so planning decomposes into three classes.
func multiClassScenario(t *testing.T) *chameleon.Scenario {
	t.Helper()
	s, err := chameleon.NewCaseStudy("Abilene", chameleon.ScenarioConfig{Seed: 7, ExtraPrefixes: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHardCorpusDecidesMultiClass: Gambia with three extra prefixes used to
// fail — the member-proportional budget slice left one class undecided at
// every round count. It plans now, every class inside the scan pass.
func TestHardCorpusDecidesMultiClass(t *testing.T) {
	s, err := chameleon.NewCaseStudy("Gambia", chameleon.ScenarioConfig{Seed: 7, ExtraPrefixes: 3})
	if err != nil {
		t.Fatal(err)
	}
	r, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, pc := range r.Classes {
		if err := scheduler.Validate(pc.Analysis, r.Spec, pc.Schedule); err != nil {
			t.Errorf("class %d: invalid schedule: %v", i, err)
		}
		if st := pc.Schedule.Stats; st.RoundsTried != pc.Schedule.R {
			t.Errorf("class %d: R = %d after %d solves, want a scan-pass decision", i, pc.Schedule.R, st.RoundsTried)
		}
	}
}

// TestClassPartition pins the partition the decomposed planner works from:
// three classes, the base prefix sharing its class with the identically
// announced extra prefix, every prefix covered exactly once.
func TestClassPartition(t *testing.T) {
	s := multiClassScenario(t)
	r, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Classes) != 3 {
		t.Fatalf("got %d classes, want 3", len(r.Classes))
	}
	seen := map[int]bool{}
	total := 0
	for i, pc := range r.Classes {
		if len(pc.Plans) != len(pc.Class.Members) {
			t.Errorf("class %d: %d plans for %d members", i, len(pc.Plans), len(pc.Class.Members))
		}
		for j, p := range pc.Class.Members {
			if seen[int(p)] {
				t.Errorf("prefix %d appears in more than one class", p)
			}
			seen[int(p)] = true
			if pc.Plans[j].Prefix != p {
				t.Errorf("class %d plan %d targets prefix %d, want %d", i, j, pc.Plans[j].Prefix, p)
			}
			total++
		}
	}
	if total != len(s.AllPrefixes()) {
		t.Errorf("classes cover %d prefixes, scenario has %d", total, len(s.AllPrefixes()))
	}
	if r.Classes[0].Class.Representative != s.Prefix {
		t.Errorf("first class representative = %d, want the scenario prefix %d",
			r.Classes[0].Class.Representative, s.Prefix)
	}
	if r.Multi == nil {
		t.Fatal("multi-prefix scenario produced no MultiPlan")
	}
	if len(r.Multi.Plans) != total {
		t.Errorf("MultiPlan has %d plans, want %d", len(r.Multi.Plans), total)
	}
}

// TestClassWorkerInvariance: planning the same scenario at parallelism 1,
// 4 and NumCPU yields byte-identical trace dumps and identical plans, and
// executing each plan under the transient-state monitor yields
// byte-identical provenance-annotated violation timelines — workers change
// wall-clock time, never the output.
func TestClassWorkerInvariance(t *testing.T) {
	type out struct {
		trace, timeline string
		r               *chameleon.Reconfiguration
	}
	dump := func(par int) out {
		s := multiClassScenario(t)
		rec := chameleon.NewRecorder()
		r, err := chameleon.PlanCtx(context.Background(), s,
			chameleon.PlanOptions{Recorder: rec, ClassParallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("parallelism %d: trace ill-formed: %v", par, err)
		}
		var tr bytes.Buffer
		if err := rec.WriteJSONL(&tr); err != nil {
			t.Fatal(err)
		}
		mon := chameleon.NewMonitor(chameleon.MonitorConfig{
			Name: "exec", Invariants: chameleon.DefaultInvariants(s.Graph),
		})
		if _, err := r.ExecuteCtx(context.Background(), chameleon.ExecOptions{Monitor: mon}); err != nil {
			t.Fatalf("parallelism %d: execute: %v", par, err)
		}
		var tl bytes.Buffer
		if err := mon.Timeline().WriteJSONL(&tl); err != nil {
			t.Fatal(err)
		}
		return out{tr.String(), tl.String(), r}
	}
	base := dump(1)
	for _, par := range []int{4, runtime.NumCPU()} {
		got := dump(par)
		if got.trace != base.trace {
			t.Errorf("parallelism %d: trace JSONL differs from sequential run", par)
		}
		if got.timeline != base.timeline {
			t.Errorf("parallelism %d: provenance-annotated timeline differs from sequential run:\n%s\nvs\n%s",
				par, got.timeline, base.timeline)
		}
		if g, b := renderPlans(got.r), renderPlans(base.r); g != b {
			t.Errorf("parallelism %d: plans differ from sequential run:\n%s\nvs\n%s", par, g, b)
		}
	}
}

// TestClassDecompositionInvariance: the decomposed planner (one schedule
// per equivalence class, members compiled from the shared analysis) and a
// monolithic planner (every prefix analyzed and scheduled independently
// with the full default budget) must execute identically — same violation
// timelines under the transient-state monitor, same final routing.
func TestClassDecompositionInvariance(t *testing.T) {
	timeline := func(mon *chameleon.Monitor) string {
		var b bytes.Buffer
		if err := mon.Timeline().WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	// Decomposed: the facade pipeline. The global budget is one default
	// budget per prefix, so the member-proportional split hands every class
	// at least the same per-attempt budget the monolithic baseline below
	// uses — with matching budgets the solver makes identical feasibility
	// decisions and the comparison is exact, not just violation-free.
	s1 := multiClassScenario(t)
	budget := int64(len(s1.AllPrefixes())) * scheduler.DeterministicNodeBudget
	mon1 := chameleon.NewMonitor(chameleon.MonitorConfig{
		Name: "decomposed", Invariants: chameleon.DefaultInvariants(s1.Graph),
	})
	r1, err := chameleon.PlanCtx(context.Background(), s1, chameleon.PlanOptions{Monitor: mon1, SolverNodeBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := r1.ExecuteCtx(context.Background(), chameleon.ExecOptions{Monitor: mon1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Verify(res1); err != nil {
		t.Fatal(err)
	}

	// Monolithic: per-prefix analyze → schedule → compile, no class reuse,
	// full default budget for every prefix; aligned and executed through
	// the same facade executor on a freshly built identical scenario.
	s2 := multiClassScenario(t)
	final := s2.FinalNetwork()
	sp := eval.ReachabilitySpec(s2.Graph)
	var all []*plan.Plan
	for _, p := range s2.AllPrefixes() {
		a, err := analyzer.AnalyzeCtx(context.Background(), s2.Net, final, p)
		if err != nil {
			t.Fatalf("prefix %d: analyze: %v", p, err)
		}
		sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
		if err != nil {
			t.Fatalf("prefix %d: schedule: %v", p, err)
		}
		pl, err := plan.Compile(a, sched, s2.Commands)
		if err != nil {
			t.Fatalf("prefix %d: compile: %v", p, err)
		}
		all = append(all, pl)
	}
	mp, err := plan.Align(all, s2.Commands)
	if err != nil {
		t.Fatal(err)
	}
	mon2 := chameleon.NewMonitor(chameleon.MonitorConfig{
		Name: "decomposed", Invariants: chameleon.DefaultInvariants(s2.Graph),
	})
	mon2.Track(monitor.FromSpec("spec", sp))
	r2 := &chameleon.Reconfiguration{
		Scenario: s2, Spec: sp, Multi: mp,
		Analysis: nil, Schedule: nil, Plan: all[0],
	}
	res2, err := r2.ExecuteCtx(context.Background(), chameleon.ExecOptions{Monitor: mon2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Verify(res2); err != nil {
		t.Fatal(err)
	}

	if tl1, tl2 := timeline(mon1), timeline(mon2); tl1 != tl2 {
		t.Errorf("violation timelines differ:\ndecomposed:\n%s\nmonolithic:\n%s", tl1, tl2)
	}
	if mon1.Timeline().StatesChecked != mon2.Timeline().StatesChecked {
		t.Errorf("monitor checked %d states decomposed vs %d monolithic",
			mon1.Timeline().StatesChecked, mon2.Timeline().StatesChecked)
	}
}

// TestMultiClassExecutionContract: a multi-class run goes through the same
// executor body as a single-destination one, so it is traced phase by phase
// (setup, cleanup and one span per destination and round), the monitor
// reads each phase from the network it is bound to — the violations of a
// probe invariant that fails on every other snapshot are attributed to
// phases of the trace, rounds of every destination among them — and a
// fault-free run reports no recovery:
// the temporary-session steps the per-destination plans share are not lost
// acknowledgments.
func TestMultiClassExecutionContract(t *testing.T) {
	s := multiClassScenario(t)
	r, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fails := false
	probe := chameleon.MonitorInvariant{Name: "probe", Check: func(fwd.State) (bool, []topology.NodeID) {
		fails = !fails
		return !fails, nil
	}}
	mon := chameleon.NewMonitor(chameleon.MonitorConfig{Name: "contract", Invariants: []chameleon.MonitorInvariant{probe}})
	rec := chameleon.NewRecorder()
	res, err := r.ExecuteCtx(context.Background(), chameleon.ExecOptions{Monitor: mon, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery.Any() || rec.Counter(obs.CtrFaultsHealed) != 0 {
		t.Errorf("fault-free run reports recovery %+v and %d healed faults", res.Recovery, rec.Counter(obs.CtrFaultsHealed))
	}
	spans := make(map[string]bool)
	for _, name := range rec.SpanNames() {
		spans[name] = true
	}
	want := []string{"setup", "cleanup"}
	for _, p := range r.Multi.Plans {
		for k := 1; k <= p.R; k++ {
			want = append(want, fmt.Sprintf("d%d round %d", int(p.Prefix), k))
		}
	}
	for _, name := range want {
		if !spans[name] {
			t.Errorf("no %q span in the trace: %v", name, rec.SpanNames())
		}
	}
	attributed := make(map[string]bool)
	for _, v := range mon.Timeline().Violations {
		if v.Start <= res.Start {
			continue // the initial states are recorded before setup starts
		}
		if !spans[v.Phase] {
			t.Errorf("violation at %v attributed to %q, which is no phase of the trace", v.Start, v.Phase)
			continue
		}
		attributed[strings.Fields(v.Phase)[0]] = true
	}
	for _, p := range r.Multi.Plans {
		if d := fmt.Sprintf("d%d", int(p.Prefix)); !attributed[d] {
			t.Errorf("no violation attributed to a round of %s: %v", d, attributed)
		}
	}
}
