package runtime_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"chameleon/internal/analyzer"
	"chameleon/internal/eval"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// faultScript adapts a closure to sim.FaultInjector for executor tests.
type faultScript func(node topology.NodeID, desc string, attempt int) sim.CommandFault

func (s faultScript) CommandFault(n topology.NodeID, d string, a int) sim.CommandFault {
	return s(n, d, a)
}

// dropFirstPush drops the first application attempt of every command.
var dropFirstPush = faultScript(func(_ topology.NodeID, _ string, attempt int) sim.CommandFault {
	if attempt == 0 {
		return sim.CommandFault{Kind: sim.FaultDrop}
	}
	return sim.CommandFault{}
})

// TestSelfHealingRetryOnDrop drops the first application attempt of every
// command; the executor must detect the losses via the per-command timeout,
// retry, and complete the plan with the invariants intact.
func TestSelfHealingRetryOnDrop(t *testing.T) {
	s := scenario.RunningExample()
	sp := reachSpec(s.Graph)
	_, _, p := pipeline(t, s, sp)
	s.Net.SetFaultInjector(dropFirstPush)
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	res, err := ex.ExecuteCtx(context.Background(), plan.Single(p))
	if err != nil {
		t.Fatalf("execution failed despite retries: %v", err)
	}
	if res.Recovery.Retries == 0 {
		t.Error("no retries recorded although every first attempt was dropped")
	}
	if res.Recovery.Escalations != 0 {
		t.Errorf("escalations = %d, want 0 (retries suffice)", res.Recovery.Escalations)
	}
	n6 := s.Graph.MustNode("n6")
	for _, n := range s.Net.Graph().Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress != n6 {
			t.Errorf("node %d not on final egress after self-healed run", n)
		}
	}
	verifyTrace(t, s, sp, res)
}

// TestSelfHealingPartialAck loses the acknowledgment of every first
// attempt. Commands with a Verify readback must be confirmed through it
// (counted as AcksLost) without blind re-pushing; the ack-only originals
// recover via retry.
func TestSelfHealingPartialAck(t *testing.T) {
	s := scenario.RunningExample()
	sp := reachSpec(s.Graph)
	_, _, p := pipeline(t, s, sp)
	s.Net.SetFaultInjector(faultScript(func(_ topology.NodeID, _ string, attempt int) sim.CommandFault {
		if attempt == 0 {
			return sim.CommandFault{Kind: sim.FaultPartial}
		}
		return sim.CommandFault{}
	}))
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	res, err := ex.ExecuteCtx(context.Background(), plan.Single(p))
	if err != nil {
		t.Fatalf("execution failed: %v", err)
	}
	if res.Recovery.AcksLost == 0 {
		t.Error("no lost acks recovered via readback although every step ack was lost")
	}
	verifyTrace(t, s, sp, res)
}

// TestSelfHealingEscalation makes one command fail persistently (every
// attempt dropped). The ladder must exhaust retries and re-push, then
// escalate to a visible error under ReactIgnore — never a silent hang or
// success.
func TestSelfHealingEscalation(t *testing.T) {
	s := scenario.RunningExample()
	_, _, p := pipeline(t, s, reachSpec(s.Graph))
	if len(p.Setup) == 0 {
		t.Fatal("plan has no setup steps")
	}
	victim := p.Setup[0].Command.Description
	s.Net.SetFaultInjector(faultScript(func(_ topology.NodeID, desc string, _ int) sim.CommandFault {
		if desc == victim {
			return sim.CommandFault{Kind: sim.FaultDrop}
		}
		return sim.CommandFault{}
	}))
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	_, err := ex.ExecuteCtx(context.Background(), plan.Single(p))
	if err == nil {
		t.Fatal("persistently dropped command must fail the plan under ReactIgnore")
	}
	if !strings.Contains(err.Error(), "unconfirmed") {
		t.Errorf("err = %v, want an unconfirmed-command escalation", err)
	}
	rec := ex.Recovery()
	if rec.Retries == 0 || rec.Repushes == 0 || rec.Escalations == 0 {
		t.Errorf("ladder not fully climbed: %+v", rec)
	}
}

// TestAbortCancelsInFlight is the satellite regression test: commands
// still in flight when the plan is interrupted must be cancelled by Abort,
// so no stale configuration lands after the cleanup.
func TestAbortCancelsInFlight(t *testing.T) {
	rec := obs.New()
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(context.Background(), s.Net, s.FinalNetwork(), s.Prefix, s.Commands,
		nil, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Fire the monitor on the very first event: the remaining setup
	// commands are still scheduled when ErrReplanNeeded surfaces.
	opts := runtime.Options{Seed: 7}
	fired := false
	opts.Monitor = func(*sim.Network) string {
		if fired {
			return ""
		}
		fired = true
		return "test alarm"
	}
	opts.Reaction = runtime.ReactReplan
	ex := runtime.NewExecutor(s.Net, opts)
	if _, err := ex.ExecuteCtx(context.Background(), plan.Single(pl.Plan)); !errors.Is(err, runtime.ErrReplanNeeded) {
		t.Fatalf("err = %v, want ErrReplanNeeded", err)
	}
	ex.Abort(pl.Plan)
	if rec.Counter(obs.CtrCommandsCancelled) == 0 {
		t.Fatal("test needs in-flight commands at interruption to be meaningful")
	}
	if got := s.Net.CancelPendingCommands(); got != 0 {
		t.Errorf("%d commands still pending after abort", got)
	}
	if !s.Net.Converged() {
		t.Error("network not converged after abort")
	}
	// No stale transient configuration: every ingress route map of every
	// internal node must be empty again (the scenario starts with none and
	// the original command never ran).
	for _, n := range s.Graph.Internal() {
		for _, nb := range s.Net.Sessions(n) {
			if rm := s.Net.RouteMapOf(n, nb, sim.In); rm.Len() != 0 {
				t.Errorf("stale route map at n%d (from n%d) after abort: %s",
					int(n), int(nb), rm)
			}
		}
	}
	for _, sess := range pl.Plan.TempSessions {
		if _, up := s.Net.HasSession(sess.A, sess.B); up {
			t.Errorf("temp session %v survived abort", sess)
		}
	}
}

// TestReplanRoundTrip drives the full §8 reaction-2 cycle
// deterministically: monitor fires → ErrReplanNeeded → Abort releases the
// transient state → re-analyze the live network → a fresh plan executes
// cleanly to the final configuration.
func TestReplanRoundTrip(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(context.Background(), s.Net, s.FinalNetwork(), s.Prefix, s.Commands,
		nil, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := runtime.Options{Seed: 7}
	fired := false
	opts.Monitor = func(*sim.Network) string {
		if fired {
			return ""
		}
		fired = true
		return "test alarm"
	}
	opts.Reaction = runtime.ReactReplan
	ex := runtime.NewExecutor(s.Net, opts)
	if _, err := ex.ExecuteCtx(context.Background(), plan.Single(pl.Plan)); !errors.Is(err, runtime.ErrReplanNeeded) {
		t.Fatalf("err = %v, want ErrReplanNeeded (deterministic monitor)", err)
	}
	ex.Abort(pl.Plan)
	if !s.Net.Converged() {
		t.Fatal("network not converged after abort")
	}

	// Replan from the current (restored) state towards the same target.
	final := s.Net.Clone()
	for _, cmd := range s.Commands {
		cmd.Apply(final)
	}
	final.Run()
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, final, s.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduler.ScheduleCtx(context.Background(), a, eval.ReachabilitySpec(s.Graph), scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan.Compile(a, sched, s.Commands)
	if err != nil {
		t.Fatal(err)
	}
	ex2 := runtime.NewExecutor(s.Net, runtime.Options{Seed: 8})
	res, err := ex2.ExecuteCtx(context.Background(), plan.Single(p2))
	if err != nil {
		t.Fatalf("replanned execution failed: %v", err)
	}
	if res.Recovery.Any() {
		t.Logf("replanned run recovery stats: %+v", res.Recovery)
	}
	for _, n := range s.Graph.Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress == s.E1 {
			t.Errorf("node %d not on a final egress after replan round-trip", n)
		}
	}
	st := s.Net.ForwardingState(s.Prefix)
	for _, n := range s.Graph.Internal() {
		if !st.Reach(n) {
			t.Errorf("node %d unreachable after replan round-trip", n)
		}
	}
}
