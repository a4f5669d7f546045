package runtime_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"chameleon/internal/analyzer"
	"chameleon/internal/eval"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
)

// reachMonitor flags a harmful event once any internal node black-holes.
func reachMonitor(s *scenario.Scenario) func(*sim.Network) string {
	return func(n *sim.Network) string {
		st := n.ForwardingState(s.Prefix)
		for _, node := range n.Graph().Internal() {
			if !st.Reach(node) {
				return "reach"
			}
		}
		return ""
	}
}

// buildWithSpareE3Withdrawal sets up the Abilene scenario and schedules a
// mid-reconfiguration withdrawal of BOTH remaining egress routes except e3,
// creating a genuine best-route loss that the plan cannot mask.
func e2e3Withdrawal(t *testing.T, reaction runtime.ReactionPolicy) (*scenario.Scenario, *runtime.Result, error) {
	t.Helper()
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
	opts.Monitor = reachMonitor(s)
	opts.Reaction = reaction
	// Withdrawing e2's external route mid-update removes the new best
	// route many nodes are being migrated to.
	opts.ExternalEvents = []runtime.ScheduledEvent{{
		After: 30 * time.Second,
		Name:  "withdraw e2's route",
		Apply: func(n *sim.Network) {
			n.WithdrawExternalRoute(s.Ext[1], s.Prefix)
		},
	}}
	ex := runtime.NewExecutor(s.Net, opts)
	res, err := ex.ExecuteCtx(context.Background(), plan.Single(pl.Plan))
	return s, res, err
}

func TestSupervisionIgnorePolicy(t *testing.T) {
	// Default policy: the withdrawal is absorbed; the plan either
	// completes or deadlocks on a condition that can no longer hold.
	s, res, err := e2e3Withdrawal(t, runtime.ReactIgnore)
	if err != nil {
		t.Logf("plan stuck as expected under ignore policy: %v", err)
		return
	}
	// If it completed, the network must still be fully converged.
	_ = res
	if !s.Net.Converged() {
		t.Error("network not converged")
	}
}

func TestSupervisionReplanPolicy(t *testing.T) {
	s, _, err := e2e3Withdrawal(t, runtime.ReactReplan)
	if err == nil {
		t.Skip("withdrawal did not break the invariant for this timing; nothing to replan")
	}
	if !errors.Is(err, runtime.ErrReplanNeeded) {
		t.Fatalf("err = %v, want ErrReplanNeeded", err)
	}
	// §8 reaction 2: abort (release transient state), reconverge, replan
	// from the current network towards the final configuration.
	// The aborted plan's pins are removed by compiling a throwaway abort:
	// here we simply remove route-map overrides via a fresh executor
	// Abort using the original plan.
	pl, err := plan.Build(context.Background(), s.Net, s.FinalNetwork(), s.Prefix, s.Commands,
		nil, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 8})
	ex.Abort(pl.Plan)
	if !s.Net.Converged() {
		t.Fatal("network not converged after abort")
	}
	// Replan: current state → final state (apply the original command on
	// a clone to obtain the target).
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
	if _, err := ex.ExecuteCtx(context.Background(), plan.Single(p2)); err != nil {
		t.Fatalf("replanned execution failed: %v", err)
	}
	for _, n := range s.Graph.Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress == s.E1 {
			t.Errorf("node %d not on a final egress after replan", n)
		}
	}
}

func TestAbortReleasesState(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(context.Background(), s.Net, s.FinalNetwork(), s.Prefix, s.Commands,
		nil, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 7})
	// Run only setup by executing and interrupting via monitor on first
	// event with replan policy.
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
	ex2 := runtime.NewExecutor(s.Net, opts)
	if _, err := ex2.ExecuteCtx(context.Background(), plan.Single(pl.Plan)); !errors.Is(err, runtime.ErrReplanNeeded) {
		t.Fatalf("err = %v, want ErrReplanNeeded", err)
	}
	ex.Abort(pl.Plan)
	// After abort, no temporary sessions may remain.
	for _, sess := range pl.Plan.TempSessions {
		if _, up := s.Net.HasSession(sess.A, sess.B); up {
			t.Errorf("temp session %v survived abort", sess)
		}
	}
}
