package runtime_test

import (
	"errors"
	"testing"

	"chameleon/internal/eval"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// TestReplanErrorAttribution checks that a Monitor alarm under ReactReplan
// surfaces as a structured ReplanError naming the firing invariant (the
// Monitor's return value) and stamped with prefix and simulated time — while
// remaining errors.Is-compatible with the bare sentinel.
func TestReplanErrorAttribution(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := eval.BuildPipeline(s, eval.SpecReachability, scheduler.DefaultOptions())
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
		return "reach-all"
	}
	opts.Reaction = runtime.ReactReplan
	ex := runtime.NewExecutor(s.Net, opts)
	_, err = ex.Execute(pl.Plan)
	if err == nil {
		t.Fatal("expected a replan error")
	}
	if !errors.Is(err, runtime.ErrReplanNeeded) {
		t.Fatalf("errors.Is(err, ErrReplanNeeded) = false for %v", err)
	}
	var re *runtime.ReplanError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(*ReplanError) = false for %T %v", err, err)
	}
	if re.Invariant != "reach-all" {
		t.Errorf("Invariant = %q, want %q", re.Invariant, "reach-all")
	}
	if re.Prefix != s.Prefix {
		t.Errorf("Prefix = %v, want %v", re.Prefix, s.Prefix)
	}
	if re.SimTime <= 0 {
		t.Errorf("SimTime = %v, want > 0", re.SimTime)
	}
	if re.Cause != nil {
		t.Errorf("Cause = %v, want nil for a monitor alarm", re.Cause)
	}
}

// TestReplanErrorCarriesEscalationCause checks that an exhausted escalation
// ladder under ReactReplan wraps the ladder's error as Cause.
func TestReplanErrorCarriesEscalationCause(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := eval.BuildPipeline(s, eval.SpecReachability, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := runtime.Options{Seed: 7}
	opts.Reaction = runtime.ReactReplan
	ex := runtime.NewExecutor(s.Net, opts)
	s.Net.SetFaultInjector(dropAll{})
	defer s.Net.SetFaultInjector(nil)
	_, err = ex.Execute(pl.Plan)
	if err == nil {
		t.Fatal("expected the ladder to exhaust under total command loss")
	}
	var re *runtime.ReplanError
	if !errors.As(err, &re) {
		t.Fatalf("errors.As(*ReplanError) = false for %T %v", err, err)
	}
	if re.Cause == nil {
		t.Error("Cause = nil, want the escalation-ladder error")
	}
}

// dropAll loses every command, never any message.
type dropAll struct{}

func (dropAll) CommandFault(_ topology.NodeID, _ string, _ int) sim.CommandFault {
	return sim.CommandFault{Kind: sim.FaultDrop}
}
func (dropAll) MessageFault(_, _ topology.NodeID) sim.MessageFault {
	return sim.MessageFault{Kind: sim.FaultNone}
}

// TestAbortIdempotent is the double-Abort regression test: aborting the same
// plan twice must run its cleanup commands exactly once.
func TestAbortIdempotent(t *testing.T) {
	s := scenario.RunningExample()
	s.Net.Run()
	applies := 0
	p := &plan.Plan{
		Prefix: s.Prefix,
		Cleanup: []plan.Step{{
			Command: sim.Command{
				Node:        s.E1,
				Description: "remove temp override",
				Apply:       func(*sim.Network) { applies++ },
			},
		}},
	}
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	ex.Abort(p)
	ex.Abort(p)
	if applies != 1 {
		t.Fatalf("cleanup applied %d times across a double Abort, want 1", applies)
	}
	// A different plan is a different release: its cleanup still runs.
	other := &plan.Plan{Prefix: s.Prefix, Cleanup: p.Cleanup}
	ex.Abort(other)
	if applies != 2 {
		t.Fatalf("cleanup applied %d times after aborting a second plan, want 2", applies)
	}
}
