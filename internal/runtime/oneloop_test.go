package runtime_test

import (
	"context"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// A Between slot runs through the same supervision loop as a round (its
// commands are steps without conditions), so what that loop does for a step
// it does for an original command. The three tests below each held a
// behaviour the slot's former private loop did not have.

// TestSlotReadbackBeforePushIsNoLostAck: a command whose readback already
// holds when it is pushed (the supervisor's rollback pushes the undo of
// every original, applied or not) is confirmed, but no acknowledgment was
// lost and no fault healed — in a slot as in a setup step.
func TestSlotReadbackBeforePushIsNoLostAck(t *testing.T) {
	s := scenario.RunningExample()
	noop := sim.Command{
		Node:        s.Graph.Internal()[0],
		Description: "already in place",
		Apply:       func(*sim.Network) {},
		Verify:      func(*sim.Network) bool { return true },
	}
	for _, c := range []struct {
		name string
		plan plan.Plan
	}{
		{"slot", plan.Plan{Prefix: s.Prefix, Between: [][]sim.Command{{noop}}}},
		{"setup", plan.Plan{Prefix: s.Prefix, Setup: []plan.Step{{Command: noop}}}},
	} {
		rec := obs.New()
		res, err := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1}).ExecuteCtx(obs.WithRecorder(context.Background(), rec), plan.Single(&c.plan))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.CommandsApplied != 1 {
			t.Errorf("%s: CommandsApplied = %d, want 1", c.name, res.CommandsApplied)
		}
		if lost, healed := res.Recovery.AcksLost, rec.Counter(obs.CtrFaultsHealed); lost != 0 || healed != 0 {
			t.Errorf("%s: AcksLost = %d, faults_healed = %d on a fault-free run, want 0 / 0", c.name, lost, healed)
		}
	}
}

// TestSlotRepushRefreshesLostConfiguration: ladder 2 re-pushes the stuck
// command and every confirmed command of the phase whose effect is no longer
// there (a session flap may have taken earlier state with it). The
// supervisor's commit and rollback rungs are one slot: without the refresh
// they report success with a confirmed command's effect gone.
func TestSlotRepushRefreshesLostConfiguration(t *testing.T) {
	s := scenario.RunningExample()
	node := s.Graph.Internal()[0]
	var a, b bool
	cmdA := sim.Command{Node: node, Description: "A",
		Apply: func(*sim.Network) { a = true }, Verify: func(*sim.Network) bool { return a }}
	cmdB := sim.Command{Node: node, Description: "B",
		Apply: func(*sim.Network) { b = true }, Verify: func(*sim.Network) bool { return b }}
	// B is dropped on its push and its three retries; A's effect vanishes
	// as B's third retry goes out, after A was confirmed.
	s.Net.SetFaultInjector(faultScript(func(_ topology.NodeID, desc string, attempt int) sim.CommandFault {
		if desc != "B" || attempt > 3 {
			return sim.CommandFault{}
		}
		if attempt == 3 {
			a = false
		}
		return sim.CommandFault{Kind: sim.FaultDrop}
	}))
	p := &plan.Plan{Prefix: s.Prefix, Between: [][]sim.Command{{cmdA, cmdB}}}
	res, err := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1}).ExecuteCtx(context.Background(), plan.Single(p))
	if err != nil {
		t.Fatal(err)
	}
	if !a || !b {
		t.Errorf("slot succeeded with A in place = %v, B in place = %v; want both", a, b)
	}
	if res.Recovery.Retries != 3 || res.Recovery.Repushes != 2 {
		t.Errorf("Retries = %d, Repushes = %d, want 3 and 2 (B, and A refreshed)", res.Recovery.Retries, res.Recovery.Repushes)
	}
}
