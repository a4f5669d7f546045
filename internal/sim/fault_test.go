package sim_test

import (
	"testing"
	"time"

	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// scriptInjector adapts plain closures to sim.FaultInjector.
type scriptInjector struct {
	cmd func(node topology.NodeID, desc string, attempt int) sim.CommandFault
	msg func(from, to topology.NodeID) sim.MessageFault
}

func (s scriptInjector) CommandFault(n topology.NodeID, d string, a int) sim.CommandFault {
	if s.cmd == nil {
		return sim.CommandFault{}
	}
	return s.cmd(n, d, a)
}

func (s scriptInjector) MessageFault(f, t topology.NodeID) sim.MessageFault {
	if s.msg == nil {
		return sim.MessageFault{}
	}
	return s.msg(f, t)
}

// countedCommand returns a no-op command whose applications are counted.
func countedCommand(node topology.NodeID, applied *int) sim.Command {
	return sim.Command{
		Node:        node,
		Description: "test command",
		Apply:       func(*sim.Network) { *applied++ },
	}
}

func TestScheduleCommandAcks(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	applied := 0
	tk := net.ScheduleCommand(10*time.Second, countedCommand(s.E1, &applied), 0)
	if tk.Acked() || tk.Applied() {
		t.Fatal("token acked before the command ran")
	}
	if net.PendingCommands() != 1 {
		t.Fatalf("pending = %d, want 1", net.PendingCommands())
	}
	net.Run()
	if applied != 1 {
		t.Fatalf("applied %d times, want 1", applied)
	}
	if !tk.Acked() || !tk.Applied() || tk.Dropped() {
		t.Errorf("token = acked %v applied %v dropped %v, want true/true/false",
			tk.Acked(), tk.Applied(), tk.Dropped())
	}
}

func TestCommandFaultDrop(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	net.SetFaultInjector(scriptInjector{
		cmd: func(topology.NodeID, string, int) sim.CommandFault {
			return sim.CommandFault{Kind: sim.FaultDrop}
		},
	})
	applied := 0
	tk := net.ScheduleCommand(10*time.Second, countedCommand(s.E1, &applied), 0)
	net.Run()
	if applied != 0 {
		t.Fatalf("dropped command applied %d times", applied)
	}
	if !tk.Dropped() || tk.Acked() {
		t.Errorf("token = dropped %v acked %v, want true/false", tk.Dropped(), tk.Acked())
	}
}

func TestCommandFaultDelay(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	net.SetFaultInjector(scriptInjector{
		cmd: func(topology.NodeID, string, int) sim.CommandFault {
			return sim.CommandFault{Kind: sim.FaultDelay, DelayFactor: 3}
		},
	})
	applied := 0
	start := net.Now()
	tk := net.ScheduleCommand(10*time.Second, countedCommand(s.E1, &applied), 0)
	if got, want := tk.ScheduledAt(), start+30*time.Second; got != want {
		t.Errorf("scheduled at %v, want %v (3× delay)", got, want)
	}
	net.RunUntil(start + 15*time.Second)
	if applied != 0 {
		t.Fatal("delayed command applied before its stretched latency")
	}
	net.Run()
	if applied != 1 || !tk.Acked() {
		t.Errorf("applied %d acked %v, want 1/true", applied, tk.Acked())
	}
}

func TestCommandFaultDuplicate(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	net.SetFaultInjector(scriptInjector{
		cmd: func(topology.NodeID, string, int) sim.CommandFault {
			return sim.CommandFault{Kind: sim.FaultDuplicate}
		},
	})
	applied := 0
	tk := net.ScheduleCommand(10*time.Second, countedCommand(s.E1, &applied), 0)
	net.Run()
	if applied != 2 {
		t.Fatalf("duplicated command applied %d times, want 2", applied)
	}
	if !tk.Acked() {
		t.Error("duplicate fault must still ack the primary application")
	}
}

func TestCommandFaultPartial(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	net.SetFaultInjector(scriptInjector{
		cmd: func(topology.NodeID, string, int) sim.CommandFault {
			return sim.CommandFault{Kind: sim.FaultPartial}
		},
	})
	applied := 0
	tk := net.ScheduleCommand(10*time.Second, countedCommand(s.E1, &applied), 0)
	net.Run()
	if applied != 1 {
		t.Fatalf("partial command applied %d times, want 1", applied)
	}
	if tk.Acked() {
		t.Error("partial fault must lose the acknowledgment")
	}
	if !tk.Applied() {
		t.Error("partial fault must still apply the effect")
	}
}

func TestCancelPendingCommands(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	applied := 0
	tk1 := net.ScheduleCommand(10*time.Second, countedCommand(s.E1, &applied), 0)
	tk2 := net.ScheduleCommand(20*time.Second, countedCommand(s.E1, &applied), 0)
	if got := net.CancelPendingCommands(); got != 2 {
		t.Fatalf("cancelled %d, want 2", got)
	}
	net.Run()
	if applied != 0 {
		t.Fatalf("cancelled commands applied %d times", applied)
	}
	if !tk1.Cancelled() || !tk2.Cancelled() {
		t.Error("tokens not marked cancelled")
	}
	if net.PendingCommands() != 0 {
		t.Errorf("pending = %d after cancel", net.PendingCommands())
	}
}

func TestCancelAlsoStopsDuplicates(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	net.SetFaultInjector(scriptInjector{
		cmd: func(topology.NodeID, string, int) sim.CommandFault {
			return sim.CommandFault{Kind: sim.FaultDuplicate}
		},
	})
	applied := 0
	net.ScheduleCommand(10*time.Second, countedCommand(s.E1, &applied), 0)
	net.CancelPendingCommands()
	net.Run()
	if applied != 0 {
		t.Fatalf("cancelled duplicate applied %d times", applied)
	}
}

func TestFlapSession(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	rr, client := s.RRs[0], s.E1 // n2 reflects for n1
	if _, up := net.HasSession(rr, client); !up {
		t.Fatalf("no session n%d–n%d to flap", int(rr), int(client))
	}
	if !net.FlapSession(rr, client, 20*time.Second) {
		t.Fatal("FlapSession returned false for an existing session")
	}
	if _, up := net.HasSession(rr, client); up {
		t.Fatal("session still up right after flap")
	}
	net.Run()
	if _, up := net.HasSession(rr, client); !up {
		t.Fatal("session not re-established after hold time")
	}
	// Routes must be back after reconvergence.
	st := net.ForwardingState(s.Prefix)
	for _, n := range net.Graph().Internal() {
		if !st.Reach(n) {
			t.Errorf("node %d unreachable after flap recovery", n)
		}
	}
}

func TestFlapSessionMissing(t *testing.T) {
	s := scenario.RunningExample()
	if s.Net.FlapSession(s.E1, s.E2, time.Second) {
		t.Error("FlapSession returned true for a non-existent session")
	}
}

// TestMessageFaultsPreserveConvergence runs the running example's
// reconfiguration under heavy message delay + duplication and checks the
// network converges to the same final state as a fault-free run: message
// faults perturb timing, never outcomes (per-session FIFO is preserved).
func TestMessageFaultsPreserveConvergence(t *testing.T) {
	clean := scenario.RunningExample()
	clean.Commands[0].Apply(clean.Net)
	clean.Net.Run()

	faulty := scenario.RunningExample()
	i := 0
	faulty.Net.SetFaultInjector(scriptInjector{
		msg: func(topology.NodeID, topology.NodeID) sim.MessageFault {
			i++
			switch i % 3 {
			case 0:
				return sim.MessageFault{Kind: sim.FaultDelay, DelayFactor: 4}
			case 1:
				return sim.MessageFault{Kind: sim.FaultDuplicate}
			}
			return sim.MessageFault{}
		},
	})
	faulty.Commands[0].Apply(faulty.Net)
	faulty.Net.Run()

	for _, n := range clean.Net.Graph().Internal() {
		want, okW := clean.Net.Best(n, clean.Prefix)
		got, okG := faulty.Net.Best(n, faulty.Prefix)
		if okW != okG || (okW && want.Egress != got.Egress) {
			t.Errorf("node %d: faulty run best = %v/%v, clean run %v/%v", n, got, okG, want, okW)
		}
	}
}

// TestStepInsideEventPanics: a scheduled function that drains the queue
// itself would apply every later event — here a command due 9 s later — at
// its own simulated time, with no supervision poll in between. Step refuses
// to be entered from inside an event.
func TestStepInsideEventPanics(t *testing.T) {
	s := scenario.RunningExample()
	net := s.Net
	applied := 0
	net.ScheduleCommand(10*time.Second, countedCommand(s.E1, &applied), 0)
	net.ScheduleAfter(time.Second, func(n *sim.Network) { n.Run() })
	defer func() {
		if recover() == nil {
			t.Error("Step entered from inside an event did not panic")
		}
		if applied != 0 {
			t.Errorf("the command due at 10 s was applied %d times by the drain at 1 s", applied)
		}
	}()
	net.Run()
}
