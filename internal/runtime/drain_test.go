package runtime_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"chameleon"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
)

// A phase ends when BGP is quiescent: no message in flight and no command
// pending. A timer — an external event, a flap's hold-down — is neither:
// it fires when the clock reaches it, inside whatever phase is running then,
// and never ends a phase early or holds one open. The tests below hold
// that on the running example and on Abilene.

func drainScenarios(t *testing.T) []*scenario.Scenario {
	t.Helper()
	abilene, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return []*scenario.Scenario{scenario.RunningExample(), abilene}
}

// execClone runs p on a clone of s's network with the given external
// events, every first push of a command dropped when faulted.
func execClone(t *testing.T, s *scenario.Scenario, p *plan.Plan, faulted bool, events ...runtime.ScheduledEvent) (*runtime.Result, *sim.Network) {
	t.Helper()
	net := s.Net.Clone()
	if faulted {
		net.SetFaultInjector(dropFirstPush)
	}
	res, err := runtime.NewExecutor(net, runtime.Options{Seed: 7, ExternalEvents: events}).
		ExecuteCtx(context.Background(), plan.Single(p))
	if err != nil {
		t.Fatalf("%s faulted=%v: %v", s.Name, faulted, err)
	}
	return res, net
}

// TestFarTimerLeavesPhasesAlone: a no-op event ten minutes out neither
// fires nor moves a phase, fault-free and with every first push dropped
// (the retries wait for their verification deadlines, not for the timer).
func TestFarTimerLeavesPhasesAlone(t *testing.T) {
	for _, s := range drainScenarios(t) {
		_, _, p := pipeline(t, s, reachSpec(s.Graph))
		for _, faulted := range []bool{false, true} {
			fired := false
			base, _ := execClone(t, s, p, faulted)
			res, net := execClone(t, s, p, faulted, runtime.ScheduledEvent{
				After: 10 * time.Minute, Name: "no-op",
				Apply: func(*sim.Network) { fired = true },
			})
			if !reflect.DeepEqual(res.Phases, base.Phases) || res.End != base.End {
				t.Errorf("%s faulted=%v: phases with a +10 min timer\n%v (end %v)\nwant\n%v (end %v)",
					s.Name, faulted, res.Phases, res.End, base.Phases, base.End)
			}
			if fired || net.Pending() != 1 {
				t.Errorf("%s faulted=%v: fired = %v, Pending = %d; want the timer still queued", s.Name, faulted, fired, net.Pending())
			}
		}
	}
}

// TestTimerFiresInsideRound: an event 30 s after the start fires on time,
// inside round 1.
func TestTimerFiresInsideRound(t *testing.T) {
	for _, s := range drainScenarios(t) {
		_, _, p := pipeline(t, s, reachSpec(s.Graph))
		var at time.Duration
		res, _ := execClone(t, s, p, false, runtime.ScheduledEvent{
			After: 30 * time.Second, Name: "no-op",
			Apply: func(n *sim.Network) { at = n.Now() },
		})
		if at != res.Start+30*time.Second {
			t.Errorf("%s: event fired at %v, want %v", s.Name, at, res.Start+30*time.Second)
		}
		// Strictly inside: a round that starts at the event's time did not
		// meet it in flight.
		r1 := res.Phases[1]
		if r1.Name != "round 1" || at <= r1.Start || at >= r1.End {
			t.Errorf("%s: event at %v, want inside round 1; phases %v", s.Name, at, res.Phases)
		}
	}
}

// TestMonitorOnlyObserves: the facade's run is the same with and without a
// monitor — phases, end, commands applied and every forwarding state.
func TestMonitorOnlyObserves(t *testing.T) {
	for _, name := range []string{"running-example", "Abilene"} {
		exec := func(watched bool) (*runtime.Result, *chameleon.Scenario) {
			s := chameleon.RunningExample()
			if name != "running-example" {
				var err error
				if s, err = chameleon.NewCaseStudy(name, chameleon.ScenarioConfig{Seed: 7}); err != nil {
					t.Fatal(err)
				}
			}
			r, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var opts chameleon.ExecOptions
			if watched {
				opts.Monitor = chameleon.NewMonitor(chameleon.MonitorConfig{Name: "watch", Invariants: chameleon.DefaultInvariants(s.Graph)})
			}
			res, err := r.ExecuteCtx(context.Background(), opts)
			if err != nil {
				t.Fatalf("%s watched=%v: %v", name, watched, err)
			}
			return res, s
		}
		bare, sb := exec(false)
		watched, sw := exec(true)
		if !reflect.DeepEqual(bare.Phases, watched.Phases) || bare.End != watched.End || bare.CommandsApplied != watched.CommandsApplied {
			t.Errorf("%s: unmonitored phases %v (end %v, %d commands)\nmonitored %v (end %v, %d commands)", name,
				bare.Phases, bare.End, bare.CommandsApplied, watched.Phases, watched.End, watched.CommandsApplied)
		}
		if !reflect.DeepEqual(sb.Net.Trace(sb.Prefix), sw.Net.Trace(sw.Prefix)) {
			t.Errorf("%s: forwarding traces differ with a monitor attached", name)
		}
	}
}

// TestSelfReschedulingCommandIsStuck: a command that re-schedules itself
// forever keeps BGP from settling, so the phase it starts in — setup, or a
// Between slot — ends in the stuck reaction once the watchdog
// (conditionTimeout, 120 s) runs out; no phase, an empty slot included,
// spins on the chain.
func TestSelfReschedulingCommandIsStuck(t *testing.T) {
	s := scenario.RunningExample()
	node := s.Graph.Internal()[0]
	var again sim.Command
	again = sim.Command{Node: node, Description: "again",
		Apply: func(n *sim.Network) { n.ScheduleCommand(time.Second, again, 0) }}
	start := sim.Command{Node: node, Description: "start the chain", Apply: again.Apply}
	for _, c := range []struct {
		name string
		plan plan.Plan
	}{
		{"setup", plan.Plan{Prefix: s.Prefix, Setup: []plan.Step{{Command: start}}, Between: [][]sim.Command{{}}}},
		{"between 0", plan.Plan{Prefix: s.Prefix, Between: [][]sim.Command{{start}}}},
	} {
		net := s.Net.Clone()
		t0 := net.Now()
		_, err := runtime.NewExecutor(net, runtime.Options{Seed: 1, Reaction: runtime.ReactReplan}).
			ExecuteCtx(context.Background(), plan.Single(&c.plan))
		var re *runtime.ReplanError
		if !errors.As(err, &re) || re.Cause == nil {
			t.Fatalf("%s: err = %v, want the stuck reaction", c.name, err)
		}
		// The chain starts when its command applies (≤ 12 s) and the
		// watchdog runs from there; one more link trips it.
		if bound := t0 + 12*time.Second + 120*time.Second + time.Second; re.SimTime > bound {
			t.Errorf("%s: stuck at %v, want by %v", c.name, re.SimTime, bound)
		}
	}
}
