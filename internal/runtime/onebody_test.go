package runtime_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"chameleon/internal/bgp"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
)

// TestPlanIsMultiPlanOfOne: ExecuteCtx(p) and ExecuteMultiCtx(plan.Single(p))
// are the same run — same Result, trace, violation timeline and counters —
// fault-free and with every first push of a command dropped.
func TestPlanIsMultiPlanOfOne(t *testing.T) {
	abilene, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*scenario.Scenario{scenario.RunningExample(), abilene} {
		_, _, p := pipeline(t, s, reachSpec(s.Graph))
		for _, faulted := range []bool{false, true} {
			type run struct {
				res                    *runtime.Result
				trace, timeline, count string
			}
			exec := func(multi bool) run {
				// The plan's commands are closures over node IDs: it runs on
				// any clone of the network it was compiled for.
				net := s.Net.Clone()
				if faulted {
					net.SetFaultInjector(dropFirstPush)
				}
				mon := monitor.New(monitor.Config{Name: "one-body", Invariants: []monitor.Invariant{monitor.ReachAll(s.Graph), monitor.LoopFree()}})
				defer mon.Bind(net)()
				opts := runtime.Options{Seed: 7}
				opts.Recorder = obs.New()
				opts.PhaseObserver = mon.SetPhase
				opts.Convergence = mon.Gate()
				ex := runtime.NewExecutor(net, opts)
				var out run
				var err error
				if multi {
					out.res, err = ex.ExecuteMultiCtx(context.Background(), plan.Single(p))
				} else {
					out.res, err = ex.ExecuteCtx(context.Background(), p)
				}
				if err != nil {
					t.Fatalf("%s faulted=%v multi=%v: %v", s.Name, faulted, multi, err)
				}
				var tr, tl, m bytes.Buffer
				if err := opts.Recorder.WriteJSONL(&tr); err != nil {
					t.Fatal(err)
				}
				if err := mon.Finish(net.Now()).WriteJSONL(&tl); err != nil {
					t.Fatal(err)
				}
				if err := opts.Recorder.WriteMetrics(&m); err != nil {
					t.Fatal(err)
				}
				out.trace, out.timeline, out.count = tr.String(), tl.String(), m.String()
				return out
			}
			one, many := exec(false), exec(true)
			if faulted && one.res.Recovery.Retries == 0 {
				t.Errorf("%s: no retry although every first push was dropped", s.Name)
			}
			if !reflect.DeepEqual(one.res, many.res) {
				t.Errorf("%s faulted=%v: results differ:\n%+v\n%+v", s.Name, faulted, one.res, many.res)
			}
			if one.trace != many.trace {
				t.Errorf("%s faulted=%v: trace JSONL differs:\n%s\nvs\n%s", s.Name, faulted, one.trace, many.trace)
			}
			if one.timeline != many.timeline {
				t.Errorf("%s faulted=%v: violation timelines differ:\n%s\nvs\n%s", s.Name, faulted, one.timeline, many.timeline)
			}
			if one.count != many.count {
				t.Errorf("%s faulted=%v: counters differ:\n%s\nvs\n%s", s.Name, faulted, one.count, many.count)
			}
		}
	}
}

// alarmIn returns ReactReplan executor options whose Monitor raises one
// alarm, at the first simulated event inside the named phase of the
// two-prefix run: a fault-free run of the same plan under the same seed says
// when that is.
func alarmIn(t *testing.T, phase string) runtime.Options {
	t.Helper()
	s, mp := alignedTwoPrefixes(t)
	dry, err := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1}).ExecuteMultiCtx(context.Background(), mp)
	if err != nil {
		t.Fatal(err)
	}
	opts := runtime.Options{Seed: 1, Reaction: runtime.ReactReplan}
	for _, ph := range dry.Phases {
		if ph.Name != phase {
			continue
		}
		fired := false
		opts.Monitor = func(n *sim.Network) string {
			if fired || n.Now() <= ph.Start {
				return ""
			}
			fired = true
			return "test alarm"
		}
		return opts
	}
	t.Fatalf("no phase %q in %v", phase, dry.Phases)
	return opts
}

func alignedTwoPrefixes(t *testing.T) (*scenario.Scenario, *plan.MultiPlan) {
	t.Helper()
	s := twoPrefixExample(t)
	mp, err := plan.Align([]*plan.Plan{planFor(t, s, 0), planFor(t, s, 1)}, s.Commands)
	if err != nil {
		t.Fatal(err)
	}
	return s, mp
}

// TestMultiReplanErrorNamesRunningPlan: under ReactReplan the error carries
// the prefix of the destination whose round the alarm interrupted.
func TestMultiReplanErrorNamesRunningPlan(t *testing.T) {
	for _, prefix := range []bgp.Prefix{0, 1} {
		s, mp := alignedTwoPrefixes(t)
		phase := "d0 round 2"
		if prefix == 1 {
			phase = "d1 round 2"
		}
		ex := runtime.NewExecutor(s.Net, alarmIn(t, phase))
		_, err := ex.ExecuteMultiCtx(context.Background(), mp)
		var re *runtime.ReplanError
		if !errors.As(err, &re) {
			t.Fatalf("alarm in %q: err = %v, want a ReplanError", phase, err)
		}
		if re.Prefix != prefix {
			t.Errorf("alarm in %q: ReplanError.Prefix = %d, want %d", phase, re.Prefix, prefix)
		}
	}
}
