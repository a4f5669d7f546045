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

// TestPlanIsMultiPlanOfOne: plan.Single(p) and plan.Align of p alone — the
// multi-plan the facade's planner builds — are the same run: same Result,
// trace (counters included) and violation timeline, fault-free and with
// every first push of a command dropped.
func TestPlanIsMultiPlanOfOne(t *testing.T) {
	abilene, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*scenario.Scenario{scenario.RunningExample(), abilene} {
		_, _, p := pipeline(t, s, reachSpec(s.Graph))
		for _, faulted := range []bool{false, true} {
			type run struct {
				res             *runtime.Result
				trace, timeline string
			}
			exec := func(aligned bool) run {
				// The plan's commands are closures over node IDs: it runs on
				// any clone of the network it was compiled for.
				net := s.Net.Clone()
				if faulted {
					net.SetFaultInjector(dropFirstPush)
				}
				mon := monitor.New(monitor.Config{Name: "one-body", Invariants: []monitor.Invariant{monitor.ReachAll(s.Graph), monitor.LoopFree()}})
				defer mon.Bind(net)()
				rec := obs.New()
				ex := runtime.NewExecutor(net, runtime.Options{Seed: 7})
				mp := plan.Single(p)
				var err error
				if aligned {
					if mp, err = plan.Align([]*plan.Plan{p}, s.Commands); err != nil {
						t.Fatal(err)
					}
				}
				var out run
				if out.res, err = ex.ExecuteCtx(obs.WithRecorder(context.Background(), rec), mp); err != nil {
					t.Fatalf("%s faulted=%v aligned=%v: %v", s.Name, faulted, aligned, err)
				}
				var tr, tl bytes.Buffer
				if err := rec.WriteJSONL(&tr); err != nil {
					t.Fatal(err)
				}
				if err := mon.Finish(net.Now()).WriteJSONL(&tl); err != nil {
					t.Fatal(err)
				}
				out.trace, out.timeline = tr.String(), tl.String()
				return out
			}
			single, viaAlign := exec(false), exec(true)
			if faulted && single.res.Recovery.Retries == 0 {
				t.Errorf("%s: no retry although every first push was dropped", s.Name)
			}
			if !reflect.DeepEqual(single.res, viaAlign.res) {
				t.Errorf("%s faulted=%v: results differ:\n%+v\n%+v", s.Name, faulted, single.res, viaAlign.res)
			}
			if single.trace != viaAlign.trace {
				t.Errorf("%s faulted=%v: trace JSONL differs:\n%s\nvs\n%s", s.Name, faulted, single.trace, viaAlign.trace)
			}
			if single.timeline != viaAlign.timeline {
				t.Errorf("%s faulted=%v: violation timelines differ:\n%s\nvs\n%s", s.Name, faulted, single.timeline, viaAlign.timeline)
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
	dry, err := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1}).ExecuteCtx(context.Background(), mp)
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
		_, err := ex.ExecuteCtx(context.Background(), mp)
		var re *runtime.ReplanError
		if !errors.As(err, &re) {
			t.Fatalf("alarm in %q: err = %v, want a ReplanError", phase, err)
		}
		if re.Prefix != prefix {
			t.Errorf("alarm in %q: ReplanError.Prefix = %d, want %d", phase, re.Prefix, prefix)
		}
	}
}
