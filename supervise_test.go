package chameleon_test

import (
	"context"
	"path/filepath"
	"testing"

	chameleon "chameleon"
	"chameleon/internal/plan"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// facadeDropAll loses every command.
type facadeDropAll struct{}

func (facadeDropAll) CommandFault(_ topology.NodeID, _ string, _ int) sim.CommandFault {
	return sim.CommandFault{Kind: sim.FaultDrop}
}

func TestFacadeSupervise(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "journal.jsonl")
	s := chameleon.RunningExample()
	res, err := chameleon.SuperviseCtx(context.Background(), s, chameleon.SuperviseOptions{
		Seed:        7,
		JournalPath: jpath,
		InjectorFactory: func(attempt int) sim.FaultInjector {
			if attempt == 0 {
				return facadeDropAll{}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != chameleon.OutcomeFinal || !res.Verified {
		t.Fatalf("Outcome = %v (verified %v), want verified final", res.Outcome, res.Verified)
	}
	if res.Replans != 1 {
		t.Errorf("Replans = %d, want 1 (attempt 0 was faulted)", res.Replans)
	}

	// Resuming the finished journal reconstructs the same outcome.
	res2, err := chameleon.ResumeSupervised(context.Background(), chameleon.RunningExample(),
		chameleon.SuperviseOptions{Seed: 7, JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed || res2.Outcome != res.Outcome {
		t.Errorf("resume: %+v, want resumed %v", res2, res.Outcome)
	}
}

// TestSuperviseWatchesEveryPrefix: a supervised multi-class run plans,
// executes and watches every destination. On Abilene with three extra
// prefixes (three classes, four destinations) it ends in the verified final
// configuration with no violation on any prefix; a supervisor that plans
// only the base prefix leaves the other three black-holing while the
// original command lands.
func TestSuperviseWatchesEveryPrefix(t *testing.T) {
	s := multiClassScenario(t)
	res, err := chameleon.SuperviseCtx(context.Background(), s, chameleon.SuperviseOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != chameleon.OutcomeFinal || !res.Verified {
		t.Fatalf("Outcome = %v (verified %v), want verified final", res.Outcome, res.Verified)
	}
	for _, tl := range res.Timelines {
		if tl.StatesChecked == 0 {
			t.Errorf("%s: no state checked", tl.Name)
		}
		for _, v := range tl.Violations {
			t.Errorf("%s: %s violated on prefix %d in %q for %v", tl.Name, v.Invariant, v.Prefix, v.Phase, v.End-v.Start)
		}
	}
}

// TestFacadeReleaseOnError: a failed execution with ReleaseOnError releases
// the plan's transient state (the executor's Abort — cleanup commands run
// exactly once); without the option the network is left as the error found
// it.
func TestFacadeReleaseOnError(t *testing.T) {
	run := func(release bool) (cleanups int) {
		s := chameleon.RunningExample()
		p := &chameleon.ReconfigurationPlan{
			Prefix:  s.Prefix,
			Between: [][]sim.Command{{s.Commands[0]}},
			Cleanup: []plan.Step{{
				Command: sim.Command{
					Node:        s.E1,
					Description: "remove temp override",
					Apply:       func(*sim.Network) { cleanups++ },
				},
			}},
		}
		rec := &chameleon.Reconfiguration{Scenario: s, Plan: p}
		s.Net.SetFaultInjector(facadeDropAll{})
		defer s.Net.SetFaultInjector(nil)
		_, err := rec.ExecuteCtx(context.Background(), chameleon.ExecOptions{ReleaseOnError: release})
		if err == nil {
			t.Fatal("expected the dropped command to fail the execution")
		}
		return cleanups
	}
	if got := run(true); got != 1 {
		t.Errorf("ReleaseOnError: cleanup ran %d times, want 1", got)
	}
	if got := run(false); got != 0 {
		t.Errorf("without ReleaseOnError: cleanup ran %d times, want 0", got)
	}
}
