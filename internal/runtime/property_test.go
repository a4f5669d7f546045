package runtime_test

import (
	"testing"

	"chameleon/internal/analyzer"
	"chameleon/internal/eval"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
)

// TestPipelinePropertyRandomScenarios is the end-to-end fuzz: random
// (topology, seed) scenarios run through analyze → schedule → compile →
// execute, asserting on the actual message-level trace that (1) the
// specification holds in every transient state, (2) each node changes its
// next hop at most once, (3) the network ends in the predicted final state.
func TestPipelinePropertyRandomScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("property fuzz skipped in -short")
	}
	topos := []string{"Basnet", "Heanet", "Getnet", "Sanren", "Epoch",
		"Globalcenter", "Gridnet", "Compuserve", "EEnet", "Claranet"}
	ran := 0
	for _, name := range topos {
		for seed := uint64(1); seed <= 3; seed++ {
			name, seed := name, seed
			t.Run(name+"/"+string(rune('0'+seed)), func(t *testing.T) {
				s, err := scenario.CaseStudy(name, scenario.Config{Seed: seed})
				if err != nil {
					t.Skipf("scenario: %v", err)
				}
				a, err := analyzer.Analyze(s.Net, s.FinalNetwork(), s.Prefix)
				if err != nil {
					t.Fatalf("analyze: %v", err)
				}
				sp := eval.Eq4Spec(a, s.E1)
				pl, err := eval.BuildPipeline(s, eval.SpecEq4, scheduler.DefaultOptions())
				if err != nil {
					t.Fatalf("pipeline: %v", err)
				}
				ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: seed})
				res, err := ex.Execute(pl.Plan)
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				// (1) Spec over the executed trace.
				states := executionStates(t, s, res)
				if !sp.Eval(states) {
					t.Fatal("spec violated by the executed trace")
				}
				// (2) At most one next-hop change per node.
				for _, n := range s.Graph.Internal() {
					changes := 0
					for i := 1; i < len(states); i++ {
						if states[i][n] != states[i-1][n] {
							changes++
						}
					}
					if changes > 1 {
						t.Errorf("node %d changed its next hop %d times", n, changes)
					}
				}
				// (3) Final state matches the prediction.
				if !s.Net.ForwardingState(s.Prefix).Equal(a.NHNew) {
					t.Error("network did not end in the predicted final state")
				}
				ran++
			})
		}
	}
	t.Logf("fuzzed %d scenario instances", ran)
}
