package runtime_test

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"chameleon"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// TestExecuteRunsPhases: the executor runs mp.Phases() and nothing else —
// the execute span's children are its names in order, and Result.Phases is
// its phases less the synchronization points — on the running example (one
// plan, whose order is pinned too) and on Abilene with three extra prefixes
// (several destinations, several classes).
func TestExecuteRunsPhases(t *testing.T) {
	abilene3, err := chameleon.NewCaseStudy("Abilene", chameleon.ScenarioConfig{Seed: 7, ExtraPrefixes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		s    *chameleon.Scenario
		want []string // one plan's pinned phase order; nil for several
	}{
		{chameleon.RunningExample(), []string{"setup", "between 0", "round 1", "between 1", "round 2",
			"between 2", "round 3", "between 3", "round 4", "between 4", "cleanup"}},
		{abilene3, nil},
	} {
		r, err := chameleon.PlanCtx(context.Background(), tc.s, chameleon.PlanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mp := r.Multi
		if mp == nil {
			mp = plan.Single(r.Plan)
		}
		if multi := tc.want == nil; multi != (len(mp.Plans) > 1) {
			t.Fatalf("%s: %d destinations", tc.s.Name, len(mp.Plans))
		}
		var names, steps []string
		for _, ph := range mp.Phases() {
			names = append(names, ph.Name)
			if !ph.Sync {
				steps = append(steps, ph.Name)
			}
		}
		if tc.want != nil && !slices.Equal(names, tc.want) {
			t.Errorf("%s: Phases() = %v, want %v", tc.s.Name, names, tc.want)
		}

		rec := obs.New()
		res, err := runtime.NewExecutor(tc.s.Net.Clone(), runtime.Options{Seed: 7}).
			ExecuteCtx(obs.WithRecorder(context.Background(), rec), mp)
		if err != nil {
			t.Fatalf("%s: %v", tc.s.Name, err)
		}
		if got := executeChildren(t, rec); !slices.Equal(got, names) {
			t.Errorf("%s: execute span's children %v, want Phases() %v", tc.s.Name, got, names)
		}
		var got []string
		for _, ps := range res.Phases {
			got = append(got, ps.Name)
		}
		if !slices.Equal(got, steps) {
			t.Errorf("%s: Result.Phases %v, want the non-sync phases %v", tc.s.Name, got, steps)
		}
	}
}

// executeChildren returns the names of the execute span's children in the
// order they started.
func executeChildren(t *testing.T, rec *obs.Recorder) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var exec int
	var children []string
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var sp struct {
			Type       string
			ID, Parent int
			Name       string
		}
		if err := dec.Decode(&sp); err != nil {
			t.Fatal(err)
		}
		switch {
		case sp.Type != "span":
		case sp.Name == "execute":
			exec = sp.ID
		case exec != 0 && sp.Parent == exec:
			children = append(children, sp.Name)
		}
	}
	return children
}

// TestFailedPhaseErrorText: a failed setup, round or cleanup comes back as
// "runtime: <phase>: …", a failed synchronization point bare — supervisor
// journals and chaos fingerprints carry these texts.
func TestFailedPhaseErrorText(t *testing.T) {
	noop := sim.Command{Description: "x", Apply: func(*sim.Network) {}}
	never := plan.Condition{Kind: plan.CondKnows, Node: 0, Egress: topology.None}
	dropAll := faultScript(func(topology.NodeID, string, int) sim.CommandFault {
		return sim.CommandFault{Kind: sim.FaultDrop}
	})
	for _, tc := range []struct {
		p      *plan.Plan
		faults sim.FaultInjector
		prefix string
	}{
		{&plan.Plan{R: 1, Rounds: [][]plan.Step{{{Pre: []plan.Condition{never}, Command: noop}}}},
			nil, `runtime: round 1: pre-conditions never satisfied for "x"`},
		{&plan.Plan{Between: [][]sim.Command{{noop}}}, dropAll, `command "x" unconfirmed after`},
	} {
		net := scenario.RunningExample().Net
		if tc.faults != nil {
			net.SetFaultInjector(tc.faults)
		}
		_, err := runtime.NewExecutor(net, runtime.Options{Seed: 7}).ExecuteCtx(context.Background(), plan.Single(tc.p))
		if err == nil || !strings.HasPrefix(err.Error(), tc.prefix) {
			t.Errorf("ExecuteCtx = %v, want an error starting %q", err, tc.prefix)
		}
	}
}
