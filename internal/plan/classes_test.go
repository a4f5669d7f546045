package plan_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"chameleon/internal/analyzer"
	"chameleon/internal/eval"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/spec"
)

// multiClass builds the Abilene case study with three extra prefixes: one
// shares the base prefix's equivalence class and two form classes of their
// own.
func multiClass(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7, ExtraPrefixes: 3})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuildClassesSpecPerClass: each class is scheduled under the
// specification derived from its own analysis. Under Eq. 4 (waypoint e1
// until the final egress), Abilene with three extra prefixes plans as three
// classes of 2, 1 and 1 members, each at R = 4, aligned on the shared
// original command.
func TestBuildClassesSpecPerClass(t *testing.T) {
	s := multiClass(t)
	specFor := eval.Eq4For(s.E1)
	classes, mp, err := plan.BuildClasses(context.Background(), s.Net, s.FinalNetwork(), s.AllPrefixes(),
		s.Commands, specFor, scheduler.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var members []int
	for i, pc := range classes {
		members = append(members, len(pc.Class.Members))
		if pc.Schedule.R != 4 {
			t.Errorf("class %d: R = %d, want 4", i, pc.Schedule.R)
		}
		if err := scheduler.Validate(pc.Analysis, specFor(pc.Analysis), pc.Schedule); err != nil {
			t.Errorf("class %d: schedule fails its own specification: %v", i, err)
		}
	}
	if got := fmt.Sprint(members); got != "[2 1 1]" {
		t.Errorf("class sizes %s, want [2 1 1]", got)
	}
	if len(mp.Plans) != len(s.AllPrefixes()) || len(mp.Order) != len(s.Commands) {
		t.Errorf("multi-plan has %d plans and %d ordered originals, want %d and %d",
			len(mp.Plans), len(mp.Order), len(s.AllPrefixes()), len(s.Commands))
	}
}

// TestBuildClassesSinglePrefix: one prefix plans as one class, the
// multi-plan of one, exactly as Build plans it.
func TestBuildClassesSinglePrefix(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	classes, mp, err := plan.BuildClasses(ctx, s.Net, s.FinalNetwork(), s.AllPrefixes(), s.Commands,
		nil, scheduler.DefaultOptions(), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := plan.Build(ctx, s.Net, s.FinalNetwork(), s.Prefix, s.Commands, nil, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 1 || len(mp.Plans) != 1 {
		t.Fatalf("%d classes, %d plans, want 1 and 1", len(classes), len(mp.Plans))
	}
	if got, want := render(mp), render(plan.Single(b.Plan)); got != want {
		t.Errorf("BuildClasses plans\n%s\nBuild plans\n%s", got, want)
	}
}

// render fingerprints a multi-plan as text: plans embed sim.Command func
// values, which reflect.DeepEqual never equates.
func render(mp *plan.MultiPlan) string {
	var b strings.Builder
	for _, p := range mp.Plans {
		b.WriteString(p.String())
		fmt.Fprintf(&b, "slots: %v\n", p.OriginalSlots)
	}
	fmt.Fprintf(&b, "order: %v\n", mp.Order)
	return b.String()
}

// TestBuildClassesWorkerInvariance: planning the same prefixes on 1, 4 and
// NumCPU workers yields byte-identical trace dumps and identical plans —
// workers change wall-clock time, never the output.
func TestBuildClassesWorkerInvariance(t *testing.T) {
	dump := func(workers int) (trace, plans string) {
		s := multiClass(t)
		rec := obs.New()
		ctx := obs.WithRecorder(context.Background(), rec)
		sp := eval.ReachabilitySpec(s.Graph)
		_, mp, err := plan.BuildClasses(ctx, s.Net, s.FinalNetwork(), s.AllPrefixes(), s.Commands,
			func(*analyzer.Analysis) *spec.Spec { return sp }, scheduler.DefaultOptions(), workers)
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("%d workers: trace ill-formed: %v", workers, err)
		}
		var tr bytes.Buffer
		if err := rec.WriteJSONL(&tr); err != nil {
			t.Fatal(err)
		}
		return tr.String(), render(mp)
	}
	baseTrace, basePlans := dump(1)
	if !strings.Contains(baseTrace, `"class 2"`) {
		t.Fatalf("no class fork adopted in the trace:\n%s", baseTrace)
	}
	for _, workers := range []int{4, runtime.NumCPU()} {
		trace, plans := dump(workers)
		if trace != baseTrace {
			t.Errorf("%d workers: trace JSONL differs from the sequential run", workers)
		}
		if plans != basePlans {
			t.Errorf("%d workers: plans differ from the sequential run:\n%s\nvs\n%s", workers, plans, basePlans)
		}
	}
}
