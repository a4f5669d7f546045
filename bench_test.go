// Benchmarks: one per table and figure of the paper's evaluation, plus the
// design-choice ablations called out in DESIGN.md. Each benchmark runs a
// scaled-down instance of the corresponding experiment so `go test -bench`
// stays laptop-sized; `cmd/evalharness` regenerates the full outputs.
package chameleon_test

import (
	"context"
	"testing"
	"time"

	"chameleon/internal/analyzer"
	"chameleon/internal/eval"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
)

// BenchmarkFig01AbileneCaseStudy runs the full Fig. 1 comparison: Snowcap's
// direct application (with its transient violations) vs Chameleon's safe
// plan, both with packet-level measurement.
func BenchmarkFig01AbileneCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := eval.RunCaseStudyCtx(context.Background(), "Abilene", 7)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Chameleon.Clean() {
			b.Fatal("chameleon violated the spec")
		}
	}
}

// BenchmarkFig06PhaseTimeline measures planning + execution of the Abilene
// case study, whose phase spans reproduce Fig. 6.
func BenchmarkFig06PhaseTimeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		pl, err := plan.Build(context.Background(), s.Net, s.FinalNetwork(), s.Prefix, s.Commands,
			eval.Eq4For(s.E1), scheduler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if pl.Schedule.R+2 < 3 {
			b.Fatal("degenerate plan")
		}
	}
}

// BenchmarkFig07SchedulingTime runs the Fig. 7 scheduling sweep over a
// fixed corpus slice spanning an order of magnitude in Cr. Besides time/op
// it reports solver effort per op (branch-and-bound nodes), which is the
// machine-independent cost axis Fig. 7 correlates with Cr.
func BenchmarkFig07SchedulingTime(b *testing.B) {
	names := []string{"Basnet", "Compuserve", "Aarnet", "Agis", "Arpanet19728"}
	rec := obs.New()
	ctx := obs.WithRecorder(context.Background(), rec)
	for i := 0; i < b.N; i++ {
		outs, err := eval.SweepSchedulingCtx(ctx, names, 7, scheduler.DefaultOptions(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("%s: %v", o.Name, o.Err)
			}
		}
	}
	b.ReportMetric(float64(rec.Counter(obs.CtrMILPNodes))/float64(b.N), "milp_nodes/op")
}

// BenchmarkParallelSweep measures the worker-pool speedup on the same
// corpus slice as Fig. 7: sequential vs one worker per CPU. The merged
// results are byte-identical either way; only wall-clock changes.
func BenchmarkParallelSweep(b *testing.B) {
	names := []string{"Basnet", "Compuserve", "Aarnet", "Agis", "Arpanet19728"}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"workers-1", 1}, {"workers-numcpu", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				outs, err := eval.SweepSchedulingCtx(context.Background(), names, 7, scheduler.DefaultOptions(), bc.workers, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range outs {
					if o.Err != nil {
						b.Fatalf("%s: %v", o.Name, o.Err)
					}
				}
			}
		})
	}
}

// BenchmarkFig08SpecComplexity measures the φn-vs-φt scheduling-time gap.
func BenchmarkFig08SpecComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, temporal := range []bool{false, true} {
			if _, err := eval.SpecComplexitySweepCtx(context.Background(), "Aarnet", temporal, true,
				[]float64{0, 1}, 2, 7); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig09ReconfTimeCDF computes the T̃ distribution over a corpus
// slice.
func BenchmarkFig09ReconfTimeCDF(b *testing.B) {
	names := []string{"Basnet", "Compuserve", "Sprint", "EEnet", "Aarnet"}
	for i := 0; i < b.N; i++ {
		outs, err := eval.SweepSchedulingCtx(context.Background(), names, 7, scheduler.DefaultOptions(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		var xs []float64
		for _, o := range outs {
			if o.Err == nil {
				xs = append(xs, o.EstimatedReconfTime.Seconds())
			}
		}
		if eval.NewDist(xs).FractionBelow(120) == 0 {
			b.Fatal("no scenario under two minutes")
		}
	}
}

// BenchmarkFig10TableOverhead measures Chameleon-vs-SITN table overhead.
func BenchmarkFig10TableOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs, err := eval.SweepTableOverheadCtx(context.Background(), []string{"Abilene", "Sprint"}, 7,
			scheduler.DefaultOptions(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			if o.Err != nil {
				b.Fatalf("%s: %v", o.Name, o.Err)
			}
			if o.Chameleon >= o.SITN {
				b.Fatal("chameleon overhead not below SITN")
			}
		}
	}
}

// BenchmarkFig11ExternalEvents runs both external-event experiments.
func BenchmarkFig11ExternalEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.RunLinkFailureExperimentCtx(context.Background(), "Abilene", 7, 7*time.Second); err != nil {
			b.Fatal(err)
		}
		r, err := eval.RunNewRouteExperimentCtx(context.Background(), "Abilene", 7, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if !r.ConvergedToE4 {
			b.Fatal("no convergence to e4")
		}
	}
}

// BenchmarkFig12SupplementaryCaseStudies runs the five App. C topologies.
func BenchmarkFig12SupplementaryCaseStudies(b *testing.B) {
	names := []string{"Compuserve", "HiberniaCanada", "Sprint", "JGN2plus", "EEnet"}
	for i := 0; i < b.N; i++ {
		for _, name := range names {
			res, err := eval.RunCaseStudyCtx(context.Background(), name, 7)
			if err != nil {
				b.Fatalf("%s: %v", name, err)
			}
			if !res.Chameleon.Clean() {
				b.Fatalf("%s: chameleon violated", name)
			}
		}
	}
}

// BenchmarkFig13LoopConstraintAblation compares explicit vs implicit loop
// constraints (App. D).
func BenchmarkFig13LoopConstraintAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, explicit := range []bool{true, false} {
			if _, err := eval.SpecComplexitySweepCtx(context.Background(), "Sprint", true, explicit,
				[]float64{0, 1}, 2, 7); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1CompilationRules compiles the Abilene plan, exercising the
// Table 1 rules.
func BenchmarkTable1CompilationRules(b *testing.B) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := plan.Build(context.Background(), s.Net, s.FinalNetwork(), s.Prefix, s.Commands,
			eval.Eq4For(s.E1), scheduler.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if pl.Plan.NumSteps() == 0 {
			b.Fatal("empty plan")
		}
	}
}

// BenchmarkTable2NamedTopologies schedules the smallest Table 2 topology
// (Deltacom, 113 routers) end to end; the full table is regenerated by
// `evalharness -table 2`.
func BenchmarkTable2NamedTopologies(b *testing.B) {
	if testing.Short() {
		b.Skip("113-node scheduling skipped in -short")
	}
	for i := 0; i < b.N; i++ {
		outs, err := eval.SweepSchedulingCtx(context.Background(), []string{"Deltacom"}, 7, scheduler.DefaultOptions(), 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if outs[0].Err != nil {
			b.Fatal(outs[0].Err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ----------------------------------------------

// BenchmarkAblationConstructive compares the ILP scheduler against the
// App. B constructive traversal for pure reachability.
func BenchmarkAblationConstructive(b *testing.B) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ilp", func(b *testing.B) {
		sp := eval.ReachabilitySpec(s.Graph)
		for i := 0; i < b.N; i++ {
			sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sched.R), "rounds")
		}
	})
	b.Run("constructive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sched, err := scheduler.ConstructiveReachability(a)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(sched.R), "rounds")
		}
	})
}

// BenchmarkSimulatorConvergence measures raw event-processing throughput of
// the BGP simulator substrate on a mid-sized network. sim_events/op counts
// every simulator event (deliveries and scheduled functions), msgs/op only
// the BGP deliveries: the routes they carried, one per message, as the case
// study announces one prefix.
func BenchmarkSimulatorConvergence(b *testing.B) {
	rec := obs.New()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.CaseStudy("Aarnet", scenario.Config{Seed: uint64(i + 1), Recorder: rec}); err != nil {
			b.Fatal(err)
		}
	}
	msgs := rec.Counter(obs.CtrBGPUpdates) + rec.Counter(obs.CtrBGPWithdraws)
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(rec.Counter(obs.CtrSimEvents))/float64(b.N), "sim_events/op")
}
