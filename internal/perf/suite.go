package perf

import (
	"context"
	"fmt"
	"time"

	"chameleon"
	"chameleon/internal/analyzer"
	"chameleon/internal/chaos"
	"chameleon/internal/eval"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
)

// SuiteVersion stamps the BENCH JSON. Bump it whenever an existing
// workload's definition changes, so -compare refuses to diff incomparable
// trajectories; adding new benchmarks needs no bump — Compare reports
// additions as OnlyNew instead of diffing them.
const SuiteVersion = 1

// suiteSeed pins every workload to the evaluation's canonical seed; the
// suite measures fixed scenarios, not seed distributions.
const suiteSeed = 7

// DefaultSuite returns the curated macro-benchmark suite. Each entry is an
// end-to-end workload from the paper's pipeline, sized to finish a
// repetition in well under a second on a laptop:
//
//   - analyzer/abilene       — happens-before extraction on the Abilene case study
//   - schedule/abilene       — ILP scheduling under the deterministic node budget
//   - schedule/classes       — class-decomposed facade planning of a
//     multi-prefix Abilene scenario (one schedule per equivalence class)
//   - schedule/classes-mono  — the monolithic baseline: every prefix of the
//     same scenario analyzed, scheduled and compiled independently
//   - sim-convergence/aarnet — raw simulator convergence of the Aarnet scenario
//   - plan-execute/…         — the full facade Plan+Execute on three case studies
//   - exec-replay/abilene    — a precomputed plan replayed on a clone under a monitor
//   - monitor/snapshot       — a recorded Aarnet execution trace through a fresh monitor
//   - chaos/smoke            — one fault-injected execution with recovery
//   - prefix-scale/…         — 100k-prefix what-if probes and 10k-prefix
//     storm convergence (route-by-route vs batched injection); see
//     prefixscale.go
//
// All workloads are seeded and deterministic, so their domain counters
// (solver nodes, sim events, BGP messages) repeat exactly; only wall time
// and allocation figures vary between runs.
func DefaultSuite() []Benchmark {
	return []Benchmark{
		{Name: "analyzer/abilene", Setup: analyzerBench("Abilene")},
		{Name: "schedule/abilene", Setup: scheduleBench("Abilene")},
		{Name: "schedule/classes", Setup: classesBench("Abilene")},
		{Name: "schedule/classes-mono", Setup: classesMonoBench("Abilene")},
		{Name: "sim-convergence/aarnet", Setup: convergenceBench("Aarnet")},
		{Name: "plan-execute/abilene", Setup: planExecuteBench("Abilene")},
		{Name: "plan-execute/compuserve", Setup: planExecuteBench("Compuserve")},
		{Name: "plan-execute/eenet", Setup: planExecuteBench("EEnet")},
		{Name: "exec-replay/abilene", Setup: replayBench("Abilene", execReplay)},
		{Name: "monitor/snapshot", Setup: replayBench("Aarnet", monitorSnapshot)},
		{Name: "chaos/smoke", Setup: chaosBench("Abilene")},
		{Name: "prefix-scale/whatif-100k-cow", Setup: whatIfBench(whatIfPrefixes)},
		{Name: "prefix-scale/storm-10k-routes", Setup: stormBench(stormPrefixes, false)},
		{Name: "prefix-scale/storm-10k-batched", Setup: stormBench(stormPrefixes, true)},
	}
}

// classesExtraPrefixes sizes the multi-class scheduling workloads: three
// extra prefixes partition the case study into three equivalence classes
// (one shared with the base prefix, two singletons).
const classesExtraPrefixes = 3

// classesBench measures the class-decomposed planning pipeline on a
// multi-prefix scenario: partition into equivalence classes, one
// analyze → schedule per class with its budget slice, per-member
// compilation, and the aligned MultiPlan stitch. Planning is pure, so the
// scenario is shared across reps.
func classesBench(topo string) func() (Fn, error) {
	return func() (Fn, error) {
		s, err := scenario.CaseStudy(topo, scenario.Config{
			Seed: suiteSeed, ExtraPrefixes: classesExtraPrefixes,
		})
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) error {
			_, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{})
			return err
		}, nil
	}
}

// classesMonoBench is the monolithic baseline for classesBench: the same
// multi-prefix scenario, but every prefix analyzed, scheduled (full
// default budget) and compiled independently — no equivalence-class reuse
// — then aligned. The gap between the two medians is what the §3 class
// decomposition buys.
func classesMonoBench(topo string) func() (Fn, error) {
	return func() (Fn, error) {
		s, err := scenario.CaseStudy(topo, scenario.Config{
			Seed: suiteSeed, ExtraPrefixes: classesExtraPrefixes,
		})
		if err != nil {
			return nil, err
		}
		return func(ctx context.Context) error {
			final := s.FinalNetwork()
			var all []*plan.Plan
			for _, p := range s.AllPrefixes() {
				b, err := plan.Build(ctx, s.Net, final, p, s.Commands, nil, scheduler.DefaultOptions())
				if err != nil {
					return err
				}
				all = append(all, b.Plan)
			}
			_, err := plan.Align(all, s.Commands)
			return err
		}, nil
	}
}

// analyzerBench measures analyzer.AnalyzeCtx on a prebuilt scenario (the
// analysis is pure, so the converged networks are shared across reps).
func analyzerBench(topo string) func() (Fn, error) {
	return func() (Fn, error) {
		s, err := scenario.CaseStudy(topo, scenario.Config{Seed: suiteSeed})
		if err != nil {
			return nil, err
		}
		final := s.FinalNetwork()
		return func(ctx context.Context) error {
			_, err := analyzer.AnalyzeCtx(ctx, s.Net, final, s.Prefix)
			return err
		}, nil
	}
}

// scheduleBench measures scheduler.ScheduleCtx on a prebuilt analysis with
// the deterministic node budget, so solver effort per op is exact.
func scheduleBench(topo string) func() (Fn, error) {
	return func() (Fn, error) {
		s, err := scenario.CaseStudy(topo, scenario.Config{Seed: suiteSeed})
		if err != nil {
			return nil, err
		}
		a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
		if err != nil {
			return nil, err
		}
		sp := eval.ReachabilitySpec(s.Graph)
		opts := scheduler.DefaultOptions()
		return func(ctx context.Context) error {
			_, err := scheduler.ScheduleCtx(ctx, a, sp, opts)
			return err
		}, nil
	}
}

// convergenceBench measures scenario construction + initial BGP
// convergence; the context's recorder is attached to the network, so sim
// event and message counters attribute to the op.
func convergenceBench(topo string) func() (Fn, error) {
	return func() (Fn, error) {
		return func(ctx context.Context) error {
			_, err := scenario.CaseStudy(topo, scenario.Config{
				Seed:     suiteSeed,
				Recorder: obs.RecorderFrom(ctx),
			})
			return err
		}, nil
	}
}

// planExecuteBench measures the whole facade pipeline — scenario build,
// analyze, schedule, compile, execute, verify — which is what a user of
// the library pays end to end. The scenario is rebuilt every iteration
// because execution mutates its network.
func planExecuteBench(topo string) func() (Fn, error) {
	return func() (Fn, error) {
		return func(ctx context.Context) error {
			s, err := scenario.CaseStudy(topo, scenario.Config{Seed: suiteSeed})
			if err != nil {
				return err
			}
			rec, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{})
			if err != nil {
				return err
			}
			res, err := rec.ExecuteCtx(ctx, chameleon.ExecOptions{})
			if err != nil {
				return err
			}
			return rec.Verify(res)
		}, nil
	}
}

// specMonitor returns a monitor on the default invariants plus rec's
// compiled specification, reporting to the context's recorder.
func specMonitor(ctx context.Context, rec *chameleon.Reconfiguration) *chameleon.Monitor {
	mon := chameleon.NewMonitor(chameleon.MonitorConfig{
		Name:       "perf",
		Invariants: chameleon.DefaultInvariants(rec.Scenario.Graph),
		Recorder:   obs.RecorderFrom(ctx),
	})
	mon.Track(monitor.FromSpec("spec", rec.Spec))
	return mon
}

// replay executes base's plan on a clone of its converged network under a
// fresh monitor and returns the executed copy (commands are closures over
// node IDs, so one plan runs on any clone).
func replay(ctx context.Context, base *chameleon.Reconfiguration) (*chameleon.Reconfiguration, *chameleon.ExecResult, error) {
	sc := *base.Scenario
	sc.Net = sc.Net.Clone()
	rec := *base
	rec.Scenario = &sc
	mon := specMonitor(ctx, base)
	res, err := rec.ExecuteCtx(ctx, chameleon.ExecOptions{Monitor: mon})
	if n := mon.ViolationCount(); err == nil && n != 0 {
		err = fmt.Errorf("monitor saw %d violations on a clean replay", n)
	}
	return &rec, res, err
}

// replayBench plans the case study on topo once in set-up and hands the
// plan to op, which builds the measured operation.
func replayBench(topo string, op func(base *chameleon.Reconfiguration) (Fn, error)) func() (Fn, error) {
	return func() (Fn, error) {
		s, err := scenario.CaseStudy(topo, scenario.Config{Seed: suiteSeed})
		if err != nil {
			return nil, err
		}
		base, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
		if err != nil {
			return nil, err
		}
		return op(base)
	}
}

// execReplay is one replay and its verification — what runtime, sim and
// monitor cost per simulated event.
func execReplay(base *chameleon.Reconfiguration) (Fn, error) {
	return func(ctx context.Context) error {
		rec, res, err := replay(ctx, base)
		if err != nil {
			return err
		}
		return rec.Verify(res)
	}, nil
}

// monitorSnapshot replays once in set-up; the op feeds every snapshot the
// clone recorded (the execution and nothing else) to a fresh monitor — the
// monitor alone.
func monitorSnapshot(base *chameleon.Reconfiguration) (Fn, error) {
	rec, _, err := replay(context.Background(), base)
	if err != nil {
		return nil, err
	}
	prefix, end := rec.Scenario.Prefix, rec.Scenario.Net.Now()
	tr := rec.Scenario.Net.Trace(prefix)
	return func(ctx context.Context) error {
		mon := specMonitor(ctx, base)
		for i, st := range tr.States {
			mon.ObserveProvenance(time.Duration(tr.Times[i]*float64(time.Second)), prefix, st, sim.Provenance{})
		}
		mon.Finish(end)
		return nil
	}, nil
}

// chaosBench measures one fault-injected case (command drops) including
// the recovery ladder, via the chaos harness's single-case entry point.
func chaosBench(topo string) func() (Fn, error) {
	return func() (Fn, error) {
		return func(ctx context.Context) error {
			r, err := chaos.RunCaseCtx(ctx, chaos.Case{
				Topology: topo, Fault: sim.FaultDrop, Seed: 1,
			})
			if err != nil {
				return err
			}
			if r.Outcome == chaos.OutcomeViolation {
				return fmt.Errorf("chaos case violated invariants")
			}
			return nil
		}, nil
	}
}
