package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"chameleon"
	"chameleon/internal/analyzer"
	"chameleon/internal/eval"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/topology"
)

// failedRounds is what a plan that was not found counts as in phases_mean:
// one more than the largest R the slack phase can return (4 x MaxRounds).
const failedRounds = 4*16 + 1

// planWarmup is planned once per set-up, untimed, so the heap has grown and
// first-use initialisation is done before the first timed op; whatever a
// later change moves into first use shows in setup_s.
var planWarmup = []entry{{Topology: "Abilene"}, {Topology: "Aarnet"}, {Topology: "Agis"}, {Topology: "Bbnplanet"}}

// planWorkload is plan-zoo and plan-hard: one op takes a list entry from
// scenario construction to a verified-clean execution.
type planWorkload struct {
	seed    uint64
	entries []entry
	// facade: untraced ops go through chameleon.PlanCtx, the path a library
	// user pays (plan-zoo). Otherwise every op drives the layers one call
	// at a time, which the Eq. 4 spec needs anyway (plan-hard).
	facade bool
	warmup []entry
}

func newPlanWorkload(cfg runConfig) (*planWorkload, error) {
	limit := 0
	w := &planWorkload{seed: cfg.Seed, facade: cfg.Workload == "plan-zoo", warmup: planWarmup}
	if cfg.Smoke {
		limit = 3
		w.warmup = planWarmup[:1]
		if cfg.Workload == "plan-hard" {
			// The real list costs 15 s; smoke only has to drive the same code.
			w.entries = []entry{{Topology: "Abilene", Eq4: true}, {Topology: "Sprint", Extra: 3}, {Topology: "Compuserve"}}
			return w, nil
		}
	}
	var err error
	w.entries, err = loadEntries(cfg.Workload, limit)
	return w, err
}

func (w *planWorkload) variants(trace bool) []mode {
	if !trace {
		return []mode{{}}
	}
	return []mode{{}, {tr: newTracer()}}
}

func (w *planWorkload) setup(ctx context.Context) error {
	for _, e := range w.warmup {
		if rec := w.op(ctx, e, mode{}); rec.Err != "" {
			return fmt.Errorf("warm-up %s: %s", e, rec.Err)
		}
	}
	return nil
}

func (w *planWorkload) opsPerPass() int { return len(w.entries) }

func (w *planWorkload) pass(ctx context.Context, idx int, m mode, out *[]opRecord) {
	// The run seed decides the order; every pass covers the whole list.
	order := rand.New(rand.NewPCG(w.seed, uint64(idx))).Perm(len(w.entries))
	for _, i := range order {
		*out = append(*out, traced(m.tr, func() opRecord { return w.op(ctx, w.entries[i], m) }))
	}
}

func (w *planWorkload) op(ctx context.Context, e entry, m mode) opRecord {
	if w.facade && m.tr == nil {
		return facadeOp(ctx, e, w.seed)
	}
	return layeredOp(ctx, e, w.seed, m.tr)
}

func scenarioConfig(e entry, rec *obs.Recorder) scenario.Config {
	return scenario.Config{Seed: scenarioSeed, ExtraPrefixes: e.Extra, Recorder: rec}
}

// facadeOp is what a library user writes: CaseStudy, PlanCtx with the monitor
// tracked, ExecuteCtx with the monitor bound, Verify.
func facadeOp(ctx context.Context, e entry, seed uint64) opRecord {
	rec := opRecord{Entry: e.String(), Sampled: true, Phases: 2 + failedRounds}
	if e.Eq4 {
		rec.Err = "the facade op plans reachability only; Eq. 4 entries belong in plan-hard"
		return rec
	}
	start := time.Now()
	s, err := scenario.CaseStudy(e.Topology, scenarioConfig(e, nil))
	if err != nil {
		return rec.fail(start, "scenario", err)
	}
	mon := chameleon.NewMonitor(chameleon.MonitorConfig{Name: "bench", Invariants: chameleon.DefaultInvariants(s.Graph)})
	r, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{ClassParallelism: 1, Monitor: mon})
	if err != nil {
		return rec.fail(start, "plan", err)
	}
	rec.Phases = float64(2 + r.Schedule.R)
	res, err := r.ExecuteCtx(ctx, chameleon.ExecOptions{Seed: seed, Monitor: mon})
	if err != nil {
		return rec.fail(start, "execute", err)
	}
	verr := r.Verify(res)
	rec.MS = msSince(start)
	rec.Digest = planDigest(r)
	rec.checkClean(res, mon, verr)
	return rec
}

// layeredOp runs the same pipeline as facadeOp in the facade's order, one
// public call per layer, with a span around each when traced. Traced ops also
// attach an obs.Recorder, which is where the solve-outcome, event and message
// counts come from.
func layeredOp(ctx context.Context, e entry, seed uint64, tr *tracer) opRecord {
	rec := opRecord{Entry: e.String(), Sampled: true, Phases: 2 + failedRounds}
	var orec *obs.Recorder
	if tr != nil {
		orec = obs.New()
		ctx = obs.WithRecorder(ctx, orec)
		rec.Counts = map[string]float64{}
	}
	start := time.Now()

	end := tr.begin("scenario.build")
	s, err := scenario.CaseStudy(e.Topology, scenarioConfig(e, orec))
	end()
	if err != nil {
		return rec.fail(start, "scenario", err)
	}
	buildEvents := orec.Counter(obs.CtrSimEvents)

	end = tr.begin("sim.final_network")
	final := s.FinalNetwork()
	end()
	end = tr.begin("analyzer.classes")
	classes := analyzer.Classes(s.Net, final, s.AllPrefixes())
	end()
	weights := make([]int, len(classes))
	for i, c := range classes {
		weights[i] = len(c.Members)
	}
	so := scheduler.DefaultOptions()
	budgets := scheduler.SplitNodeBudget(so.SolverNodeBudget, weights)

	r := &chameleon.Reconfiguration{Scenario: s}
	var all []*plan.Plan
	var stats scheduler.Stats
	var cr, switching, commands, steps int
	for i, cls := range classes {
		end = tr.begin("analyzer.analyze")
		a, err := analyzer.AnalyzeCtx(ctx, s.Net, final, cls.Representative)
		end()
		if err != nil {
			return rec.fail(start, "analyze", err)
		}
		if i == 0 {
			end = tr.begin("spec.build")
			if e.Eq4 {
				r.Spec = eval.Eq4Spec(a, s.E1)
			} else {
				r.Spec = eval.ReachabilitySpec(s.Graph)
			}
			end()
		}
		co := so
		co.SolverNodeBudget = budgets[i]
		end = tr.begin("scheduler.schedule")
		sched, err := scheduler.ScheduleCtx(ctx, a, r.Spec, co)
		end()
		if err != nil {
			return rec.fail(start, "schedule", err)
		}
		// The facade validates every schedule too, so this is part of the
		// op; it is also the oracle independent of the solver.
		end = tr.begin("scheduler.validate")
		err = scheduler.Validate(a, r.Spec, sched)
		end()
		if err != nil {
			return rec.fail(start, "validate", err)
		}
		pc := chameleon.PlannedClass{Class: cls, Analysis: a, Schedule: sched, NodeBudget: budgets[i]}
		for _, p := range cls.Members {
			end = tr.begin("plan.compile")
			pl, err := plan.Compile(a.ForPrefix(p), sched, s.Commands)
			end()
			if err != nil {
				return rec.fail(start, "compile", err)
			}
			pc.Plans = append(pc.Plans, pl)
			commands += pl.NumCommands()
			steps += pl.NumSteps()
		}
		r.Classes = append(r.Classes, pc)
		all = append(all, pc.Plans...)
		stats.RoundsTried += sched.Stats.RoundsTried
		stats.SolverNodes += sched.Stats.SolverNodes
		stats.Propagations += sched.Stats.Propagations
		stats.LPPivots += sched.Stats.LPPivots
		stats.Variables += sched.Stats.Variables
		stats.Constraints += sched.Stats.Constraints
		stats.TempSessions += sched.Stats.TempSessions
		cr += a.ReconfigurationComplexity()
		switching += len(a.Switching)
	}
	r.Analysis, r.Schedule, r.Plan = r.Classes[0].Analysis, r.Classes[0].Schedule, r.Classes[0].Plans[0]
	rec.Phases = float64(2 + r.Schedule.R)
	if len(all) > 1 {
		end = tr.begin("plan.align")
		r.Multi, err = plan.Align(all, s.Commands)
		end()
		if err != nil {
			return rec.fail(start, "align", err)
		}
	}

	end = tr.begin("monitor.new")
	mon := chameleon.NewMonitor(chameleon.MonitorConfig{Name: "bench",
		Invariants: chameleon.DefaultInvariants(s.Graph), Recorder: orec})
	if e.Eq4 {
		// The steady-state projection FromSpec checks collapses "a U G b" to
		// b, which is false until a node switches: it would flag every Eq. 4
		// run. What holds in each transient state is "via e1 or via the
		// final egress", the projection the case-study evaluation monitors.
		pairs := map[topology.NodeID][2]topology.NodeID{}
		for _, n := range s.Graph.Internal() {
			if en := r.Analysis.NHNew.Egress(n); en != topology.None {
				pairs[n] = [2]topology.NodeID{s.E1, en}
			}
		}
		mon.Track(monitor.WaypointEither(pairs))
	} else {
		mon.Track(monitor.FromSpec("spec", r.Spec))
	}
	end()
	end = tr.begin("runtime.execute")
	res, err := r.ExecuteCtx(ctx, chameleon.ExecOptions{Seed: seed, Monitor: mon, Recorder: orec})
	end()
	if err != nil {
		return rec.fail(start, "execute", err)
	}
	end = tr.begin("spec.verify")
	verr := r.Verify(res)
	end()
	rec.MS = msSince(start)
	rec.Digest = planDigest(r)
	rec.checkClean(res, mon, verr)

	if tr != nil {
		c := rec.Counts
		c["scenario.sim_events"] = float64(buildEvents)
		c["analyzer.classes"] = float64(len(classes))
		c["analyzer.cr"] = float64(cr)
		c["analyzer.switching_nodes"] = float64(switching)
		c["scheduler.rounds_tried"] = float64(stats.RoundsTried)
		c["scheduler.solves_feasible"] = float64(orec.Counter(obs.CtrSchedSolvesOK))
		c["scheduler.solves_infeasible"] = float64(orec.Counter(obs.CtrSchedSolvesInfeas))
		c["scheduler.solves_undecided"] = c["scheduler.rounds_tried"] - c["scheduler.solves_feasible"] - c["scheduler.solves_infeasible"]
		c["scheduler.vars"] = float64(stats.Variables)
		c["scheduler.constraints"] = float64(stats.Constraints)
		c["scheduler.temp_sessions"] = float64(stats.TempSessions)
		c["milp.nodes"] = float64(stats.SolverNodes)
		c["milp.propagations"] = float64(stats.Propagations)
		c["lp.pivots"] = float64(stats.LPPivots)
		c["lp.bounds"] = float64(orec.Counter(obs.CtrMILPLPBounds))
		c["plan.commands"] = float64(commands)
		c["plan.steps"] = float64(steps)
		execCounts(c, res, mon, orec)
	}
	return rec
}

// planDigest identifies a planning outcome: R and a hash of every compiled
// plan's text. The traced pass must reproduce the untraced pass's digests.
func planDigest(r *chameleon.Reconfiguration) string {
	h := fnv.New64a()
	if r.Multi != nil {
		for _, p := range r.Multi.Plans {
			h.Write([]byte(p.String()))
		}
	} else {
		h.Write([]byte(r.Plan.String()))
	}
	return fmt.Sprintf("R=%d plan=%016x", r.Schedule.R, h.Sum64())
}
