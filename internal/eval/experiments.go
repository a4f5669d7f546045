package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"chameleon/internal/analyzer"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/pool"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/snowcap"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
	"chameleon/internal/traffic"
)

// paperRatePerNode is the traffic every internal router injects, in
// packets/s: the paper's testbed sends 16.5 kpkt/s over Abilene's 11
// internal routers.
const paperRatePerNode = 16500 / 11

// --- Figs. 1, 6, 12: case studies ------------------------------------------

// CaseStudyResult compares Snowcap and Chameleon on one topology.
type CaseStudyResult struct {
	Topology string

	SnowcapDuration   time.Duration
	Snowcap           *traffic.Measurement
	ChameleonDuration time.Duration
	Chameleon         *traffic.Measurement
	Phases            []runtime.PhaseSpan
	R                 int
	TempSessions      int

	// Transient-state monitor output for both runs: the paper's Fig. 1 /
	// Fig. 9 comparison is SnowcapViolationTime (strictly positive — the
	// baseline's steady-state guarantees miss the transient) against
	// ChameleonViolationTime (zero by construction).
	SnowcapTimeline        *monitor.Timeline
	SnowcapViolationTime   time.Duration
	ChameleonTimeline      *monitor.Timeline
	ChameleonViolationTime time.Duration

	// PlanText is the compiled Chameleon plan rendered as text — a
	// deterministic function of (topology, seed), bundled as a run-bundle
	// plan part so a bundle diff localizes planner divergences.
	PlanText string
}

// caseStudyInvariants builds the monitored invariant set of the §6/§7 case
// study: full reachability, loop-freedom, and the Eq. 4 waypoint
// projection (each node exits via e1 or its final egress, never a third).
func caseStudyInvariants(s *scenario.Scenario, a *analyzer.Analysis) []monitor.Invariant {
	pairs := make(map[topology.NodeID][2]topology.NodeID)
	for _, n := range a.Graph.Internal() {
		en := a.NHNew.Egress(n)
		if en == topology.None {
			continue
		}
		pairs[n] = [2]topology.NodeID{s.E1, en}
	}
	return []monitor.Invariant{
		monitor.ReachAll(s.Graph),
		monitor.LoopFree(),
		monitor.WaypointEither(pairs),
	}
}

// waypointRules derives the Eq. 4 measurement rules: each node exits via e1
// until its single switch to its final egress.
func waypointRules(a *analyzer.Analysis, e1 topology.NodeID) map[topology.NodeID]*traffic.WaypointRule {
	rules := make(map[topology.NodeID]*traffic.WaypointRule)
	for _, n := range a.Graph.Internal() {
		en := a.NHNew.Egress(n)
		if en == topology.None {
			continue
		}
		rules[n] = &traffic.WaypointRule{Before: e1, After: en}
	}
	return rules
}

// RunCaseStudyCtx reproduces the Figs. 1/6/12 experiment on the named
// topology: the same reconfiguration applied once via Snowcap (direct) and
// once via Chameleon, with packet-level measurement of both runs. A recorder
// carried by ctx (obs.WithRecorder) receives both monitors' counters; each
// violation's blame latency, duration and hop depth are in the timelines.
// The result and both timelines are byte-identical with or without a
// recorder attached — the counters are observation-only. The analyzer, the
// planner and the executor run under ctx, so cancelling it stops the
// Chameleon run with ctx's error.
func RunCaseStudyCtx(ctx context.Context, name string, seed uint64) (*CaseStudyResult, error) {
	rec := obs.RecorderFrom(ctx)
	out := &CaseStudyResult{Topology: name}

	// Snowcap run.
	sSnow, err := scenario.CaseStudy(name, scenario.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	aSnow, err := analyzer.AnalyzeCtx(ctx, sSnow.Net, sSnow.FinalNetwork(), sSnow.Prefix)
	if err != nil {
		return nil, err
	}
	start := sSnow.Net.Now()
	mSnow := monitor.New(monitor.Config{
		Name:       "snowcap",
		Invariants: caseStudyInvariants(sSnow, aSnow),
		Recorder:   rec,
	})
	snowRes, err := snowcap.ApplyMonitored(sSnow.Net, sSnow.Prefix, sSnow.Commands,
		[]int{0}, 1700*time.Millisecond, mSnow)
	if err != nil {
		return nil, err
	}
	out.SnowcapDuration = snowRes.Duration()
	out.SnowcapTimeline = snowRes.Timeline
	out.SnowcapViolationTime = snowRes.ViolationTime
	out.Snowcap = traffic.Measure(sSnow.Net.Trace(sSnow.Prefix), sSnow.Graph.Internal(),
		waypointRules(aSnow, sSnow.E1), traffic.Options{
			RatePerNode: paperRatePerNode, Step: 0.01,
			From: start.Seconds(), To: sSnow.Net.Now().Seconds() + 0.1,
		})

	// Chameleon run (fresh scenario, same seed → same network).
	sCham, err := scenario.CaseStudy(name, scenario.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	pl, err := plan.Build(ctx, sCham.Net, sCham.FinalNetwork(), sCham.Prefix,
		sCham.Commands, Eq4For(sCham.E1), scheduler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	mCham := monitor.New(monitor.Config{
		Name:       "chameleon",
		Invariants: caseStudyInvariants(sCham, pl.Analysis),
		Recorder:   rec,
	})
	ex := runtime.NewExecutor(sCham.Net, runtime.Options{Seed: seed})
	unbind := mCham.Bind(sCham.Net)
	res, err := ex.ExecuteCtx(ctx, plan.Single(pl.Plan))
	unbind()
	if err != nil {
		return nil, err
	}
	out.ChameleonTimeline = mCham.Finish(sCham.Net.Now())
	out.ChameleonViolationTime = out.ChameleonTimeline.TotalViolation()
	out.ChameleonDuration = res.Duration()
	out.Phases = res.Phases
	out.R = pl.Schedule.R
	out.TempSessions = len(pl.Plan.TempSessions)
	out.PlanText = pl.Plan.String()
	out.Chameleon = traffic.Measure(sCham.Net.Trace(sCham.Prefix), sCham.Graph.Internal(),
		waypointRules(pl.Analysis, sCham.E1), traffic.Options{
			RatePerNode: paperRatePerNode, Step: 0.05,
			From: res.Start.Seconds(), To: res.End.Seconds() + 0.1,
		})
	return out, nil
}

// --- Fig. 7, Fig. 9, Table 2: scheduling sweep ------------------------------

// SweepOutcome is one corpus scenario's scheduling result.
type SweepOutcome struct {
	Name         string
	Nodes        int
	Switching    int
	Cr           int
	R            int
	TempSessions int
	// SolverNodes, Propagations, ObjectiveOpt and RProven are the
	// scheduler's Stats: the counted work, a failed scan's included, whether
	// the temp-session minimum was proven, and whether every smaller round
	// count was proven infeasible.
	SolverNodes    int64
	Propagations   int64
	ObjectiveOpt   bool
	RProven        bool
	SchedulingTime time.Duration
	// EstimatedReconfTime is T̃ = T̃rm (2 + R) with T̃rm = 12 s (§7.2).
	EstimatedReconfTime time.Duration
	Err                 error
}

// SweepSchedulingCtx runs the §7 reconfiguration scenario on each named
// topology with the Eq. 4 specification and records scheduling time,
// reconfiguration complexity Cr, and the resulting round count. The
// temp-session optimization pass is capped tightly so the measured time is
// dominated by the feasibility search, which is what correlates with Cr.
//
// Scenarios run workers-wide (≤ 0 means one per CPU); every scenario run
// owns its network and RNG streams, and results come back in names order
// regardless of completion order, so everything except the wall-clock
// SchedulingTime measurement is byte-identical at any worker count. The
// progress callback is serialized but observes completion order.
// Cancellation stops the sweep (the error is ctx's, as a panicking run's is
// a *pool.PanicError), and a recorder carried by ctx observes every
// scenario run, adopted as "run <name>" in names order (see pool.Map).
func SweepSchedulingCtx(ctx context.Context, names []string, seed uint64, opts scheduler.Options, workers int, progress func(SweepOutcome)) ([]SweepOutcome, error) {
	report := pool.Serialize(progress)
	return pool.Map(ctx, workers, len(names), runLabel(names), func(ctx context.Context, i int) (SweepOutcome, error) {
		o := schedulingOutcome(ctx, names[i], seed, opts)
		report(o)
		return o, nil
	})
}

// runLabel names a sweep's per-scenario recorder forks.
func runLabel(names []string) func(i int) string {
	return func(i int) string { return "run " + names[i] }
}

// schedulingOutcome runs one scenario of the §7 scheduling sweep. The
// SchedulingTime field is the only wall-clock measurement: under parallel
// contention it measures the worker's elapsed time (still the quantity the
// Fig. 7 correlation uses — relative, not absolute, magnitudes), while every
// other field derives from the simulation and is reproducible bit-for-bit.
func schedulingOutcome(ctx context.Context, name string, seed uint64, opts scheduler.Options) SweepOutcome {
	o := SweepOutcome{Name: name}
	s, err := scenario.CaseStudy(name, scenario.Config{Seed: seed})
	if err != nil {
		o.Err = err
		return o
	}
	o.Nodes = len(s.Graph.Internal())
	a, err := analyzer.AnalyzeCtx(ctx, s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		o.Err = err
		return o
	}
	o.Switching = len(a.Switching)
	o.Cr = a.ReconfigurationComplexity()
	sp := Eq4Spec(a, s.E1)
	t0 := time.Now()
	sched, err := scheduler.ScheduleCtx(ctx, a, sp, opts)
	o.SchedulingTime = time.Since(t0)
	if err != nil {
		var scan *scheduler.ScanError
		if errors.As(err, &scan) {
			o.SolverNodes, o.Propagations, o.RProven = scan.Stats.SolverNodes, scan.Stats.Propagations, scan.Stats.RProven
		}
		o.Err = err
		return o
	}
	o.R = sched.R
	o.TempSessions = sched.TempOldSessions + sched.TempNewSessions
	o.SolverNodes, o.Propagations = sched.Stats.SolverNodes, sched.Stats.Propagations
	o.ObjectiveOpt, o.RProven = sched.Stats.ObjectiveOpt, sched.Stats.RProven
	o.EstimatedReconfTime = runtime.EstimateReconfigurationTime(sched.R)
	return o
}

// --- Figs. 8 and 13: specification complexity sweep ------------------------

// SpecSweepPoint aggregates scheduling times for one |Nφ| value.
type SpecSweepPoint struct {
	Frac             float64
	Nphi             int
	Median, P10, P90 time.Duration
	Times            []time.Duration
}

// SpecComplexitySweepCtx measures scheduling time on one topology while the
// number of waypoint-constrained nodes |Nφ| grows, with temporal (φt) or
// non-temporal (φn) constraints, and with or without explicit loop
// constraints (Fig. 13's ablation). Each point runs `runs` times with a
// different random Nφ subset, each drawn from its own derived stream.
//
// This sweep stays deliberately sequential: its *only* output is wall-clock
// scheduling time, and running points concurrently would let CPU contention
// distort the medians Fig. 8 compares.
func SpecComplexitySweepCtx(ctx context.Context, name string, temporal, explicitLoops bool, fracs []float64, runs int, seed uint64) ([]SpecSweepPoint, error) {
	s, err := scenario.CaseStudy(name, scenario.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	a, err := analyzer.AnalyzeCtx(ctx, s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		return nil, err
	}
	n := len(s.Graph.Internal())
	opts := scheduler.DefaultOptions()
	opts.ExplicitLoopConstraints = explicitLoops
	var points []SpecSweepPoint
	for _, frac := range fracs {
		k := int(frac * float64(n))
		pt := SpecSweepPoint{Frac: frac, Nphi: k}
		var xs []float64
		for run := 0; run < runs; run++ {
			// Each (|Nφ|, run) point owns a derived sampling stream.
			nodes := SampleNodes(s.Graph, k, sim.DeriveSeed(seed, uint64(k)<<20|uint64(run)))
			var sp *spec.Spec
			if temporal {
				sp = PhiT(a, s.E1, nodes)
			} else {
				sp = PhiN(a, s.E1, nodes)
			}
			t0 := time.Now()
			if _, err := scheduler.ScheduleCtx(ctx, a, sp, opts); err != nil {
				return nil, fmt.Errorf("eval: spec sweep %s |Nφ|=%d run %d: %w", name, k, run, err)
			}
			d := time.Since(t0)
			pt.Times = append(pt.Times, d)
			xs = append(xs, d.Seconds())
		}
		d := NewDist(xs)
		pt.Median = time.Duration(d.Percentile(50) * float64(time.Second))
		pt.P10 = time.Duration(d.Percentile(10) * float64(time.Second))
		pt.P90 = time.Duration(d.Percentile(90) * float64(time.Second))
		points = append(points, pt)
	}
	return points, nil
}

// --- Fig. 10: routing table overhead ----------------------------------------

// OverheadOutcome holds one scenario's §7.3 measurements, normalized by the
// baseline maximum table size.
type OverheadOutcome struct {
	Name      string
	Baseline  int
	Chameleon float64
	SITN      float64
	Err       error
}

// SweepTableOverheadCtx measures, per scenario: the baseline maximum table
// size (direct reconfiguration), Chameleon's maximum during plan execution,
// and SITN's dual-plane size — each as additional entries relative to the
// baseline. Scenarios run workers-wide (≤ 0 means one per CPU); every field
// derives from the simulation, so the results — and the Fig. 10 CSV — are
// byte-identical at any worker count. See SweepSchedulingCtx for the
// cancellation and recorder semantics.
func SweepTableOverheadCtx(ctx context.Context, names []string, seed uint64, opts scheduler.Options, workers int, progress func(OverheadOutcome)) ([]OverheadOutcome, error) {
	report := pool.Serialize(progress)
	return pool.Map(ctx, workers, len(names), runLabel(names), func(ctx context.Context, i int) (OverheadOutcome, error) {
		o := overheadOutcome(ctx, names[i], seed, opts)
		report(o)
		return o, nil
	})
}

// overheadOutcome runs one scenario of the §7.3 overhead sweep.
func overheadOutcome(ctx context.Context, name string, seed uint64, opts scheduler.Options) OverheadOutcome {
	o := OverheadOutcome{Name: name}
	// Baseline: direct application.
	sBase, err := scenario.CaseStudy(name, scenario.Config{Seed: seed})
	if err != nil {
		o.Err = err
		return o
	}
	// SITN [36] runs the initial and the final configuration side by side
	// as two control planes, so its table holds both planes' Adj-RIB-In
	// entries. FinalNetwork works on a clone: sBase stays initial.
	dual := sBase.Net.TableEntries() + sBase.FinalNetwork().TableEntries()
	sBase.Net.ResetMaxTableEntries()
	if _, err := snowcap.Apply(sBase.Net, sBase.Commands, []int{0}, time.Second); err != nil {
		o.Err = err
		return o
	}
	o.Baseline = sBase.Net.MaxTableEntries()

	// Chameleon.
	sCham, err := scenario.CaseStudy(name, scenario.Config{Seed: seed})
	if err != nil {
		o.Err = err
		return o
	}
	pl, err := plan.Build(ctx, sCham.Net, sCham.FinalNetwork(), sCham.Prefix,
		sCham.Commands, Eq4For(sCham.E1), opts)
	if err != nil {
		o.Err = err
		return o
	}
	ex := runtime.NewExecutor(sCham.Net, runtime.Options{Seed: seed})
	res, err := ex.ExecuteCtx(ctx, plan.Single(pl.Plan))
	if err != nil {
		o.Err = err
		return o
	}
	o.Chameleon = float64(res.MaxTableEntries-o.Baseline) / float64(o.Baseline)
	if o.Chameleon < 0 {
		o.Chameleon = 0
	}
	o.SITN = float64(dual-o.Baseline) / float64(o.Baseline)
	return o
}

// --- Fig. 11: external events ------------------------------------------------

// ExternalEventResult reports a Fig. 11 run.
type ExternalEventResult struct {
	Measurement *traffic.Measurement
	Result      *runtime.Result
	// ConvergedToE4 reports whether the network adopted the new e4 route
	// after cleanup (Fig. 11b).
	ConvergedToE4 bool
}

// RunLinkFailureExperimentCtx reproduces Fig. 11a: a link fails mid-update;
// OSPF reconverges (sub-second loss) but the reconfiguration completes
// safely.
func RunLinkFailureExperimentCtx(ctx context.Context, name string, seed uint64, failAfter time.Duration) (*ExternalEventResult, error) {
	s, err := scenario.CaseStudy(name, scenario.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	pl, err := plan.Build(ctx, s.Net, s.FinalNetwork(), s.Prefix,
		s.Commands, nil, scheduler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	// Pick a link not adjacent to an egress or external node.
	var la, lb topology.NodeID = topology.None, topology.None
	for _, l := range s.Graph.Links() {
		if s.Graph.Node(l.A).External || s.Graph.Node(l.B).External {
			continue
		}
		if l.A == s.E1 || l.B == s.E1 || l.A == s.E2 || l.B == s.E2 || l.A == s.E3 || l.B == s.E3 {
			continue
		}
		la, lb = l.A, l.B
		break
	}
	opts := runtime.Options{Seed: seed}
	if la != topology.None {
		fla, flb := la, lb
		opts.ExternalEvents = []runtime.ScheduledEvent{{
			After: failAfter, Name: "link failure",
			Apply: func(n *sim.Network) { n.FailLink(fla, flb) },
		}}
	}
	ex := runtime.NewExecutor(s.Net, opts)
	res, err := ex.ExecuteCtx(ctx, plan.Single(pl.Plan))
	if err != nil {
		return nil, err
	}
	m := traffic.Measure(s.Net.Trace(s.Prefix), s.Graph.Internal(), nil, traffic.Options{
		RatePerNode: paperRatePerNode, Step: 0.05,
		From: res.Start.Seconds(), To: res.End.Seconds() + 0.1,
	})
	return &ExternalEventResult{Measurement: m, Result: res}, nil
}

// RunNewRouteExperimentCtx reproduces Fig. 11b: a strictly better route is
// announced at a fourth egress mid-update; the pinned transient state makes
// routers ignore it until cleanup restores the original preferences, after
// which the whole network adopts it. announceAfter should fall inside the
// update phase: §8's guarantee covers events against the *installed*
// transient state — an announcement racing the setup phase meets ordinary
// unprotected BGP convergence, as it would without Chameleon.
func RunNewRouteExperimentCtx(ctx context.Context, name string, seed uint64, announceAfter time.Duration) (*ExternalEventResult, error) {
	s, err := scenario.CaseStudy(name, scenario.Config{Seed: seed, SpareEgress: true})
	if err != nil {
		return nil, err
	}
	pl, err := plan.Build(ctx, s.Net, s.FinalNetwork(), s.Prefix,
		s.Commands, nil, scheduler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	opts := runtime.Options{Seed: seed}
	opts.ExternalEvents = []runtime.ScheduledEvent{{
		After: announceAfter, Name: "better route at e4",
		Apply: func(n *sim.Network) {
			n.InjectExternalRoute(s.Ext4, sim.Announcement{Prefix: s.Prefix, ASPathLen: 0})
		},
	}}
	ex := runtime.NewExecutor(s.Net, opts)
	res, err := ex.ExecuteCtx(ctx, plan.Single(pl.Plan))
	if err != nil {
		return nil, err
	}
	// §8: the guarantee covers the reconfiguration itself; cleanup
	// deliberately releases the network to ordinary BGP convergence
	// towards the (better) e4 route, so measure up to cleanup.
	until := res.End
	for _, ph := range res.Phases {
		if ph.Name == "cleanup" {
			until = ph.Start
		}
	}
	m := traffic.Measure(s.Net.Trace(s.Prefix), s.Graph.Internal(), nil, traffic.Options{
		RatePerNode: paperRatePerNode, Step: 0.05,
		From: res.Start.Seconds(), To: until.Seconds(),
	})
	out := &ExternalEventResult{Measurement: m, Result: res, ConvergedToE4: true}
	for _, n := range s.Graph.Internal() {
		best, ok := s.Net.Best(n, s.Prefix)
		if !ok || best.Egress != s.E4 {
			out.ConvergedToE4 = false
		}
	}
	return out, nil
}
