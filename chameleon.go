// Package chameleon is a Go implementation of Chameleon (SIGCOMM 2023,
// "Taming the transient while reconfiguring BGP"): a BGP reconfiguration
// framework that preserves forwarding invariants — expressed in an LTL
// specification language over reach/waypoint predicates — throughout every
// transient state of the reconfiguration, using only standard BGP
// mechanisms (route-map weights and temporary iBGP sessions).
//
// The package is a facade over the building blocks:
//
//   - topology / igp / bgp / sim — the network substrate: graphs, OSPF-like
//     shortest paths, the BGP decision process, and an event-based BGP
//     simulator with route reflection and route maps.
//   - spec — the Fig. 2 specification language (parser + evaluator).
//   - analyzer / scheduler / plan / runtime — Chameleon's four stages:
//     happens-before extraction, ILP scheduling, plan compilation, and the
//     runtime controller.
//   - snowcap — the baseline of Fig. 1, pushing the original command; the
//     other baseline, SITN, is only a table size (eval's Fig. 10 sweep).
//   - eval / traffic — the full evaluation harness for every figure/table.
//
// A minimal use:
//
//	ctx := context.Background()
//	s, _ := chameleon.NewCaseStudy("Abilene", chameleon.ScenarioConfig{Seed: 7})
//	rec, _ := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{})
//	result, _ := rec.ExecuteCtx(ctx, chameleon.ExecOptions{})
//
// The context cancels (it reaches into the ILP branch-and-bound and the
// runtime's supervision loop); the options' Recorder field adds structured
// tracing and metrics of the whole pipeline (see NewRecorder).
package chameleon

import (
	"context"
	"fmt"
	"time"

	"chameleon/internal/analyzer"
	"chameleon/internal/bgp"
	"chameleon/internal/eval"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/spec"
	"chameleon/internal/supervisor"
	"chameleon/internal/topology"
)

// Re-exported core types; the aliases make the internal packages' types
// usable by downstream code through this package.
type (
	// Graph is the physical network topology.
	Graph = topology.Graph
	// NodeID identifies a router or external network.
	NodeID = topology.NodeID
	// Network is a live simulated BGP network.
	Network = sim.Network
	// Prefix is a destination prefix (equivalence class).
	Prefix = bgp.Prefix
	// RIB is a prefix-keyed route table: a copy-on-write radix trie with
	// ordered allocation-free walks and O(1) Clone.
	RIB = bgp.RIB
	// ScenarioConfig tweaks CaseStudy construction (seed, spare egress,
	// extra prefixes, …).
	ScenarioConfig = scenario.Config
	// StormConfig parameterizes a prefix-scale announcement storm.
	StormConfig = scenario.StormConfig
	// Storm is a converged prefix-scale network.
	Storm = scenario.Storm
	// Command is an atomic configuration change.
	Command = sim.Command
	// Spec is a parsed specification.
	Spec = spec.Spec
	// Scenario is a ready-made reconfiguration scenario.
	Scenario = scenario.Scenario
	// NodeSchedule is the scheduler's output.
	NodeSchedule = scheduler.NodeSchedule
	// ReconfigurationPlan is the compiled plan.
	ReconfigurationPlan = plan.Plan
	// MultiPlan is an aligned multi-destination plan: one compiled plan
	// per prefix, sharing the original commands (§5).
	MultiPlan = plan.MultiPlan
	// EquivalenceClass is one §3 prefix equivalence class: prefixes whose
	// initial and final routing states are identical up to the prefix
	// value, planned once via their representative.
	EquivalenceClass = analyzer.Class
	// ExecResult reports an executed reconfiguration.
	ExecResult = runtime.Result
	// Analysis is the analyzer's happens-before description.
	Analysis = analyzer.Analysis
	// Recorder collects structured traces (hierarchical spans on the
	// simulated clock) and monotonic counters from every pipeline stage
	// it is handed to. It is safe for concurrent use, and a nil *Recorder
	// is a valid no-op: observability costs nothing unless asked for.
	Recorder = obs.Recorder
	// Monitor is the online transient-state monitor: it checks every
	// forwarding snapshot the simulator takes against the configured
	// invariants and accumulates a violation timeline (see NewMonitor).
	Monitor = monitor.Monitor
	// MonitorConfig configures a Monitor.
	MonitorConfig = monitor.Config
	// MonitorInvariant is one online-checkable forwarding property.
	MonitorInvariant = monitor.Invariant
	// Timeline is a completed monitor output: violation intervals with
	// onset, duration, blast radius and phase attribution.
	Timeline = monitor.Timeline
	// SuperviseOptions configure closed-loop supervision (see Supervise).
	SuperviseOptions = supervisor.Options
	// SuperviseResult reports a finished supervised reconfiguration: the
	// terminal configuration (final or initial — never pinned in between),
	// how far down the degradation ladder the run went, and the per-attempt
	// monitor timelines.
	SuperviseResult = supervisor.Result
	// SuperviseOutcome is the supervisor's terminal-configuration verdict.
	SuperviseOutcome = supervisor.Outcome
)

// Supervisor outcome values: a supervised reconfiguration always terminates
// in exactly one of these configurations.
const (
	OutcomeFinal   = supervisor.OutcomeFinal
	OutcomeInitial = supervisor.OutcomeInitial
)

// NewRIB returns an empty route table, for callers building RIB-shaped
// state of their own.
func NewRIB() *RIB { return bgp.NewRIB() }

// NewMonitor returns a transient-state monitor over cfg. Hand it to
// PlanOptions.Monitor (the compiled specification is then tracked as an
// additional invariant) and ExecOptions.Monitor (execution binds it to the
// network's snapshot stream, and each violation takes the phase the
// network is in at onset, so it is attributed to a round; it only
// observes, so the run is the same without it). After execution the
// completed timeline is available via its Timeline method.
func NewMonitor(cfg MonitorConfig) *Monitor { return monitor.New(cfg) }

// DefaultInvariants returns the invariants every reconfiguration must
// preserve regardless of its specification: full reachability and
// loop-freedom over g's internal routers.
func DefaultInvariants(g *Graph) []MonitorInvariant {
	return []MonitorInvariant{monitor.ReachAll(g), monitor.LoopFree()}
}

// NewRecorder returns an empty Recorder. Hand it to PlanOptions.Recorder
// and ExecOptions.Recorder (or carry it in a context via the internal obs
// package's WithRecorder for the eval and chaos sweeps), then export with
// its WriteJSONL (spans, then counter totals) or FlameSummary methods.
// Recorded ticks and simulated-clock stamps are deterministic: the same
// reconfiguration produces byte-identical dumps on any machine at any
// concurrency.
func NewRecorder() *Recorder { return obs.New() }

// NewGraph returns an empty topology.
func NewGraph(name string) *Graph { return topology.New(name) }

// ZooTopology returns one of the embedded evaluation topologies (Abilene is
// the real backbone; the rest are deterministic synthetic graphs with the
// published sizes).
func ZooTopology(name string) (*Graph, error) { return topology.Zoo(name) }

// ZooNames lists the evaluation corpus.
func ZooNames() []string { return topology.ZooNames() }

// NewNetwork builds a BGP network over g with the evaluation's default
// message delays, seeded for reproducibility.
func NewNetwork(g *Graph, seed uint64) *Network {
	return sim.New(g, sim.DefaultOptions(seed))
}

// NewCaseStudy builds the paper's §6/§7 scenario on a corpus topology.
// cfg.ExtraPrefixes adds destinations beyond the base prefix, announced in
// cycling patterns so the scenario partitions into several §3 equivalence
// classes (guaranteed multi-class at ExtraPrefixes ≥ 3); planning then
// decomposes by class — see PlanOptions.ClassParallelism.
func NewCaseStudy(topo string, cfg ScenarioConfig) (*Scenario, error) {
	return scenario.CaseStudy(topo, cfg)
}

// NewStorm builds a converged prefix-scale announcement-storm network: a
// small iBGP full mesh whose border router learned cfg.Prefixes routes from
// one external peer, injected as a batch (one message per session) when
// cfg.Batched is set. Use it to exercise 100k-prefix tables; tracing is
// disabled on the storm network by construction.
func NewStorm(cfg StormConfig) (*Storm, error) { return scenario.BuildStorm(cfg) }

// RunningExample builds the Fig. 3 six-router example.
func RunningExample() *Scenario { return scenario.RunningExample() }

// ParseSpec parses a specification in the Fig. 2 surface syntax, resolving
// node names against g. Example: "G reach(NewYork) && wp(Denver, Chicago)".
func ParseSpec(input string, g *Graph) (*Spec, error) {
	return spec.Parse(input, spec.GraphResolver(g))
}

// ReachabilitySpec builds G ∧ reach(n) over all internal routers of g.
func ReachabilitySpec(g *Graph) *Spec { return eval.ReachabilitySpec(g) }

// PlanOptions tune the planning pipeline.
type PlanOptions struct {
	// Spec is the invariant to preserve; nil defaults to full
	// reachability.
	Spec *Spec
	// MaxRounds caps the round-minimization loop (default 16).
	MaxRounds int
	// SolverNodeBudget bounds each feasibility solve by explored
	// branch-and-bound nodes instead of wall-clock time, making the
	// schedule a pure function of the scenario — independent of machine
	// speed, load, and concurrency. Zero means the evaluation sweeps'
	// deterministic budget.
	SolverNodeBudget int64
	// ClassParallelism caps how many prefix equivalence classes are
	// planned concurrently: planning partitions the scenario's prefixes
	// into §3 classes and runs each class's analyzer → scheduler →
	// compiler pipeline as an independent job on a bounded worker pool.
	// 0 (the default) means one worker per CPU; 1 plans classes
	// sequentially. The output is byte-identical at every parallelism
	// level — workers change wall-clock time, never the plan.
	ClassParallelism int
	// Recorder, when non-nil, traces planning: an analyze span, a
	// schedule span with one solve child per attempted round count, and
	// solver-effort counters (nodes, propagations).
	Recorder *Recorder
	// Monitor, when non-nil, additionally tracks the compiled
	// specification as an online invariant: its steady-state projection is
	// checked against every transient forwarding state when the same
	// monitor is later passed to ExecOptions.
	Monitor *Monitor
}

// normalize translates the facade options into scheduler options,
// applying the documented defaults. It is the single place planning
// defaults are decided.
func (o PlanOptions) normalize() scheduler.Options {
	so := scheduler.DefaultOptions()
	if o.MaxRounds > 0 {
		so.MaxRounds = o.MaxRounds
	}
	if o.SolverNodeBudget > 0 {
		so.SolverNodeBudget = o.SolverNodeBudget
	}
	return so
}

// Reconfiguration is a fully planned reconfiguration, ready to execute.
// Analysis, Schedule and Plan describe the class of Scenario.Prefix (the
// first equivalence class); Classes holds every class and Multi the
// aligned multi-destination plan when the scenario spans several prefixes.
type Reconfiguration struct {
	Scenario *Scenario
	Analysis *Analysis
	Spec     *Spec
	Schedule *NodeSchedule
	Plan     *ReconfigurationPlan

	// Classes is the per-equivalence-class planning output, in partition
	// order; single-destination scenarios have exactly one entry.
	Classes []PlannedClass
	// Multi is the aligned plan covering every prefix of the scenario;
	// nil when everything collapses to the single Plan above (which then
	// executes as the multi-plan of one it is).
	Multi *MultiPlan
}

// PlannedClass is the planning output of one prefix equivalence class.
type PlannedClass = plan.ClassPlan

// PlanCtx runs Chameleon's analyzer, scheduler and compiler on a scenario.
// Cancelling ctx aborts the ILP branch-and-bound mid-solve (the search
// polls the context every few hundred nodes) and returns ctx's error. When
// opts.Recorder is set — or ctx already carries a recorder — the whole
// pipeline is traced under a "plan" span with one "class" child per
// equivalence class.
//
// Planning is decomposed by prefix equivalence class (§3): plan.BuildClasses
// plans each class of the scenario's prefixes under opts.Spec, on
// opts.ClassParallelism workers with its member-proportional slice of the
// solver node budget, and aligns the plans into one MultiPlan. Scheduling
// cost therefore scales with the largest class, not the whole prefix set,
// and the result is byte-identical at any worker count.
func PlanCtx(ctx context.Context, s *Scenario, opts PlanOptions) (*Reconfiguration, error) {
	ctx = obs.WithRecorder(ctx, opts.Recorder)
	ctx, span := obs.StartSpan(ctx, "plan", obs.String("scenario", s.Name))
	defer span.End()
	sp := opts.Spec
	if sp == nil {
		sp = eval.ReachabilitySpec(s.Graph)
	}
	planned, mp, err := plan.BuildClasses(ctx, s.Net, s.FinalNetwork(), s.AllPrefixes(), s.Commands,
		func(*Analysis) *Spec { return sp }, opts.normalize(), opts.ClassParallelism)
	span.Add(obs.CtrPlanClasses, int64(len(planned)))
	span.SetAttr("classes", fmt.Sprintf("%d", len(planned)))
	if err != nil {
		return nil, fmt.Errorf("chameleon: %w", err)
	}

	// The single-destination view stays anchored at s.Prefix, which is
	// always the representative of the first class.
	r := &Reconfiguration{
		Scenario: s, Spec: sp, Classes: planned,
		Analysis: planned[0].Analysis,
		Schedule: planned[0].Schedule,
		Plan:     planned[0].Plans[0],
	}
	if len(mp.Plans) > 1 {
		r.Multi = mp
	}
	if opts.Monitor != nil {
		opts.Monitor.Track(monitor.FromSpec("spec", sp))
	}
	return r, nil
}

// ExecOptions tune plan execution.
type ExecOptions struct {
	// Seed drives command-latency draws (defaults to the scenario seed).
	Seed uint64
	// Recorder, when non-nil, traces execution: an execute span with one
	// child per phase (setup, between k, round k — "d<prefix> round k" when
	// the scenario spans several prefixes —, cleanup), per-phase BGP
	// message and command counters, and the recovery ladder's counters
	// (retries, re-pushes, escalations, lost acks, healed faults).
	Recorder *Recorder
	// Monitor, when non-nil, observes every transient forwarding state of
	// the execution: it is bound to the network's snapshot stream for the
	// duration of the run and attributes each violation to the phase the
	// network is in at onset (so to rounds, of every destination). It only
	// observes: a phase ends when BGP has settled, watched or not, so the
	// run is the same with or without it. On success the monitor is
	// finished and its Timeline is complete.
	Monitor *Monitor
	// ReleaseOnError, when set, releases the plan's transient state (the
	// temporary sessions and route-map overrides of already-started rounds)
	// if ExecuteCtx fails or is cancelled, instead of leaving the network
	// in whatever intermediate state the error found it in. The release is
	// the runtime executor's Abort: pending commands are cancelled, cleanup
	// commands applied, and the network run to convergence.
	ReleaseOnError bool
}

// normalize translates the facade options into runtime options, applying
// the documented defaults; defaultSeed is the scenario's seed.
func (o ExecOptions) normalize(defaultSeed uint64) runtime.Options {
	seed := o.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	return runtime.Options{Seed: seed}
}

// ExecuteCtx applies the compiled plan to the scenario's live network,
// mutating it. The returned result carries phase timings and the maximum
// table size observed (§7.3). Cancelling ctx stops the controller between
// supervision steps mid-round and returns ctx's error. By default
// a failed or cancelled execution leaves the network in whatever transient
// state the already-applied commands put it in; set
// ExecOptions.ReleaseOnError to release that state automatically instead.
// A recorder in opts or ctx traces the execution.
func (r *Reconfiguration) ExecuteCtx(ctx context.Context, opts ExecOptions) (*ExecResult, error) {
	ctx = obs.WithRecorder(ctx, opts.Recorder)
	ex := runtime.NewExecutor(r.Scenario.Net, opts.normalize(r.Scenario.Seed))
	var unbind func()
	if m := opts.Monitor; m != nil {
		unbind = m.Bind(r.Scenario.Net)
	}
	mp := r.Multi
	if mp == nil {
		mp = plan.Single(r.Plan)
	}
	res, err := ex.ExecuteCtx(ctx, mp)
	if unbind != nil {
		// Unbind before any release below: teardown churn is outside the
		// §3 guarantee and must not enter the timeline.
		unbind()
	}
	if err != nil {
		if opts.ReleaseOnError {
			ex.Abort(mp.Plans...)
		}
		// Leave the monitor open: the caller may observe the abort or
		// finish it at a time of their choosing.
		return res, err
	}
	if opts.Monitor != nil {
		opts.Monitor.Finish(r.Scenario.Net.Now())
	}
	return res, nil
}

// SuperviseCtx runs the scenario's reconfiguration under the closed-loop
// supervisor: plan → execute, and on a harmful event or a persistent fault
// abort, snapshot the intermediate state, replan from it under a bounded
// deterministic solver budget and resume — degrading through a fast-commit
// of the remaining commands down to a rollback when replanning cannot make
// progress. The result's Outcome is always the final or the initial
// configuration; the network is never left pinned mid-reconfiguration.
// With opts.JournalPath set, every recovery boundary is persisted to a
// crash-safe execution journal first (see ResumeSupervised). Cancellation
// propagates into the replanning solver and the executor's supervision loop.
func SuperviseCtx(ctx context.Context, s *Scenario, opts SuperviseOptions) (*SuperviseResult, error) {
	return supervisor.RunCtx(ctx, s, opts)
}

// ResumeSupervised restarts a supervised reconfiguration from the journal
// at opts.JournalPath after a crash: s must be a freshly built instance of
// the same scenario, onto which the journal's last snapshot is restored
// before supervision continues from the recorded recovery boundary — to
// the same outcome, with byte-identical monitor timelines, as the
// uninterrupted run. A journal that already records an outcome returns the
// completed result without touching the network.
func ResumeSupervised(ctx context.Context, s *Scenario, opts SuperviseOptions) (*SuperviseResult, error) {
	return supervisor.Resume(ctx, s, opts)
}

// Verify evaluates the specification over the forwarding traces recorded
// since res.Start — one per destination prefix — returning nil if every
// transient state of every destination satisfied it.
func (r *Reconfiguration) Verify(res *ExecResult) error {
	for _, prefix := range r.Scenario.AllPrefixes() {
		if r.Multi == nil && prefix != r.Scenario.Prefix {
			// A single-destination execution records only Prefix's trace.
			continue
		}
		tr := r.Scenario.Net.Trace(prefix)
		if tr == nil || len(tr.States) == 0 {
			return fmt.Errorf("chameleon: no forwarding trace recorded for prefix %d", prefix)
		}
		tr.Compact()
		sub := tr.Since(res.Start.Seconds()).States
		if len(sub) == 0 {
			continue
		}
		if !r.Spec.Eval(sub) {
			return fmt.Errorf("chameleon: specification %q violated during execution of prefix %d", r.Spec, prefix)
		}
	}
	return nil
}

// EstimateReconfigurationTime returns T̃ = 12 s · (2 + R) (§7.2).
func (r *Reconfiguration) EstimateReconfigurationTime() time.Duration {
	return runtime.EstimateReconfigurationTime(r.Schedule.R)
}
