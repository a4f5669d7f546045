package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"time"

	"chameleon/internal/analyzer"
	"chameleon/internal/fwd"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/pool"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

// Case is one chaos experiment: a scenario topology, a dominant fault
// kind, and the seed driving both the scenario and the fault schedule.
type Case struct {
	Topology string
	Fault    sim.FaultKind
	Seed     uint64
}

// Outcome classifies how a chaos run ended. Every outcome except
// OutcomeViolation is acceptable: the controller either succeeded or
// visibly degraded. A violation — an invariant breach in a run the
// controller reported as clean — is the failure chaos testing hunts.
type Outcome int

const (
	// OutcomeClean: no faults materialized and the plan ran unperturbed.
	OutcomeClean Outcome = iota
	// OutcomeRecovered: faults were injected and the self-healing
	// machinery absorbed them; all invariants verified.
	OutcomeRecovered
	// OutcomeDegraded: the controller visibly degraded (monitor alarm or
	// escalation) but completed.
	OutcomeDegraded
	// OutcomeAborted: the controller gave up visibly and released the
	// transient state.
	OutcomeAborted
	// OutcomeViolation: an invariant was breached in a run the controller
	// did not flag — the one unacceptable outcome.
	OutcomeViolation
)

func (o Outcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeRecovered:
		return "recovered"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeAborted:
		return "aborted"
	case OutcomeViolation:
		return "VIOLATION"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// CaseResult reports one chaos run. Every field is a deterministic
// function of the Case (simulated time only, no wall clock), so two runs
// of the same case compare byte-for-byte.
type CaseResult struct {
	Topology string
	Fault    string
	Seed     uint64

	Outcome Outcome
	Err     string
	// SimDuration is the simulated execution time (zero when aborted).
	SimDuration time.Duration
	Rounds      int

	CommandsApplied int
	CommandFaults   int
	MessageFaults   int
	Flaps           int

	Recovery runtime.RecoveryStats

	Violations []string
	// TransientViolationTime is the union duration of the transient-state
	// monitor's violation intervals (reach + loop-freedom) during an
	// unflagged execution; zero for flagged, aborted, or clean runs.
	TransientViolationTime time.Duration
	// Fingerprint hashes the fault schedule and the outcome; equal
	// fingerprints mean identical faults and identical results.
	Fingerprint uint64
}

// injectorFor builds the fault-matrix column for one dominant fault kind.
// MaxAttemptFaults 2 with the executor's default 3 retries means every
// command eventually lands — persistent-fault escalation is exercised
// separately by the runtime tests.
func injectorFor(kind sim.FaultKind, seed uint64) *Injector {
	cfg := InjectorConfig{Seed: seed, DelayFactor: 3, MaxAttemptFaults: 2}
	switch kind {
	case sim.FaultDrop:
		cfg.CommandRate = 0.30
		cfg.CommandKinds = []sim.FaultKind{sim.FaultDrop}
	case sim.FaultDelay:
		cfg.CommandRate = 0.35
		cfg.CommandKinds = []sim.FaultKind{sim.FaultDelay}
		cfg.MessageRate = 0.05
		cfg.MessageKinds = []sim.FaultKind{sim.FaultDelay}
	case sim.FaultDuplicate:
		cfg.CommandRate = 0.35
		cfg.CommandKinds = []sim.FaultKind{sim.FaultDuplicate}
		cfg.MessageRate = 0.05
		cfg.MessageKinds = []sim.FaultKind{sim.FaultDuplicate}
	case sim.FaultPartial:
		cfg.CommandRate = 0.30
		cfg.CommandKinds = []sim.FaultKind{sim.FaultPartial}
	}
	// FaultFlap and FaultNone inject no per-command faults; flaps are
	// scheduled as external events.
	return NewInjector(cfg)
}

// buildScenario constructs the named scenario deterministically.
func buildScenario(name string, seed uint64) (*scenario.Scenario, error) {
	if name == "RunningExample" {
		return scenario.RunningExample(), nil
	}
	return scenario.CaseStudy(name, scenario.Config{Seed: seed})
}

// flapEvents schedules nflaps session flaps over internal iBGP sessions,
// spread across the execution, counting actual flaps into *flapped.
func flapEvents(s *scenario.Scenario, seed uint64, nflaps int, flapped *int) []runtime.ScheduledEvent {
	var pairs [][2]topology.NodeID
	for _, n := range s.Graph.Internal() {
		for _, nb := range s.Net.Sessions(n) {
			if nb > n && !s.Graph.Node(nb).External {
				pairs = append(pairs, [2]topology.NodeID{n, nb})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	if len(pairs) == 0 {
		return nil
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xd1b54a32d192ed03))
	perm := rng.Perm(len(pairs))
	if nflaps > len(pairs) {
		nflaps = len(pairs)
	}
	const hold = 25 * time.Second
	var evs []runtime.ScheduledEvent
	for i := 0; i < nflaps; i++ {
		a, b := pairs[perm[i]][0], pairs[perm[i]][1]
		evs = append(evs, runtime.ScheduledEvent{
			After: 40*time.Second + time.Duration(i)*45*time.Second,
			Name:  fmt.Sprintf("flap n%d–n%d", int(a), int(b)),
			Apply: func(n *sim.Network) {
				if n.FlapSession(a, b, hold) {
					*flapped++
				}
			},
		})
	}
	return evs
}

// timelineViolations renders the transient-state monitor's violation
// intervals as the chaos report's violation strings.
func timelineViolations(tl *monitor.Timeline) []string {
	var out []string
	for _, v := range tl.Violations {
		out = append(out, fmt.Sprintf("%s violated %.2fs–%.2fs (%d nodes)",
			v.Invariant, v.Start.Seconds(), v.End.Seconds(), len(v.Nodes)))
	}
	return out
}

// verifyEndState checks the trace-shape guarantees of §3 that the online
// monitor cannot see per state: at most one next-hop change per node,
// final state equal to the analyzed target, and bounded transient eBGP
// exports. Per-state loop-freedom and reachability are the transient-state
// monitor's job (see RunCaseCtx). Session flaps legitimately cause extra
// (forwarding-equivalent) churn and export refreshes, so strict=false
// skips the change-count and export bounds — harmful flaps are caught by
// the monitor instead.
func verifyEndState(a *analyzer.Analysis, s *scenario.Scenario, start time.Duration, strict bool) []string {
	var viol []string
	full := s.Net.Trace(s.Prefix)
	full.Compact()
	// Restrict to the execution window: the trace also records the
	// scenario's initial bring-up convergence, which precedes the plan and
	// is outside Chameleon's responsibility.
	lo := start.Seconds() - 1e-9
	var tr fwd.Trace
	for i, ts := range full.Times {
		if ts >= lo {
			tr.Times = append(tr.Times, ts)
			tr.States = append(tr.States, full.States[i])
		}
	}
	if len(tr.States) == 0 {
		return []string{"no forwarding trace recorded during execution"}
	}
	internal := s.Graph.Internal()
	final := tr.States[len(tr.States)-1]
	for _, n := range internal {
		if final[n] != a.NHNew[n] {
			viol = append(viol, fmt.Sprintf("node n%d final next hop %d, want %d",
				int(n), int(final[n]), int(a.NHNew[n])))
		}
	}
	if strict {
		for _, n := range internal {
			changes := 0
			prev := tr.States[0][n]
			for _, st := range tr.States[1:] {
				if st[n] != prev {
					changes++
					prev = st[n]
				}
			}
			if changes > 1 {
				viol = append(viol, fmt.Sprintf("node n%d changed next hop %d times", int(n), changes))
			}
		}
		if got, bound := s.Net.EBGPExports(s.Prefix), 3*len(s.Ext); got > bound {
			viol = append(viol, fmt.Sprintf("%d transient eBGP exports (bound %d)", got, bound))
		}
	}
	return viol
}

// RunCase executes one chaos case end to end: build the scenario, compile
// a plan, install the seeded injector (and flap schedule), execute under
// supervision, then classify the outcome and verify the invariants
// offline. The same Case always produces the identical CaseResult.
func RunCase(c Case) (*CaseResult, error) {
	return RunCaseCtx(context.Background(), c)
}

// RunCaseCtx is RunCase with a context: cancellation propagates into the
// scheduler's solver and the executor's supervision loop, and a recorder
// carried by ctx observes the run (a chaos-case span over the analyze,
// schedule and execute spans, plus the chaos_cases / chaos_violations
// counters). Observation never perturbs the case: the CaseResult — and its
// fingerprint — is identical with and without a recorder.
func RunCaseCtx(ctx context.Context, c Case) (*CaseResult, error) {
	ctx, span := obs.StartSpan(ctx, "chaos-case",
		obs.String("topology", c.Topology),
		obs.String("fault", c.Fault.String()),
		obs.Int("seed", int64(c.Seed)))
	defer span.End()
	span.Add(obs.CtrChaosCases, 1)

	s, err := buildScenario(c.Topology, c.Seed)
	if err != nil {
		return nil, err
	}
	a, err := analyzer.AnalyzeCtx(ctx, s.Net, s.FinalNetwork(), s.Prefix)
	if err != nil {
		return nil, err
	}
	sched, err := scheduler.ScheduleCtx(ctx, a, spec.Reachability(s.Graph), scheduler.DefaultOptions())
	if err != nil {
		return nil, err
	}
	p, err := plan.Compile(a, sched, s.Commands)
	if err != nil {
		return nil, err
	}

	inj := injectorFor(c.Fault, c.Seed)
	s.Net.SetFaultInjector(inj)

	flapped := 0
	opts := runtime.Options{Seed: c.Seed}
	if c.Fault == sim.FaultFlap {
		opts.ExternalEvents = flapEvents(s, c.Seed, 2, &flapped)
	}

	// The transient-state monitor observes every forwarding snapshot of
	// the execution online (reach + loop-freedom, per-round attribution);
	// the executor's alarm is its reachability invariant alone.
	// No convergence gate here: chaos measures the executor under its
	// default advancement policy, and gating would shift fault timing.
	reach := monitor.ReachAll(s.Graph)
	mon := monitor.New(monitor.Config{
		Name:       "chaos",
		Invariants: []monitor.Invariant{reach, monitor.LoopFree()},
	})
	opts.PhaseObserver = mon.SetPhase
	opts.Monitor = func(net *sim.Network) string {
		if ok, _ := reach.Check(net.ForwardingState(s.Prefix)); !ok {
			return reach.Name
		}
		return ""
	}

	ex := runtime.NewExecutor(s.Net, opts)
	unbind := mon.Bind(s.Net)
	res, execErr := ex.ExecuteCtx(ctx, p)
	// Unbind before any Abort below: teardown churn is outside the §3
	// guarantee and must not enter the timeline.
	unbind()
	if cerr := ctx.Err(); cerr != nil {
		// Caller cancellation is not a controller abort; the case has no
		// outcome.
		return nil, cerr
	}
	rec := ex.Recovery()

	out := &CaseResult{
		Topology: c.Topology,
		Fault:    c.Fault.String(),
		Seed:     c.Seed,
		Rounds:   sched.R,
		Recovery: rec,
	}
	if execErr != nil {
		// The controller gave up; release the transient state so the
		// network is left clean — a visible abort, never a silent one.
		ex.Abort(p)
		out.Outcome = OutcomeAborted
		out.Err = execErr.Error()
	} else {
		out.SimDuration = res.Duration()
		out.CommandsApplied = res.CommandsApplied
	}
	out.CommandFaults = inj.CommandFaults()
	out.MessageFaults = inj.MessageFaults()
	out.Flaps = flapped

	if execErr == nil {
		switch {
		case rec.Escalations > 0 || rec.MonitorAlarms > 0:
			out.Outcome = OutcomeDegraded
		default:
			// Classification derives from the monitor's timeline (every
			// transient state, checked online) plus the trace-shape checks
			// only the full trace can answer.
			tl := mon.Finish(s.Net.Now())
			out.TransientViolationTime = tl.TotalViolation()
			out.Violations = append(timelineViolations(tl),
				verifyEndState(a, s, res.Start, c.Fault != sim.FaultFlap)...)
			switch {
			case len(out.Violations) > 0:
				out.Outcome = OutcomeViolation
			case rec.Any() || out.CommandFaults+out.MessageFaults+out.Flaps > 0:
				out.Outcome = OutcomeRecovered
			default:
				out.Outcome = OutcomeClean
			}
		}
	}

	if n := len(out.Violations); n > 0 {
		span.Add(obs.CtrChaosViolations, int64(n))
	}

	h := fnv.New64a()
	fmt.Fprintf(h, "%d;%s;%d;%s;%v;%d;%d;%d;%d;%+v",
		inj.Fingerprint(), out.Outcome, out.SimDuration, out.Err,
		out.Violations, out.TransientViolationTime, flapped,
		out.CommandsApplied, out.Rounds, rec)
	out.Fingerprint = h.Sum64()
	return out, nil
}

// SweepConfig spans the scenario × fault matrix.
type SweepConfig struct {
	Topologies []string
	Faults     []sim.FaultKind
	Seeds      []uint64
	// Workers bounds how many cases run concurrently: ≤ 0 means one per
	// CPU, 1 reproduces the historical sequential sweep. Every case builds
	// its own scenario, network, injector and executor, so the matrix is
	// embarrassingly parallel; results (and their fingerprints) are merged
	// in matrix order and identical at any worker count.
	Workers int
}

// DefaultSweep returns the standard matrix: three corpus topologies ×
// five fault kinds (plus the fault-free control) × one seed, one case per
// CPU at a time.
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Topologies: []string{"Abilene", "Basnet", "Heanet"},
		Faults: []sim.FaultKind{
			sim.FaultNone, sim.FaultDrop, sim.FaultDelay,
			sim.FaultDuplicate, sim.FaultPartial, sim.FaultFlap,
		},
		Seeds: []uint64{1},
	}
}

// Summary aggregates sweep results per fault kind.
type Summary struct {
	Fault string
	Runs  int

	Clean, Recovered, Degraded, Aborted, Violations int

	CommandFaults, MessageFaults, Flaps      int
	Retries, Repushes, Escalations, AcksLost int
	MonitorAlarms                            int
}

// Sweep runs the whole matrix cfg.Workers-wide, returning each case's
// result in matrix order (topology-major, then fault kind, then seed —
// independent of completion order) plus per-kind summaries (in cfg.Faults
// order). The progress callback, when non-nil, is serialized and observes
// each result as it completes; with Workers > 1 that order varies between
// runs even though the returned results never do.
func Sweep(cfg SweepConfig, progress func(CaseResult)) ([]CaseResult, []Summary, error) {
	return SweepCtx(context.Background(), cfg, progress)
}

// SweepCtx is Sweep with a context. Cancellation stops the matrix (cases
// already running finish their current solver/supervision poll and bail).
// A recorder carried by ctx observes every case, adopted as
// "case <topology>/<fault>/<seed>" in matrix order (see pool.Map).
func SweepCtx(ctx context.Context, cfg SweepConfig, progress func(CaseResult)) ([]CaseResult, []Summary, error) {
	var cases []Case
	for _, topo := range cfg.Topologies {
		for _, kind := range cfg.Faults {
			for _, seed := range cfg.Seeds {
				cases = append(cases, Case{Topology: topo, Fault: kind, Seed: seed})
			}
		}
	}

	report := pool.Serialize(progress)
	results, err := pool.Map(ctx, cfg.Workers, len(cases),
		func(i int) string {
			c := cases[i]
			return fmt.Sprintf("case %s/%s/%d", c.Topology, c.Fault, c.Seed)
		},
		func(wctx context.Context, i int) (CaseResult, error) {
			c := cases[i]
			r, err := RunCaseCtx(wctx, c)
			if err != nil {
				return CaseResult{}, fmt.Errorf("chaos: %s/%s/seed=%d: %w", c.Topology, c.Fault, c.Seed, err)
			}
			report(*r)
			return *r, nil
		})
	if err != nil {
		return nil, nil, err
	}

	// Aggregate in matrix order so summaries are as deterministic as the
	// per-case results they fold.
	idx := make(map[string]int, len(cfg.Faults))
	sums := make([]Summary, len(cfg.Faults))
	for i, k := range cfg.Faults {
		idx[k.String()] = i
		sums[i].Fault = k.String()
	}
	for i := range results {
		r := &results[i]
		sm := &sums[idx[r.Fault]]
		sm.Runs++
		switch r.Outcome {
		case OutcomeClean:
			sm.Clean++
		case OutcomeRecovered:
			sm.Recovered++
		case OutcomeDegraded:
			sm.Degraded++
		case OutcomeAborted:
			sm.Aborted++
		case OutcomeViolation:
			sm.Violations++
		}
		sm.CommandFaults += r.CommandFaults
		sm.MessageFaults += r.MessageFaults
		sm.Flaps += r.Flaps
		sm.Retries += r.Recovery.Retries
		sm.Repushes += r.Recovery.Repushes
		sm.Escalations += r.Recovery.Escalations
		sm.AcksLost += r.Recovery.AcksLost
		sm.MonitorAlarms += r.Recovery.MonitorAlarms
	}
	return results, sums, nil
}
