// Package runtime implements Chameleon's runtime controller (§2.2): it
// applies a compiled reconfiguration plan to the live (simulated) network,
// checking each step's pre-conditions before pushing its command and
// advancing to the next round only once every post-condition holds. Router
// command latency is modeled after the paper's testbed measurements (§7.2:
// 8–12 s per route-map change on Cisco Nexus 7000).
//
// The executor is self-healing: it never assumes a pushed command was
// applied. Every command is tracked through its acknowledgment token and a
// configuration readback (sim.Command.Verify); a command that stays
// unconfirmed past its per-command timeout climbs an escalation ladder —
// seeded-deterministic retries with capped exponential backoff and jitter,
// then a forced re-push of the phase's configuration, and finally the
// configured §8 reaction policy (replan or visible abort). The ladder's
// timings are the constants below.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/sim"
)

// The executor's timing model, in simulated time.
const (
	// minCommandLatency and maxCommandLatency bound the uniform router
	// command application latency (§7.2).
	minCommandLatency = 8 * time.Second
	maxCommandLatency = 12 * time.Second
	// conditionTimeout bounds how long the controller waits without any
	// progress (no command pushed, confirmed, or retried) before declaring
	// the plan stuck.
	conditionTimeout = 120 * time.Second
	// commandTimeout is the per-command acknowledgment deadline, measured
	// from the expected application time: a command unconfirmed for this
	// long is presumed lost and retried. Distinct from conditionTimeout,
	// which guards whole phases.
	commandTimeout = 30 * time.Second
	// maxRetries bounds the backoff retries per command before the
	// escalation ladder moves past them.
	maxRetries = 3
	// retryBackoffBase and retryBackoffCap shape the capped exponential
	// backoff between retries; a seeded jitter of up to half the backoff is
	// added.
	retryBackoffBase = 2 * time.Second
	retryBackoffCap  = 15 * time.Second
)

// Options configure plan execution.
type Options struct {
	// Seed drives the command-latency and retry-jitter draws.
	Seed uint64
	// ExternalEvents are injected into the network at the given offsets
	// from execution start (Fig. 11's link failure / new announcement).
	ExternalEvents []ScheduledEvent
	// Monitor, when set, is evaluated after every simulated event during
	// plan execution — including the Between slots where original commands
	// converge. It returns "" while the network is healthy and otherwise
	// names the violated invariant, reporting a harmful external event (e.g.
	// a best-route withdrawal breaking reachability, §8); under ReactReplan
	// the name makes the resulting ReplanError attributable.
	Monitor func(*sim.Network) string
	// Reaction selects how the controller responds to a Monitor alarm or
	// an exhausted escalation ladder. §8's third reaction, committing to the
	// final configuration, is the supervisor's commit rung.
	Reaction ReactionPolicy
	// Convergence, when set, gates phase completion on observed forwarding
	// convergence: a phase whose commands are all confirmed and whose
	// post-conditions hold still keeps processing events until the gate
	// reports the forwarding plane quiescent. An empty event queue always
	// completes the phase regardless of the gate (nothing further can
	// change), and the conditionTimeout watchdog remains the fallback for
	// gates that never open. The transient-state monitor's Gate provides
	// the canonical implementation.
	Convergence func(*sim.Network) bool
	// PhaseObserver, when set, is told the name of every execution phase as
	// it starts (setup, between k, round k, cleanup), independent
	// of whether a Recorder is attached. The transient-state monitor uses
	// it to attribute violations to the round that caused them.
	PhaseObserver func(name string)
	// Recorder, when set, receives the execution trace: an "execute" span
	// with one child per phase (setup, between k, round k, cleanup),
	// stamped with the simulated clock, plus the command/retry/
	// escalation counters. A recorder on the execution context (see
	// ExecuteCtx) is used when this is nil.
	Recorder *obs.Recorder
}

// ReactionPolicy is the §8 response to harmful external events.
type ReactionPolicy int

const (
	// ReactIgnore continues the plan: the pinned transient state already
	// masks most events (the default, Fig. 11 behavior).
	ReactIgnore ReactionPolicy = iota
	// ReactReplan aborts execution and returns ErrReplanNeeded so the
	// caller can compute a fresh plan from the current state (§8
	// reaction 2); call Abort first to release the transient state.
	ReactReplan
)

// ErrReplanNeeded signals that a monitored violation occurred under
// ReactReplan; the caller should Abort the current plan and replan from the
// network's current state.
var ErrReplanNeeded = errors.New("runtime: external event detected; replan required")

// ReplanError is the structured form of ErrReplanNeeded: it records what
// fired (the invariant Options.Monitor named, if one did), where (the plan's
// prefix) and when (simulated time), so supervisor decisions and chaos
// classifications are attributable to a concrete detection instead of a bare
// sentinel. It wraps ErrReplanNeeded — errors.Is(err, ErrReplanNeeded)
// matches — plus the underlying escalation error, when one exists (Cause is
// nil for pure monitor alarms).
type ReplanError struct {
	// Invariant is the name of the firing invariant, "" when unknown.
	Invariant string
	// Prefix is the prefix under reconfiguration.
	Prefix bgp.Prefix
	// SimTime is the simulated time of the detection.
	SimTime time.Duration
	// Cause is the escalation-ladder error that forced the replan, nil when
	// the trigger was a Monitor alarm.
	Cause error
}

func (e *ReplanError) Error() string {
	inv := e.Invariant
	if inv == "" {
		inv = "unknown invariant"
	}
	msg := fmt.Sprintf("runtime: replan required (%s, prefix %d, t=%v)", inv, int(e.Prefix), e.SimTime)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap makes the error match both ErrReplanNeeded and its cause under
// errors.Is / errors.As.
func (e *ReplanError) Unwrap() []error {
	if e.Cause == nil {
		return []error{ErrReplanNeeded}
	}
	return []error{ErrReplanNeeded, e.Cause}
}

// ScheduledEvent is an external event fired during the reconfiguration.
type ScheduledEvent struct {
	After time.Duration
	Name  string
	Apply func(*sim.Network)
}

// PhaseSpan records when a phase of the plan executed (simulated time).
type PhaseSpan struct {
	Name       string
	Start, End time.Duration
}

// RecoveryStats counts the self-healing machinery's activity during one
// execution: the escalation ladder is retry → re-push → §8 reaction.
type RecoveryStats struct {
	// Retries counts backoff re-pushes of commands whose acknowledgment
	// did not arrive within commandTimeout.
	Retries int
	// Repushes counts ladder-2 forced refreshes (the command and any
	// phase configuration found missing are pushed once more, without
	// backoff, before escalating).
	Repushes int
	// Escalations counts ladder-3 handoffs to the §8 reaction policy.
	Escalations int
	// AcksLost counts commands confirmed by configuration readback after
	// their acknowledgment was lost (partial-application recoveries).
	AcksLost int
	// MonitorAlarms counts Monitor evaluations reporting a harmful event.
	MonitorAlarms int
}

// Any reports whether any self-healing action or alarm occurred.
func (r RecoveryStats) Any() bool {
	return r.Retries+r.Repushes+r.Escalations+r.AcksLost+r.MonitorAlarms > 0
}

// Result reports a finished execution.
type Result struct {
	Start, End time.Duration
	Phases     []PhaseSpan
	// CommandsApplied counts plan commands (steps + originals), not
	// counting self-healing retries.
	CommandsApplied int
	// MaxTableEntries is the §7.3 metric observed during execution.
	MaxTableEntries int
	// Committed is never set: the executor has no commit reaction, §8's
	// third reaction being the supervisor's commit rung. It stays only
	// because the frozen benchmark module reads it.
	Committed bool
	// Recovery reports the self-healing activity of this execution.
	Recovery RecoveryStats
}

// Duration returns the total execution time.
func (r *Result) Duration() time.Duration { return r.End - r.Start }

// Executor applies a plan to a live network.
type Executor struct {
	net  *sim.Network
	opts Options
	rng  *rand.Rand

	// rec accumulates self-healing statistics for the current execution;
	// exposed through Result.Recovery and the Recovery accessor (the
	// latter also reports aborted executions).
	rec RecoveryStats

	// runs counts executions on this executor; each gets its own derived
	// RNG stream (see beginRun).
	runs uint64

	// curPrefix is the prefix of the plan whose steps ran last, stamped
	// into ReplanErrors.
	curPrefix bgp.Prefix

	// aborted remembers the last plan released by Abort, making Abort
	// idempotent: callers (the facade's ReleaseOnError, the supervisor, and
	// manual callers following the ReactReplan docstring) may each Abort
	// without re-running cleanup commands on an already-released network.
	aborted *plan.Plan

	// ctx is the current execution's context (cancellation is polled in
	// every supervision loop); execSpan/phaseSpan are the current trace
	// spans (nil when unrecorded).
	ctx       context.Context
	obsRec    *obs.Recorder
	execSpan  *obs.Span
	phaseSpan *obs.Span
}

// NewExecutor wraps a converged network.
func NewExecutor(net *sim.Network, opts Options) *Executor {
	return &Executor{
		net:  net,
		opts: opts,
		rng:  rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xe7037ed1a0b428db)),
	}
}

// Recovery returns the self-healing statistics of the most recent
// execution, including executions that ended in an error or abort.
func (e *Executor) Recovery() RecoveryStats { return e.rec }

// beginRun gives the starting execution exclusive RNG streams: run r's
// latency and backoff draws (and, via Network.BeginRun, the network's
// message-jitter draws) are a pure function of (Options.Seed, r), never of
// how many draws earlier executions on the same executor or network
// consumed. Without this, sequential runs on one network interleave draws
// and fault/latency schedules stop being reproducible from the seed alone —
// exactly the nondeterminism that would poison parallel sweeps built from
// multi-run pipelines. Run 0 keeps the constructor stream, so
// single-execution results are bit-identical to prior behavior.
func (e *Executor) beginRun() {
	if e.runs > 0 {
		s := sim.DeriveSeed(e.opts.Seed, e.runs)
		e.rng = rand.New(rand.NewPCG(s, s^0xe7037ed1a0b428db))
	}
	e.runs++
	e.net.BeginRun()
}

func (e *Executor) latency() time.Duration {
	return minCommandLatency + time.Duration(e.rng.Int64N(int64(maxCommandLatency-minCommandLatency)))
}

// backoff returns the delay before the retry-th re-push (1-based): capped
// exponential with a seeded jitter of up to half the backoff.
func (e *Executor) backoff(retry int) time.Duration {
	d := retryBackoffBase
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= retryBackoffCap {
			break
		}
	}
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	return d + time.Duration(e.rng.Int64N(int64(d)/2+1))
}

// pushTracked pushes cmd through the network's fault layer after the
// router latency plus extraDelay, returning the acknowledgment token and
// the verification deadline for this attempt.
func (e *Executor) pushTracked(cmd sim.Command, attempt int, extraDelay time.Duration) (*sim.CommandToken, time.Duration) {
	e.count(obs.CtrExecCommandsPushed, 1)
	lat := e.latency() + extraDelay
	tk := e.net.ScheduleCommand(lat, cmd, attempt)
	return tk, e.net.Now() + lat + commandTimeout
}

// ctxDone polls the execution context without blocking.
func (e *Executor) ctxDone() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return e.ctx.Err()
	default:
		return nil
	}
}

// count attributes an executor counter to the current phase span when one
// is open, else to the execute span (both nil-safe).
func (e *Executor) count(name string, delta int64) {
	if e.phaseSpan != nil {
		e.phaseSpan.Add(name, delta)
		return
	}
	e.execSpan.Add(name, delta)
}

// startPhase opens a trace span for one phase, points the sim layer's
// counter attribution at it and labels the network's provenance layer so
// causes registered during the phase carry its name; endPhase closes the
// span and reverts attribution and label. Phase observers are notified
// first, recorder or not.
func (e *Executor) startPhase(name string) *obs.Span {
	if e.opts.PhaseObserver != nil {
		e.opts.PhaseObserver(name)
	}
	e.net.SetPhaseLabel(name)
	if e.obsRec == nil {
		return nil
	}
	sp := e.obsRec.StartSpan(e.execSpan, name)
	e.phaseSpan = sp
	e.net.SetObsSpan(sp)
	return sp
}

func (e *Executor) endPhase(sp *obs.Span) {
	sp.End()
	e.phaseSpan = nil
	e.net.SetPhaseLabel("")
	if e.obsRec != nil {
		e.net.SetObsSpan(nil)
	}
}

// Execute runs the plan to completion. The network must be converged; on
// return it is converged in the final configuration. Forwarding traces
// accumulate in the network's trace recorder for later verification. It is
// ExecuteCtx under context.Background().
func (e *Executor) Execute(p *plan.Plan) (*Result, error) {
	return e.ExecuteCtx(context.Background(), p)
}

// ExecuteCtx is Execute with a context: cancellation is polled in every
// supervision loop (per simulated event), so a cancelled execution returns
// promptly mid-round with the context's error, and a recorder — from
// Options.Recorder or, failing that, the context — receives an "execute"
// span tree stamped with the simulated clock. A plan is a multi-plan of one.
func (e *Executor) ExecuteCtx(ctx context.Context, p *plan.Plan) (*Result, error) {
	return e.execute(ctx, plan.Single(p))
}

// ExecuteMultiCtx is ExecuteCtx for a multi-destination reconfiguration
// (§5): every destination's plan, aligned on the shared original commands.
func (e *Executor) ExecuteMultiCtx(ctx context.Context, mp *plan.MultiPlan) (*Result, error) {
	if len(mp.Plans) == 0 {
		return nil, fmt.Errorf("runtime: multi-plan holds no plan")
	}
	return e.execute(ctx, mp)
}

// execute is the one body behind both doors: the setup of every
// destination, then each destination's update rounds up to the Between slot
// the next group of original commands sits in, that group, and so on, and at
// last the cleanup of every destination. A group is a run of mp.Order that
// every plan places in one slot; it is pushed as one batch. An empty Between
// slot is a synchronization point all the same: the network drains there
// before the plan's next round starts. Phases are named setup, between k
// (the run's k-th synchronization point — for one plan, its slot k), round k
// ("d7 round k" for destination 7 of several) and cleanup.
func (e *Executor) execute(ctx context.Context, mp *plan.MultiPlan) (*Result, error) {
	if !e.net.Converged() {
		return nil, fmt.Errorf("runtime: network not converged at start")
	}
	e.ctx = ctx
	e.obsRec = e.opts.Recorder
	if e.obsRec == nil {
		e.obsRec = obs.RecorderFrom(ctx)
	}
	if e.obsRec != nil {
		// The simulated clock is the only time source a trace may carry —
		// wall clock would break byte-identical reproducibility.
		e.obsRec.SetClock(e.net.Now)
		e.net.SetRecorder(e.obsRec)
		e.execSpan = e.obsRec.StartSpan(obs.SpanFrom(ctx), "execute")
		defer func() {
			e.execSpan.End()
			e.obsRec.SetClock(nil)
			e.net.SetRecorder(nil)
			e.net.SetObsSpan(nil)
			e.execSpan = nil
			e.phaseSpan = nil
			e.obsRec = nil
		}()
	}
	defer func() { e.ctx = nil }()
	e.beginRun()
	e.aborted = nil
	res := &Result{Start: e.net.Now()}
	e.rec = RecoveryStats{}
	for _, p := range mp.Plans {
		e.net.RecordInitialState(p.Prefix)
	}
	e.net.ResetMaxTableEntries()

	// Schedule external events relative to the start; each roots its own
	// causal chain so violations it sets off blame the named event.
	for _, ev := range e.opts.ExternalEvents {
		ev := ev
		e.net.ScheduleEventAt(res.Start+ev.After, ev.Name, func(n *sim.Network) { ev.Apply(n) })
	}

	// runPhase runs, as one named phase, the steps it is handed of each of
	// plans in turn.
	runPhase := func(name string, plans []*plan.Plan, steps func(*plan.Plan) []plan.Step) error {
		start := e.net.Now()
		sp := e.startPhase(name)
		var err error
		for _, p := range plans {
			if err = e.runSteps(p.Prefix, steps(p), e.opts.Convergence); err != nil {
				break
			}
			res.CommandsApplied += len(steps(p))
		}
		e.endPhase(sp)
		if err != nil {
			return fmt.Errorf("runtime: %s: %w", name, err)
		}
		res.Phases = append(res.Phases, PhaseSpan{Name: name, Start: start, End: e.net.Now()})
		return nil
	}
	// between is the run's next synchronization point, a phase like any
	// other: its steps are a group's original commands, which have no pre-
	// or post-condition and so are pushed as one batch, and it ends once
	// they are confirmed and the network has converged. Without steps it
	// only drains. It belongs to no destination: a ReplanError raised here
	// names the plan whose steps ran last.
	syncs := 0
	between := func(group []plan.Step) error {
		sp := e.startPhase(fmt.Sprintf("between %d", syncs))
		syncs++
		err := e.runSteps(e.curPrefix, group, (*sim.Network).Converged)
		e.endPhase(sp)
		if err == nil {
			res.CommandsApplied += len(group)
		}
		return err
	}
	// advance takes plan i through its Between slots below to: slot k drains
	// the network if it holds no command (one that does was pushed with its
	// group), then round k+1 runs.
	slot := make([]int, len(mp.Plans))
	advance := func(i, to int) error {
		p := mp.Plans[i]
		for ; slot[i] < to; slot[i]++ {
			k := slot[i]
			if k < len(p.Between) && len(p.Between[k]) == 0 {
				if err := between(nil); err != nil {
					return err
				}
			}
			if k < p.R {
				name := fmt.Sprintf("round %d", k+1)
				if len(mp.Plans) > 1 {
					name = fmt.Sprintf("d%d round %d", int(p.Prefix), k+1)
				}
				err := runPhase(name, mp.Plans[i:i+1], func(p *plan.Plan) []plan.Step { return p.Rounds[k] })
				if err != nil {
					return err
				}
			}
		}
		return nil
	}

	if err := runPhase("setup", mp.Plans, func(p *plan.Plan) []plan.Step { return p.Setup }); err != nil {
		return nil, err
	}
	for next := 0; next < len(mp.Order); {
		first := mp.Order[next]
		var group []plan.Step
		for _, ci := range mp.Order[next:] {
			if !sameSlots(mp.Plans, first, ci) {
				break
			}
			group = append(group, plan.Step{Command: mp.Originals[ci]})
		}
		for i, p := range mp.Plans {
			if err := advance(i, p.OriginalSlots[first]); err != nil {
				return nil, err
			}
		}
		if err := between(group); err != nil {
			return nil, err
		}
		next += len(group)
	}
	for i, p := range mp.Plans {
		if err := advance(i, p.R+1); err != nil {
			return nil, err
		}
	}
	if err := runPhase("cleanup", mp.Plans, func(p *plan.Plan) []plan.Step { return p.Cleanup }); err != nil {
		return nil, err
	}
	// Let any remaining convergence settle.
	e.net.Run()
	res.End = e.net.Now()
	res.MaxTableEntries = e.net.MaxTableEntries()
	res.Recovery = e.rec
	// Mirror the recovery ladder's activity into the trace counters.
	e.execSpan.Add(obs.CtrExecRetries, int64(e.rec.Retries))
	e.execSpan.Add(obs.CtrExecRepushes, int64(e.rec.Repushes))
	e.execSpan.Add(obs.CtrExecEscalations, int64(e.rec.Escalations))
	e.execSpan.Add(obs.CtrExecAcksLost, int64(e.rec.AcksLost))
	e.execSpan.Add(obs.CtrExecMonitorAlarms, int64(e.rec.MonitorAlarms))
	return res, nil
}

// sameSlots reports whether every plan places original commands a and b in
// the same Between slot.
func sameSlots(plans []*plan.Plan, a, b int) bool {
	for _, p := range plans {
		if p.OriginalSlots[a] != p.OriginalSlots[b] {
			return false
		}
	}
	return true
}

// superviseRun is the phase without steps: it drains the event queue like
// sim.Network.Run but consults the Monitor after every event, so external
// events landing in otherwise idle Between slots are still caught (§8).
func (e *Executor) superviseRun() error {
	for e.net.Step() {
		if err := e.ctxDone(); err != nil {
			return err
		}
		if err := e.pollMonitor(); err != nil {
			return err
		}
	}
	return nil
}

// pollMonitor is §8 supervision: it asks the Monitor about the state the
// last event left and hands a violated invariant to the reaction policy at
// once. Nil means healthy, or an alarm the policy ignores.
func (e *Executor) pollMonitor() error {
	if e.opts.Monitor == nil {
		return nil
	}
	invariant := e.opts.Monitor(e.net)
	if invariant == "" {
		return nil
	}
	e.rec.MonitorAlarms++
	return e.react(invariant, nil)
}

// nextDeadline returns the earliest verification deadline among the steps
// pushed and not yet confirmed.
func nextDeadline(st []stepState) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, s := range st {
		if s.pushed && !s.confirmed && (!found || s.checkAt < best) {
			best, found = s.checkAt, true
		}
	}
	return best, found
}

// Abort releases a (possibly partially executed) plan's transient state by
// applying its cleanup commands immediately and letting the network
// converge — the prelude to replanning under ReactReplan. Every in-flight
// scheduled command (including retries and fault-layer duplicates) is
// cancelled first and the queue drained, so no stale configuration can
// land after the cleanup: aborting is deterministic. Abort is idempotent:
// aborting the same plan twice (facade auto-release plus a manual call, or
// a supervisor retrying its recovery path) re-runs nothing.
func (e *Executor) Abort(p *plan.Plan) {
	if p != nil && e.aborted == p {
		return
	}
	e.net.CancelPendingCommands()
	e.net.Run()
	for _, st := range p.Cleanup {
		st.Command.Apply(e.net)
	}
	e.net.Run()
	e.aborted = p
}

// stepState tracks one plan step through push, acknowledgment and
// escalation.
type stepState struct {
	pushed    bool
	confirmed bool
	repushed  bool
	token     *sim.CommandToken
	attempts  int
	checkAt   time.Duration
	// fresh: pushed in this pass of the supervision loop, no event since.
	// An effect read back now was in place before the push (another
	// destination's plan carries the same temporary-session step; a rollback
	// pushes the undo of an original that never landed) and says nothing
	// about an acknowledgment.
	fresh bool
}

// runSteps is the supervision loop, and executes one phase: every step's
// command is pushed as soon as its pre-conditions hold (commands within a
// phase apply concurrently), a pushed command is confirmed through its
// acknowledgment or configuration readback — retried, re-pushed and finally
// escalated if it stays unconfirmed — and the phase completes when every
// post-condition holds and gate, if there is one, reports the network
// settled: Options.Convergence for a plan's own phases, the empty event
// queue for a Between slot, whose steps carry no condition to wait for.
func (e *Executor) runSteps(prefix bgp.Prefix, steps []plan.Step, gate func(*sim.Network) bool) error {
	e.curPrefix = prefix
	if len(steps) == 0 {
		return e.superviseRun()
	}
	st := make([]stepState, len(steps))
	watchdog := e.net.Now() + conditionTimeout

	preOK := func(i int) bool {
		for _, c := range steps[i].Pre {
			if !c.Check(e.net, prefix) {
				return false
			}
		}
		return true
	}
	postOK := func(i int) bool {
		if !st[i].confirmed {
			return false
		}
		for _, c := range steps[i].Post {
			if !c.Check(e.net, prefix) {
				return false
			}
		}
		return true
	}

	for {
		if err := e.ctxDone(); err != nil {
			return err
		}
		progress := false
		// Push every step whose pre-conditions now hold.
		for i := range steps {
			if st[i].pushed || !preOK(i) {
				continue
			}
			tk, checkAt := e.pushTracked(steps[i].Command, 0, 0)
			st[i] = stepState{pushed: true, token: tk, attempts: 1, checkAt: checkAt, fresh: true}
			progress = true
		}
		// Confirm pushed commands; heal the ones presumed lost.
		for i := range steps {
			s := &st[i]
			if !s.pushed || s.confirmed {
				continue
			}
			fresh := s.fresh
			s.fresh = false
			if s.token.Acked() {
				s.confirmed = true
				if s.attempts > 1 {
					e.count(obs.CtrFaultsHealed, 1)
				}
				progress = true
				continue
			}
			if v := steps[i].Command.Verify; v != nil && v(e.net) {
				// The effect is present but the ack never arrived: the
				// command was (at least partially) applied and the
				// readback — not blind retrying — confirms it.
				s.confirmed = true
				if !fresh {
					e.rec.AcksLost++
					e.count(obs.CtrFaultsHealed, 1)
				}
				progress = true
				continue
			}
			if e.net.Now() < s.checkAt {
				continue
			}
			// The command is unconfirmed past its deadline: climb the
			// escalation ladder.
			switch {
			case s.attempts <= maxRetries:
				// Ladder 1: retry with capped exponential backoff.
				tk, checkAt := e.pushTracked(steps[i].Command, s.attempts, e.backoff(s.attempts))
				s.token, s.checkAt = tk, checkAt
				s.attempts++
				e.rec.Retries++
				progress = true
			case !s.repushed:
				// Ladder 2: force one immediate re-push of this command
				// and refresh any phase configuration found missing (a
				// session flap may have taken earlier state with it).
				for j := range steps {
					o := &st[j]
					if j == i || !o.confirmed {
						continue
					}
					if v := steps[j].Command.Verify; v != nil && !v(e.net) {
						tk, checkAt := e.pushTracked(steps[j].Command, o.attempts, 0)
						o.token, o.checkAt, o.confirmed = tk, checkAt, false
						o.attempts++
						e.rec.Repushes++
					}
				}
				tk, checkAt := e.pushTracked(steps[i].Command, s.attempts, 0)
				s.token, s.checkAt = tk, checkAt
				s.attempts++
				s.repushed = true
				e.rec.Repushes++
				progress = true
			default:
				// Ladder 3: the fault is persistent; degrade per the §8
				// policy instead of wedging until the phase deadline.
				e.rec.Escalations++
				return e.react("", fmt.Errorf(
					"command %q unconfirmed after %d attempts (last fault presumed persistent)",
					steps[i].Command.Description, s.attempts))
			}
		}
		// Done when all commands confirmed and all posts hold — and, when
		// the phase has a gate, once that reports the network settled. An
		// empty queue satisfies any gate (no event can change forwarding
		// anymore), which keeps arbitrary gates from deadlocking a drained
		// network.
		done := true
		for i := range steps {
			if !st[i].pushed || !postOK(i) {
				done = false
				break
			}
		}
		if done && (gate == nil || e.net.Converged() || gate(e.net)) {
			return nil
		}
		if progress {
			watchdog = e.net.Now() + conditionTimeout
		}
		// Advance the network by one event. With an empty queue, advance
		// the clock to the next verification deadline instead — dropped
		// commands generate no events of their own.
		if !e.net.Step() {
			if next, ok := nextDeadline(st); ok && next > e.net.Now() {
				e.net.RunUntil(next)
				continue
			}
			if !progress {
				// Nothing pending and no new command became applicable:
				// the plan is stuck — under supervision that is itself
				// the §8 "long-term anomaly" signal (an external event
				// invalidated a pre- or post-condition).
				return e.react("", e.stuckError(prefix, steps, st))
			}
			continue
		}
		if err := e.pollMonitor(); err != nil {
			return err
		}
		if e.net.Now() > watchdog {
			return e.react("", e.stuckError(prefix, steps, st))
		}
	}
}

// react translates a detected anomaly — the invariant a Monitor alarm named,
// or the error of an exhausted ladder or a stuck phase — into the configured
// reaction: a ReplanError under ReactReplan, otherwise the original error
// (nil fallbackErr means the monitor fired but the policy is ReactIgnore —
// keep going).
func (e *Executor) react(invariant string, fallbackErr error) error {
	if e.opts.Reaction == ReactReplan {
		return &ReplanError{Invariant: invariant, Prefix: e.curPrefix, SimTime: e.net.Now(), Cause: fallbackErr}
	}
	return fallbackErr
}

func (e *Executor) stuckError(prefix bgp.Prefix, steps []plan.Step, st []stepState) error {
	for i, s := range steps {
		if !st[i].pushed {
			return fmt.Errorf("pre-conditions never satisfied for %q", s.Command.Description)
		}
		if !st[i].confirmed {
			return fmt.Errorf("command %q never confirmed (ack and readback both missing)", s.Command.Description)
		}
		for _, c := range s.Post {
			if !c.Check(e.net, prefix) {
				return fmt.Errorf("post-condition %q never satisfied for %q", c, s.Command.Description)
			}
		}
	}
	return fmt.Errorf("stuck without unsatisfied conditions (timeout)")
}

// EstimateReconfigurationTime computes the paper's T̃ = T̃rm · (2 + R)
// approximation (§7.2) with T̃rm = 12 s.
func EstimateReconfigurationTime(rounds int) time.Duration {
	const tRM = 12 * time.Second
	return time.Duration(2+rounds) * tRM
}
