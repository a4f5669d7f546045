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
// fired (the invariant Options.Monitor named, if one did), where (the running
// prefix) and when (simulated time), so supervisor decisions and chaos
// classifications are attributable to a concrete detection instead of a bare
// sentinel. It wraps ErrReplanNeeded — errors.Is(err, ErrReplanNeeded)
// matches — plus the underlying escalation error, when one exists (Cause is
// nil for pure monitor alarms).
type ReplanError struct {
	// Invariant is the name of the firing invariant, "" when unknown.
	Invariant string
	// Prefix is the prefix of the part whose steps were running.
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

	// steps is runSteps' per-step state, kept from phase to phase and
	// cleared at the start of each: one phase runs at a time.
	steps []stepState
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

// startPhase labels the network with one phase's name, recorder or not, so
// causes registered and violations a bound monitor opens during the phase
// carry it; it then opens a trace span for the phase and points the sim
// layer's counter attribution at it. endPhase closes the span and reverts
// attribution and label.
func (e *Executor) startPhase(name string) *obs.Span {
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

// ExecuteCtx runs a multi-destination reconfiguration (§5) to completion:
// every destination's plan, aligned on the shared original commands; a
// single plan goes in as plan.Single(p). The network must be converged (BGP
// quiescent, see sim.Network.Converged); on return it is converged in the
// final configuration. A timer fires in the phase whose span it falls in,
// and one scheduled past the end — an external event included — stays
// queued. Forwarding traces accumulate in the network's trace recorder for
// later verification.
// Cancellation is polled in every supervision loop (per simulated event), so
// a cancelled execution returns promptly mid-round with the context's error,
// and the context's recorder (obs.WithRecorder) receives the execution
// trace: an "execute" span under the context's span, with one child per
// phase, stamped with the simulated clock, plus the command/retry/escalation
// counters.
//
// The phases are mp.Phases(), run in order; each ends once its steps are
// confirmed and BGP has settled, and Result.Phases lists all but the
// synchronization points.
func (e *Executor) ExecuteCtx(ctx context.Context, mp *plan.MultiPlan) (*Result, error) {
	if len(mp.Plans) == 0 {
		return nil, fmt.Errorf("runtime: multi-plan holds no plan")
	}
	if !e.net.Converged() {
		return nil, fmt.Errorf("runtime: network not converged at start")
	}
	e.ctx = ctx
	e.obsRec = obs.RecorderFrom(ctx)
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

	for _, ph := range mp.Phases() {
		start := e.net.Now()
		sp := e.startPhase(ph.Name)
		var err error
		for _, part := range ph.Parts {
			if err = e.runSteps(part.Prefix, part.Steps); err != nil {
				break
			}
			res.CommandsApplied += len(part.Steps)
		}
		e.endPhase(sp)
		switch {
		case err != nil && ph.Sync:
			// Unwrapped: supervisor journals and chaos fingerprints carry
			// a failed synchronization point's error text as it is.
			return nil, err
		case err != nil:
			return nil, fmt.Errorf("runtime: %s: %w", ph.Name, err)
		case !ph.Sync:
			res.Phases = append(res.Phases, PhaseSpan{Name: ph.Name, Start: start, End: e.net.Now()})
		}
	}
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

// pollMonitor is §8 supervision: it asks the Monitor about the state the
// last event left and hands a violated invariant to the reaction policy at
// once, while prefix's steps run. Nil means healthy, or an alarm the policy
// ignores.
func (e *Executor) pollMonitor(prefix bgp.Prefix) error {
	if e.opts.Monitor == nil {
		return nil
	}
	invariant := e.opts.Monitor(e.net)
	if invariant == "" {
		return nil
	}
	e.rec.MonitorAlarms++
	return e.react(prefix, invariant, nil)
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

// Abort releases the transient state of (possibly partially executed)
// plans, such as every plan of a multi-plan, one after another: it applies
// each plan's cleanup commands immediately and lets the network converge,
// the prelude to replanning under ReactReplan. Every in-flight scheduled command
// (including retries and fault-layer duplicates) is cancelled first and the
// queue drained, so no stale configuration can land after the cleanup:
// aborting is deterministic. Abort is idempotent: aborting the same plan
// twice in a row (facade auto-release plus a manual call, or a supervisor
// retrying its recovery path) re-runs nothing.
func (e *Executor) Abort(plans ...*plan.Plan) {
	for _, p := range plans {
		if p == e.aborted {
			continue
		}
		e.net.CancelPendingCommands()
		e.net.Run()
		for _, st := range p.Cleanup {
			st.Command.Apply(e.net)
		}
		e.net.Run()
		e.aborted = p
	}
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
// post-condition holds and BGP has settled (sim.Network.Converged). A phase
// without steps, such as an empty Between slot, is the same loop: it ends
// once BGP settles, under the Monitor, the watchdog and the context.
func (e *Executor) runSteps(prefix bgp.Prefix, steps []plan.Step) error {
	if cap(e.steps) < len(steps) {
		e.steps = make([]stepState, len(steps))
	}
	st := e.steps[:len(steps)]
	clear(st)
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
				return e.react(prefix, "", fmt.Errorf(
					"command %q unconfirmed after %d attempts (last fault presumed persistent)",
					steps[i].Command.Description, s.attempts))
			}
		}
		// Done when all commands confirmed, all posts hold and BGP has
		// settled. A timer still queued belongs to a later phase.
		done := e.net.Converged()
		for i := 0; done && i < len(steps); i++ {
			done = st[i].pushed && postOK(i)
		}
		if done {
			return nil
		}
		if progress {
			watchdog = e.net.Now() + conditionTimeout
		}
		// Advance the network by one event. While BGP is quiescent only
		// timers are queued: if none is due by the next verification
		// deadline, advance the clock to the deadline instead of stepping
		// a later timer — dropped commands generate no events of their own.
		if e.net.Converged() {
			next, ok := nextDeadline(st)
			if at, queued := e.net.NextEventAt(); ok && next > e.net.Now() && (!queued || at > next) {
				e.net.RunUntil(next)
				continue
			}
		}
		if !e.net.Step() {
			if !progress {
				// Nothing pending and no new command became applicable:
				// the plan is stuck — under supervision that is itself
				// the §8 "long-term anomaly" signal (an external event
				// invalidated a pre- or post-condition).
				return e.react(prefix, "", e.stuckError(prefix, steps, st))
			}
			continue
		}
		if err := e.pollMonitor(prefix); err != nil {
			return err
		}
		if e.net.Now() > watchdog {
			return e.react(prefix, "", e.stuckError(prefix, steps, st))
		}
	}
}

// react translates a detected anomaly — the invariant a Monitor alarm named,
// or the error of an exhausted ladder or a stuck phase — while prefix's
// steps run into the configured reaction: a ReplanError under ReactReplan,
// otherwise the original error (nil fallbackErr means the monitor fired but
// the policy is ReactIgnore — keep going).
func (e *Executor) react(prefix bgp.Prefix, invariant string, fallbackErr error) error {
	if e.opts.Reaction == ReactReplan {
		return &ReplanError{Invariant: invariant, Prefix: prefix, SimTime: e.net.Now(), Cause: fallbackErr}
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
