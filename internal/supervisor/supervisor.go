// Package supervisor closes the loop the paper's §8 reaction policy leaves
// open: where the runtime's ReactReplan merely returns a ReplanError, the
// supervisor wraps plan→execute into a controller that, on a replan signal
// (or an exhausted escalation ladder inside the executor), Aborts the plan,
// snapshots the live network's intermediate routing/session/configuration
// state, replans from that state under a bounded deterministic solver
// budget, and resumes — with a graceful-degradation ladder when replanning
// cannot make progress:
//
//	execute (≤ 1+MaxReplans attempts)
//	  └─ fast-commit the remaining original commands (confirmed, §8 r.3)
//	       └─ roll back to the initial configuration (confirmed)
//	            └─ forced rollback (direct application, journaled)
//
// so a supervised reconfiguration provably never terminates with the
// network pinned mid-reconfiguration: every run ends in the final or the
// initial configuration, and says which.
//
// Every recovery boundary is persisted to a crash-safe append-only JSONL
// journal (see journal.go) before the next executor invocation, so a
// supervisor killed at any point can be restarted with Resume and replay
// the journal to the same outcome — the durability primitive ROADMAP item 4
// (chameleond) needs.
//
// Determinism contract: attempts are numbered globally (execute attempts,
// then the commit and rollback rungs continue the numbering); invocation k
// uses an executor seeded DeriveSeed(Seed, k), a fresh fault injector
// InjectorFactory(k), and a monitor named "attempt-k". Combined with the
// network's run-indexed RNG streams and snapshot/restore at every boundary,
// a resumed run replays the identical schedule the uninterrupted run had.
package supervisor

import (
	"context"
	"errors"
	"fmt"
	"os"

	"chameleon/internal/analyzer"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/spec"
)

// Ladder rungs, journaled in snapshot entries.
const (
	RungExecute  = "execute"
	RungCommit   = "commit"
	RungRollback = "rollback"
)

// Outcome is the supervisor's terminal configuration guarantee.
type Outcome int

const (
	// OutcomeFinal: the network ended in the final (target) configuration.
	OutcomeFinal Outcome = iota
	// OutcomeInitial: the network was rolled back to the initial
	// configuration.
	OutcomeInitial
)

func (o Outcome) String() string {
	if o == OutcomeFinal {
		return "final"
	}
	return "initial"
}

func outcomeFrom(s string) Outcome {
	if s == "initial" {
		return OutcomeInitial
	}
	return OutcomeFinal
}

// Options configure a supervised reconfiguration.
type Options struct {
	// Seed derives every per-attempt executor stream.
	Seed uint64
	// MaxReplans bounds the replan attempts after the first execution:
	// attempt 0 plus MaxReplans replans, then the commit rung. Zero means
	// the default of 2; negative disables replanning entirely.
	MaxReplans int
	// JournalPath, when non-empty, persists the execution journal there.
	// Empty runs unjournaled (no crash safety, same decisions).
	JournalPath string
	// InjectorFactory, when set, builds the fault injector installed for
	// invocation k (execute attempts and commit/rollback rungs alike). A
	// fresh injector per invocation keeps fault schedules a pure function
	// of (seed, k), which resume depends on.
	InjectorFactory func(attempt int) sim.FaultInjector
	// ExternalEvents are scheduled for attempt 0 only: they model one-shot
	// real-world events, and any that fired before a later recovery
	// boundary are already part of the snapshotted network state.
	ExternalEvents []runtime.ScheduledEvent
	// SolverNodeBudget bounds each replan's branch-and-bound node count
	// (default scheduler.DeterministicNodeBudget): replans must terminate
	// deterministically, never hang on an infeasible intermediate state.
	SolverNodeBudget int64
	// Spec, when non-nil, replaces the default all-internal-nodes
	// reachability specification used for (re)planning.
	Spec func(s *scenario.Scenario) *spec.Spec
}

func (o Options) maxAttempts() int {
	mr := o.MaxReplans
	if mr == 0 {
		mr = 2
	}
	if mr < 0 {
		mr = 0
	}
	return 1 + mr
}

// Result reports a finished supervised reconfiguration.
type Result struct {
	// Outcome is the terminal configuration: final or initial, never
	// pinned transient state.
	Outcome Outcome
	// Verified reports that the outcome was confirmed by configuration
	// readback of every original (or undo) command.
	Verified bool
	// Attempts counts executor invocations on the execute rung.
	Attempts int
	// Replans counts replan decisions (Attempts-1 unless resumed).
	Replans int
	// Committed / RolledBack / Forced report which ladder rungs engaged.
	Committed  bool
	RolledBack bool
	Forced     bool
	// Resumed reports the result was (partly) reconstructed from a journal.
	Resumed bool
	// Timelines are the per-attempt monitor timelines, in attempt order —
	// attempt k's timeline is named "attempt-k". A resumed run's earlier
	// timelines come from the journal, byte-identically.
	Timelines []*monitor.Timeline
	// JournalBytes counts bytes this run appended to the journal.
	JournalBytes int64
}

// Supervisor drives one scenario through the closed loop.
type Supervisor struct {
	s    *scenario.Scenario
	opts Options

	journal *Journal
	span    *obs.Span

	applied []bool
	attempt int
	result  *Result
	// commitReason, when set by an attempt, overrides the default
	// budget-exhausted reason on the commit decision.
	commitReason string
}

// Run supervises the scenario's reconfiguration to termination. It is
// RunCtx under context.Background().
func Run(s *scenario.Scenario, opts Options) (*Result, error) {
	return RunCtx(context.Background(), s, opts)
}

// RunCtx starts a fresh supervised reconfiguration, truncating any existing
// journal at Options.JournalPath. The scenario's network must be converged.
func RunCtx(ctx context.Context, s *scenario.Scenario, opts Options) (*Result, error) {
	sv := &Supervisor{s: s, opts: opts, applied: make([]bool, len(s.Commands)), result: &Result{}}
	if !s.Net.Converged() {
		return nil, fmt.Errorf("supervisor: network not converged at start")
	}
	if opts.JournalPath != "" {
		j, err := NewJournal(opts.JournalPath)
		if err != nil {
			return nil, err
		}
		sv.journal = j
		defer j.Close()
	}
	if err := sv.journal.Append(Entry{
		Kind:     KindBegin,
		SimNS:    int64(s.Net.Now()),
		Scenario: s.Name,
		Seed:     opts.Seed,
		Commands: commandNames(s.Commands),
	}); err != nil {
		return nil, err
	}
	return sv.run(ctx, RungExecute)
}

// Resume restarts a supervised reconfiguration from its journal. s must be
// a freshly built, converged instance of the same scenario (same topology
// and seed — the builders are deterministic); the journal's last snapshot
// is restored onto it and supervision continues from the recorded rung. A
// journal that already holds an outcome returns the completed result
// without touching the network. An empty or absent journal starts fresh.
func Resume(ctx context.Context, s *scenario.Scenario, opts Options) (*Result, error) {
	if opts.JournalPath == "" {
		return nil, fmt.Errorf("supervisor: Resume requires a journal path")
	}
	entries, validLen, err := readJournal(opts.JournalPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return RunCtx(ctx, s, opts)
		}
		return nil, err
	}
	if len(entries) == 0 {
		return RunCtx(ctx, s, opts)
	}
	if b := entries[0]; b.Kind != KindBegin {
		return nil, fmt.Errorf("supervisor: journal does not start with a begin entry")
	} else if b.Scenario != s.Name || b.Seed != opts.Seed {
		return nil, fmt.Errorf("supervisor: journal is for scenario %q seed %d, not %q seed %d",
			b.Scenario, b.Seed, s.Name, opts.Seed)
	}

	sv := &Supervisor{s: s, opts: opts, applied: make([]bool, len(s.Commands)), result: &Result{Resumed: true}}

	// Replay: accumulate decisions, timelines, and the last snapshot.
	var snap *Entry
	for i := range entries {
		e := &entries[i]
		switch e.Kind {
		case KindSnapshot:
			snap = e
		case KindTimeline:
			if e.Timeline != nil {
				sv.result.Timelines = append(sv.result.Timelines, e.Timeline)
			}
		case KindDecision:
			switch e.Decision {
			case "replan":
				sv.result.Replans++
			case "commit":
				sv.result.Committed = true
			case "rollback":
				sv.result.RolledBack = true
			}
		case KindExec:
			if e.Rung == RungExecute {
				sv.result.Attempts++
			}
		case KindOutcome:
			// The run already terminated; report it without re-executing.
			sv.result.Outcome = outcomeFrom(e.Outcome)
			sv.result.Forced = e.Forced
			sv.result.Verified = true
			return sv.result, nil
		}
	}
	if snap == nil || snap.State == nil {
		return nil, fmt.Errorf("supervisor: journal has no usable snapshot")
	}
	if err := s.Net.RestoreState(snap.State); err != nil {
		return nil, fmt.Errorf("supervisor: restoring journal snapshot: %w", err)
	}
	copy(sv.applied, snap.Applied)
	sv.attempt = snap.Attempt
	// The interrupted invocation (if any) re-runs: drop its exec count so
	// the resumed total matches the uninterrupted run's.
	if snap.Rung == RungExecute && sv.result.Attempts > sv.attempt {
		sv.result.Attempts = sv.attempt
	}

	j, err := openAppend(opts.JournalPath, entries[len(entries)-1].Seq, validLen)
	if err != nil {
		return nil, err
	}
	sv.journal = j
	defer j.Close()
	return sv.run(ctx, snap.Rung)
}

// run drives the degradation ladder from the given rung to termination.
func (sv *Supervisor) run(ctx context.Context, rung string) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "supervise",
		obs.String("scenario", sv.s.Name),
		obs.Int("seed", int64(sv.opts.Seed)))
	sv.span = span
	startBytes := sv.journal.Bytes()
	defer func() {
		sv.result.JournalBytes = sv.journal.Bytes()
		span.Add(obs.CtrSupJournalBytes, sv.journal.Bytes()-startBytes)
		span.End()
	}()

	if rung == RungExecute {
		done, err := sv.executeRung(ctx)
		if err != nil {
			return nil, err
		}
		if done {
			return sv.result, nil
		}
		rung = RungCommit
	}
	if rung == RungCommit {
		done, err := sv.commitRung(ctx)
		if err != nil {
			return nil, err
		}
		if done {
			return sv.result, nil
		}
		rung = RungRollback
	}
	return sv.result, sv.rollbackRung(ctx)
}

// executeRung runs bounded plan→execute→replan attempts. It returns done =
// true when an attempt completed (outcome final); false hands over to the
// commit rung.
func (sv *Supervisor) executeRung(ctx context.Context) (bool, error) {
	for sv.attempt < sv.opts.maxAttempts() {
		if err := sv.snapshot(RungExecute); err != nil {
			return false, err
		}
		p, planErr := sv.plan(ctx)
		if planErr != nil {
			// Replanning from this intermediate state is infeasible (or the
			// solver budget ran out): descend to the commit rung.
			if cerr := ctx.Err(); cerr != nil {
				return false, cerr
			}
			sv.decide("commit", fmt.Sprintf("replan infeasible: %v", planErr), "")
			return false, nil
		}
		ok, err := sv.executeAttempt(ctx, p)
		if err != nil {
			return false, err
		}
		if ok {
			return true, sv.finish(OutcomeFinal, false)
		}
	}
	reason := sv.commitReason
	if reason == "" {
		reason = fmt.Sprintf("replan budget exhausted (%d attempts)", sv.attempt)
	}
	sv.decide("commit", reason, "")
	return false, nil
}

// plan compiles a fresh plan from the network's current (possibly
// intermediate) state towards the final configuration, covering exactly the
// not-yet-applied original commands, under a deterministic solver budget.
func (sv *Supervisor) plan(ctx context.Context) (*plan.Plan, error) {
	rem := sv.s.Remaining(sv.s.Net, sv.applied)
	if len(rem.Commands) == 0 {
		// Everything already landed; a trivial plan lets the attempt verify
		// and converge.
		return &plan.Plan{Prefix: rem.Prefix}, nil
	}
	a, err := analyzer.AnalyzeCtx(ctx, rem.Net, rem.FinalNetwork(), rem.Prefix)
	if err != nil {
		return nil, err
	}
	schedOpts := scheduler.DefaultOptions()
	schedOpts.SolverNodeBudget = sv.opts.SolverNodeBudget
	var sp *spec.Spec
	if sv.opts.Spec != nil {
		sp = sv.opts.Spec(rem)
	} else {
		sp = spec.Reachability(rem.Graph)
	}
	sched, err := scheduler.ScheduleCtx(ctx, a, sp, schedOpts)
	if err != nil {
		return nil, err
	}
	p, err := plan.Compile(a, sched, rem.Commands)
	if err != nil {
		return nil, err
	}
	if err := sv.journal.Append(Entry{
		Kind: KindPlan, SimNS: int64(sv.s.Net.Now()),
		Attempt: sv.attempt, Rounds: p.R, Steps: p.NumSteps(),
	}); err != nil {
		return nil, err
	}
	return p, nil
}

// executeAttempt runs one plan under ReactReplan with a fresh executor,
// injector and monitor. It returns ok = true on success; on a replan signal
// it aborts, reads back which originals landed, journals the decision and
// advances the attempt counter.
func (sv *Supervisor) executeAttempt(ctx context.Context, p *plan.Plan) (bool, error) {
	net := sv.s.Net
	if fi := sv.injector(); fi != nil {
		net.SetFaultInjector(fi)
		defer net.SetFaultInjector(nil)
	}
	mon := monitor.New(monitor.Config{
		Name:       fmt.Sprintf("attempt-%d", sv.attempt),
		Invariants: sv.invariants(),
	})
	opts := runtime.Options{
		Seed:          sv.execSeed(),
		Reaction:      runtime.ReactReplan,
		Monitor:       sv.alarm(),
		PhaseObserver: mon.SetPhase,
	}
	if sv.attempt == 0 {
		opts.ExternalEvents = sv.opts.ExternalEvents
	}
	ex := runtime.NewExecutor(net, opts)
	unbind := mon.Bind(net)
	_, execErr := ex.ExecuteCtx(ctx, p)
	unbind()
	if cerr := ctx.Err(); cerr != nil {
		return false, cerr
	}
	if err := sv.journal.Append(Entry{
		Kind: KindExec, SimNS: int64(net.Now()), Rung: RungExecute,
		Attempt: sv.attempt,
		Err:     errString(execErr),
	}); err != nil {
		return false, err
	}
	sv.result.Attempts++

	if execErr == nil {
		sv.readbackApplied()
		sv.appendTimeline(mon.Finish(net.Now()))
		return true, nil
	}

	var re *runtime.ReplanError
	invariant := ""
	if errors.As(execErr, &re) {
		invariant = re.Invariant
	} else if !errors.Is(execErr, runtime.ErrReplanNeeded) {
		// Not a replan signal (e.g. the network was perturbed outside the
		// executor's model): still recover, via the commit rung, rather
		// than surface a pinned network.
		ex.Abort(p)
		if err := sv.journal.Append(Entry{Kind: KindAbort, SimNS: int64(net.Now()), Attempt: sv.attempt}); err != nil {
			return false, err
		}
		sv.readbackApplied()
		sv.appendTimeline(mon.Finish(net.Now()))
		sv.attempt = sv.opts.maxAttempts()
		sv.commitReason = fmt.Sprintf("non-replan execution error: %v", execErr)
		return false, nil
	}

	// §8 reaction 2: release the transient state, note which originals are
	// already in the network, and replan from the intermediate state.
	ex.Abort(p)
	if err := sv.journal.Append(Entry{Kind: KindAbort, SimNS: int64(net.Now()), Attempt: sv.attempt}); err != nil {
		return false, err
	}
	sv.readbackApplied()
	sv.appendTimeline(mon.Finish(net.Now()))
	sv.attempt++
	if sv.attempt < sv.opts.maxAttempts() {
		sv.decide("replan", errString(execErr), invariant)
		sv.span.Add(obs.CtrSupReplans, 1)
		sv.result.Replans++
	}
	return false, nil
}

// commitRung is §8 reaction 3 as a recovery rung: push every remaining
// original command at once through the self-healing executor (confirmed by
// ack or readback) and let the network converge on the final configuration.
func (sv *Supervisor) commitRung(ctx context.Context) (bool, error) {
	sv.result.Committed = true
	sv.span.Add(obs.CtrSupCommits, 1)
	if err := sv.snapshot(RungCommit); err != nil {
		return false, err
	}
	remaining := sv.remainingCommands()
	err := sv.applyConfirmed(ctx, RungCommit, remaining)
	if cerr := ctx.Err(); cerr != nil {
		return false, cerr
	}
	if err == nil {
		sv.readbackApplied()
		if sv.finalVerified() {
			return true, sv.finish(OutcomeFinal, false)
		}
		err = fmt.Errorf("commit applied but final configuration not verified")
	}
	sv.readbackApplied()
	sv.decide("rollback", fmt.Sprintf("commit blocked: %v", err), "")
	return false, nil
}

// rollbackRung is the last confirmed rung: apply every original command's
// undo, in reverse order, through the self-healing executor. If even that
// is blocked, the forced variant applies the undos directly (modeling
// out-of-band console recovery) — the supervisor never exits pinned.
func (sv *Supervisor) rollbackRung(ctx context.Context) error {
	sv.result.RolledBack = true
	sv.span.Add(obs.CtrSupRollbacks, 1)
	if err := sv.snapshot(RungRollback); err != nil {
		return err
	}
	undos := sv.undoCommands()
	err := sv.applyConfirmed(ctx, RungRollback, undos)
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if err == nil && sv.initialVerified() {
		return sv.finish(OutcomeInitial, false)
	}
	if err == nil {
		err = fmt.Errorf("rollback applied but initial configuration not verified")
	}
	// Forced rollback: bypass the (faulty) command channel entirely.
	sv.decide("forced-rollback", fmt.Sprintf("rollback blocked: %v", err), "")
	sv.s.Net.CancelPendingCommands()
	for _, cmd := range undos {
		cmd.Apply(sv.s.Net)
	}
	sv.s.Net.Run()
	return sv.finish(OutcomeInitial, true)
}

// applyConfirmed pushes cmds as one Between slot of a trivial plan through
// a fresh executor: a slot is a phase of the executor's one supervision
// loop, which supplies the full ack/readback/retry confirmation ladder for
// free. ReactIgnore lets a persistent failure surface as an error instead
// of recursing into the reaction policies.
func (sv *Supervisor) applyConfirmed(ctx context.Context, rung string, cmds []sim.Command) error {
	net := sv.s.Net
	if len(cmds) == 0 {
		net.Run()
		return nil
	}
	if fi := sv.injector(); fi != nil {
		net.SetFaultInjector(fi)
		defer net.SetFaultInjector(nil)
	}
	p := &plan.Plan{Prefix: sv.s.Prefix, Between: [][]sim.Command{cmds}}
	ex := runtime.NewExecutor(net, runtime.Options{Seed: sv.execSeed()})
	_, execErr := ex.ExecuteCtx(ctx, p)
	if jerr := sv.journal.Append(Entry{
		Kind: KindExec, SimNS: int64(net.Now()), Rung: rung,
		Attempt: sv.attempt, Err: errString(execErr),
	}); jerr != nil {
		return jerr
	}
	sv.attempt++
	if execErr != nil {
		// Release whatever the failed push left in flight.
		ex.Abort(p)
	}
	return execErr
}

// --- decisions, snapshots, verification ----------------------------------

func (sv *Supervisor) snapshot(rung string) error {
	st, err := sv.s.Net.CaptureState()
	if err != nil {
		return fmt.Errorf("supervisor: snapshot at %s/%d: %w", rung, sv.attempt, err)
	}
	return sv.journal.Append(Entry{
		Kind: KindSnapshot, SimNS: int64(sv.s.Net.Now()),
		Rung: rung, Attempt: sv.attempt,
		Applied: append([]bool(nil), sv.applied...),
		State:   st,
	})
}

func (sv *Supervisor) decide(decision, reason, invariant string) {
	_ = sv.journal.Append(Entry{
		Kind: KindDecision, SimNS: int64(sv.s.Net.Now()),
		Attempt: sv.attempt, Decision: decision, Reason: reason, Invariant: invariant,
	})
}

func (sv *Supervisor) finish(o Outcome, forced bool) error {
	sv.result.Outcome = o
	sv.result.Forced = forced
	switch o {
	case OutcomeFinal:
		sv.result.Verified = sv.finalVerified()
	case OutcomeInitial:
		sv.result.Verified = sv.initialVerified()
	}
	return sv.journal.Append(Entry{
		Kind: KindOutcome, SimNS: int64(sv.s.Net.Now()),
		Attempt: sv.attempt, Outcome: o.String(), Forced: forced,
	})
}

func (sv *Supervisor) appendTimeline(tl *monitor.Timeline) {
	sv.result.Timelines = append(sv.result.Timelines, tl)
	_ = sv.journal.Append(Entry{
		Kind: KindTimeline, SimNS: int64(sv.s.Net.Now()),
		Attempt: sv.attempt, Timeline: tl,
	})
}

// readbackApplied marks originals whose configuration effect is verifiably
// present — the supervisor's "show running-config" sweep after an abort.
func (sv *Supervisor) readbackApplied() {
	for i, cmd := range sv.s.Commands {
		if sv.applied[i] {
			continue
		}
		if cmd.Verify != nil && cmd.Verify(sv.s.Net) {
			sv.applied[i] = true
		}
	}
}

func (sv *Supervisor) remainingCommands() []sim.Command {
	var out []sim.Command
	for i, cmd := range sv.s.Commands {
		if !sv.applied[i] {
			out = append(out, cmd)
		}
	}
	return out
}

// undoCommands returns every original's undo in reverse order. All undos
// run, not only the confirmed-applied ones: undo commands are idempotent,
// and a command that applied without its readback succeeding would
// otherwise survive the rollback.
func (sv *Supervisor) undoCommands() []sim.Command {
	var out []sim.Command
	for i := len(sv.s.Undo) - 1; i >= 0; i-- {
		out = append(out, sv.s.Undo[i])
	}
	return out
}

// finalVerified reads back whether every original command's effect is
// present: the network is in the final configuration.
func (sv *Supervisor) finalVerified() bool {
	for _, cmd := range sv.s.Commands {
		if cmd.Verify != nil && !cmd.Verify(sv.s.Net) {
			return false
		}
	}
	return true
}

// initialVerified reads back whether every undo's effect is present: the
// network is in the initial configuration.
func (sv *Supervisor) initialVerified() bool {
	if len(sv.s.Undo) == 0 {
		return false
	}
	for _, cmd := range sv.s.Undo {
		if cmd.Verify != nil && !cmd.Verify(sv.s.Net) {
			return false
		}
	}
	return true
}

// --- per-attempt machinery ------------------------------------------------

// execSeed is the executor seed of the current invocation.
func (sv *Supervisor) execSeed() uint64 {
	return sim.DeriveSeed(sv.opts.Seed, uint64(sv.attempt))
}

func (sv *Supervisor) injector() sim.FaultInjector {
	if sv.opts.InjectorFactory == nil {
		return nil
	}
	return sv.opts.InjectorFactory(sv.attempt)
}

func (sv *Supervisor) invariants() []monitor.Invariant {
	return []monitor.Invariant{monitor.ReachAll(sv.s.Graph), monitor.LoopFree()}
}

// alarm is the executor's harmful-event monitor: every monitored invariant
// (reachability and loop-freedom) must hold, and the first that does not is
// named for ReplanError attribution. Checking the same invariants the
// timeline records means any violation the monitor would write down also
// raises the alarm — a supervised run has no silent violations by
// construction.
func (sv *Supervisor) alarm() func(*sim.Network) string {
	invs := sv.invariants()
	prefix := sv.s.Prefix
	return func(net *sim.Network) string {
		st := net.ForwardingState(prefix)
		for _, inv := range invs {
			if ok, _ := inv.Check(st); !ok {
				return inv.Name
			}
		}
		return ""
	}
}

func commandNames(cmds []sim.Command) []string {
	out := make([]string, len(cmds))
	for i, c := range cmds {
		out[i] = c.Description
	}
	return out
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
