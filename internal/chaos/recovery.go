package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/pool"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/supervisor"
	"chameleon/internal/topology"
)

// Recovery profiles stress the closed-loop supervisor where the plain
// chaos matrix stresses the executor: instead of asking "does the
// self-healing executor absorb transient faults", they ask "when it
// cannot, does the supervisor still land the network in the final or the
// initial configuration — never pinned in between, never with a silent
// invariant violation".
const (
	// ProfilePersistentFault drops every command on the first two executor
	// invocations: the escalation ladder exhausts, the supervisor aborts,
	// snapshots and replans, and the final replan attempt lands the
	// reconfiguration.
	ProfilePersistentFault = "persistent-fault"
	// ProfilePersistentHard drops every command on every invocation of
	// every rung: no forward progress is possible and the supervisor must
	// descend the whole degradation ladder to a confirmed (or forced)
	// rollback.
	ProfilePersistentHard = "persistent-fault-hard"
	// ProfileMidEvent schedules harmful external events mid-execution —
	// the best route withdrawn under the network's feet and an iBGP
	// session flap — and expects the supervisor to either finish clean or
	// visibly replan from the perturbed intermediate state.
	ProfileMidEvent = "mid-event"
)

// RecoveryProfiles lists every profile in sweep order.
func RecoveryProfiles() []string {
	return []string{ProfilePersistentFault, ProfilePersistentHard, ProfileMidEvent}
}

// RecoveryCase is one supervised chaos experiment.
type RecoveryCase struct {
	Topology string
	Profile  string
	Seed     uint64
}

// RecoveryResult reports one supervised run. Like CaseResult, every field
// is a deterministic function of the case.
type RecoveryResult struct {
	Topology string
	Profile  string
	Seed     uint64

	// Outcome is the supervisor's terminal configuration ("final" or
	// "initial") — by contract never anything else.
	Outcome  string
	Verified bool

	Attempts   int
	Replans    int
	Committed  bool
	RolledBack bool
	Forced     bool

	// ViolationTime is the union violation time across every monitored
	// attempt — transients during flagged recovery are visible, counted,
	// and acceptable.
	ViolationTime time.Duration
	// SilentViolations are invariant violations in an attempt that
	// completed without any recovery reaction: the one unacceptable
	// result, empty on every healthy run.
	SilentViolations []string

	// Recovered is the acceptance predicate: a verified final-or-initial
	// configuration with zero silent violations.
	Recovered bool

	JournalBytes int64
	Fingerprint  uint64
}

// persistentInjector drops every command whose description matches; unlike
// the probabilistic chaos Injector it never relents, modeling a dead
// management channel rather than a lossy one.
type persistentInjector struct {
	match func(topology.NodeID, string) bool
}

func (p persistentInjector) CommandFault(node topology.NodeID, desc string, _ int) sim.CommandFault {
	if p.match == nil || p.match(node, desc) {
		return sim.CommandFault{Kind: sim.FaultDrop}
	}
	return sim.CommandFault{Kind: sim.FaultNone}
}

// PersistentDropFactory builds a supervisor InjectorFactory: invocations
// before until (or all of them, when until < 0) see every matching command
// dropped; later invocations run fault-free. A nil match drops everything.
func PersistentDropFactory(until int, match func(topology.NodeID, string) bool) func(int) sim.FaultInjector {
	return func(attempt int) sim.FaultInjector {
		if until >= 0 && attempt >= until {
			return nil
		}
		return persistentInjector{match: match}
	}
}

// RunRecoveryCaseCtx executes one supervised chaos case: it builds the
// scenario, wires the profile's faults and events into a supervisor, runs it
// to termination and classifies the result. journalPath, when non-empty,
// receives the case's execution journal (the artifact a CI smoke step
// uploads).
func RunRecoveryCaseCtx(ctx context.Context, c RecoveryCase, journalPath string) (*RecoveryResult, error) {
	ctx, span := obs.StartSpan(ctx, "recovery-case",
		obs.String("topology", c.Topology),
		obs.String("profile", c.Profile),
		obs.Int("seed", int64(c.Seed)))
	defer span.End()
	span.Add(obs.CtrChaosCases, 1)

	s, err := buildScenario(c.Topology, c.Seed)
	if err != nil {
		return nil, err
	}
	opts := supervisor.Options{
		Seed:        c.Seed,
		JournalPath: journalPath,
	}
	switch c.Profile {
	case ProfilePersistentFault:
		opts.InjectorFactory = PersistentDropFactory(2, nil)
	case ProfilePersistentHard:
		opts.InjectorFactory = PersistentDropFactory(-1, nil)
	case ProfileMidEvent:
		opts.ExternalEvents = midEvents(s)
	default:
		return nil, fmt.Errorf("chaos: unknown recovery profile %q", c.Profile)
	}

	res, err := supervisor.RunCtx(ctx, s, opts)
	if err != nil {
		return nil, err
	}
	return classifyRecovery(c, res), nil
}

// midEvents schedules the profile's harmful external events: the initially
// best route withdrawn mid-execution, then an iBGP session flap. Both are
// §8's "events harmful to the transient state" — exactly what ReactReplan
// exists for.
func midEvents(s *scenario.Scenario) []runtime.ScheduledEvent {
	evs := []runtime.ScheduledEvent{{
		After: 30 * time.Second,
		Name:  "withdraw best route",
		Apply: func(n *sim.Network) { n.WithdrawExternalRoute(s.Ext[0], s.Prefix) },
	}}
	if len(s.RRs) > 0 {
		rr := s.RRs[0]
		var peer topology.NodeID = -1
		for _, nb := range s.Net.Sessions(rr) {
			if !s.Graph.Node(nb).External {
				peer = nb
				break
			}
		}
		if peer >= 0 {
			evs = append(evs, runtime.ScheduledEvent{
				After: 55 * time.Second,
				Name:  fmt.Sprintf("flap n%d–n%d", int(rr), int(peer)),
				Apply: func(n *sim.Network) { n.FlapSession(rr, peer, 20*time.Second) },
			})
		}
	}
	return evs
}

// classifyRecovery folds a supervisor result into the recovery verdict.
func classifyRecovery(c RecoveryCase, res *supervisor.Result) *RecoveryResult {
	out := &RecoveryResult{
		Topology:     c.Topology,
		Profile:      c.Profile,
		Seed:         c.Seed,
		Outcome:      res.Outcome.String(),
		Verified:     res.Verified,
		Attempts:     res.Attempts,
		Replans:      res.Replans,
		Committed:    res.Committed,
		RolledBack:   res.RolledBack,
		Forced:       res.Forced,
		JournalBytes: res.JournalBytes,
	}
	for _, tl := range res.Timelines {
		out.ViolationTime += tl.TotalViolation()
	}
	// A violation is silent only in an attempt the supervisor walked away
	// from satisfied: the final timeline of a run that completed on the
	// execute rung with no further reaction. Violations in aborted attempts
	// were answered by a replan/commit/rollback decision — flagged, not
	// silent. (The supervisor's alarm checks the same invariants the
	// monitor records, so this list is empty by construction; the chaos
	// harness verifies the construction.)
	if res.Outcome == supervisor.OutcomeFinal && !res.Committed && len(res.Timelines) > 0 {
		last := res.Timelines[len(res.Timelines)-1]
		out.SilentViolations = timelineViolations(last)
	}
	out.Recovered = res.Verified && len(out.SilentViolations) == 0
	h := fnv.New64a()
	fmt.Fprintf(h, "%s;%s;%d;%s;%v;%d;%d;%v;%v;%v;%d;%v",
		c.Topology, c.Profile, c.Seed, out.Outcome, out.Verified,
		out.Attempts, out.Replans, out.Committed, out.RolledBack, out.Forced,
		out.ViolationTime, out.SilentViolations)
	out.Fingerprint = h.Sum64()
	return out
}

// RecoverySweepConfig spans topologies × profiles × seeds.
type RecoverySweepConfig struct {
	Topologies []string
	Profiles   []string
	Seeds      []uint64
	// JournalDir, when non-empty, receives one journal artifact per case
	// (recovery-<topology>-<profile>-<seed>.jsonl).
	JournalDir string
	Workers    int
}

// DefaultRecoverySweep covers two topologies × every profile × one seed.
func DefaultRecoverySweep() RecoverySweepConfig {
	return RecoverySweepConfig{
		Topologies: []string{"RunningExample", "Abilene"},
		Profiles:   RecoveryProfiles(),
		Seeds:      []uint64{1},
	}
}

// RecoverySweep runs the matrix Workers-wide and returns results in matrix
// order; a recorder carried by ctx observes every case, adopted as
// "recovery <topology>/<profile>/<seed>" in matrix order (see pool.Map).
// The error aggregates nothing: a case that fails to run at all is an
// infrastructure failure, distinct from a case that runs and does not
// recover (res.Recovered == false).
func RecoverySweep(ctx context.Context, cfg RecoverySweepConfig, progress func(RecoveryResult)) ([]RecoveryResult, error) {
	var cases []RecoveryCase
	for _, topo := range cfg.Topologies {
		for _, p := range cfg.Profiles {
			for _, seed := range cfg.Seeds {
				cases = append(cases, RecoveryCase{Topology: topo, Profile: p, Seed: seed})
			}
		}
	}
	report := pool.Serialize(progress)
	return pool.Map(ctx, cfg.Workers, len(cases),
		func(i int) string {
			c := cases[i]
			return fmt.Sprintf("recovery %s/%s/%d", c.Topology, c.Profile, c.Seed)
		},
		func(wctx context.Context, i int) (RecoveryResult, error) {
			c := cases[i]
			jpath := ""
			if cfg.JournalDir != "" {
				jpath = filepath.Join(cfg.JournalDir,
					fmt.Sprintf("recovery-%s-%s-%d.jsonl", c.Topology, c.Profile, c.Seed))
			}
			r, err := RunRecoveryCaseCtx(wctx, c, jpath)
			if err != nil {
				return RecoveryResult{}, fmt.Errorf("chaos: recovery %s/%s/seed=%d: %w",
					c.Topology, c.Profile, c.Seed, err)
			}
			report(*r)
			return *r, nil
		})
}
