// Package chaos builds reproducible fault schedules and sweeps the
// Chameleon pipeline across scenario × fault-kind matrices, asserting that
// the §3 invariants (loop-freedom of every intermediate state, at most one
// next-hop change per node, no transient eBGP export beyond the steady
// bound) hold under every injected fault — or that the controller visibly
// degrades (alarm, commit, abort). A silent violation is the one outcome
// that must never occur.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"

	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// InjectorConfig parameterizes a seeded fault injector.
type InjectorConfig struct {
	// Seed drives every fault decision; the same seed over the same
	// (deterministic) simulation produces the identical fault schedule.
	Seed uint64
	// CommandRate is the probability that a command application attempt is
	// faulted with one of CommandKinds.
	CommandRate float64
	// CommandKinds are the fault kinds drawn for faulted commands.
	CommandKinds []sim.FaultKind
	// MessageRate is the probability that a BGP message delivery is
	// faulted with one of MessageKinds (delay/duplicate only).
	MessageRate float64
	// MessageKinds are the fault kinds drawn for faulted messages.
	MessageKinds []sim.FaultKind
	// DelayFactor multiplies latencies for delay faults (default 3).
	DelayFactor float64
	// MaxAttemptFaults caps how many application attempts of the same
	// command may be faulted, so a self-healing controller's retries
	// eventually land (0 means unlimited — the escalation path).
	MaxAttemptFaults int
}

// Decision records one non-trivial injector verdict, for reproducibility
// fingerprints and reports.
type Decision struct {
	Target  string
	Attempt int
	Kind    sim.FaultKind
}

// Injector is a seeded, deterministic sim.FaultInjector. Its decisions are
// a pure function of the seed and the consultation order, which the
// discrete-event simulation makes deterministic.
type Injector struct {
	cfg       InjectorConfig
	rng       *rand.Rand
	perCmd    map[string]int
	cmdFaults int
	msgFaults int
	consulted int
	decisions []Decision
}

// NewInjector builds an injector from cfg, applying defaults.
func NewInjector(cfg InjectorConfig) *Injector {
	if cfg.DelayFactor <= 1 {
		cfg.DelayFactor = 3
	}
	return &Injector{
		cfg:    cfg,
		rng:    rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)),
		perCmd: make(map[string]int),
	}
}

// CommandFault implements sim.FaultInjector.
func (in *Injector) CommandFault(node topology.NodeID, description string, attempt int) sim.CommandFault {
	in.consulted++
	if len(in.cfg.CommandKinds) == 0 || in.cfg.CommandRate <= 0 {
		return sim.CommandFault{}
	}
	if in.rng.Float64() >= in.cfg.CommandRate {
		return sim.CommandFault{}
	}
	if in.cfg.MaxAttemptFaults > 0 && in.perCmd[description] >= in.cfg.MaxAttemptFaults {
		return sim.CommandFault{}
	}
	kind := in.cfg.CommandKinds[in.rng.IntN(len(in.cfg.CommandKinds))]
	in.perCmd[description]++
	in.cmdFaults++
	in.decisions = append(in.decisions, Decision{Target: description, Attempt: attempt, Kind: kind})
	return sim.CommandFault{Kind: kind, DelayFactor: in.cfg.DelayFactor}
}

// MessageFault implements sim.FaultInjector.
func (in *Injector) MessageFault(from, to topology.NodeID) sim.MessageFault {
	in.consulted++
	if len(in.cfg.MessageKinds) == 0 || in.cfg.MessageRate <= 0 {
		return sim.MessageFault{}
	}
	if in.rng.Float64() >= in.cfg.MessageRate {
		return sim.MessageFault{}
	}
	kind := in.cfg.MessageKinds[in.rng.IntN(len(in.cfg.MessageKinds))]
	in.msgFaults++
	in.decisions = append(in.decisions, Decision{
		Target: fmt.Sprintf("msg n%d→n%d", int(from), int(to)),
		Kind:   kind,
	})
	return sim.MessageFault{Kind: kind, DelayFactor: in.cfg.DelayFactor}
}

// CommandFaults returns the number of faulted command attempts.
func (in *Injector) CommandFaults() int { return in.cmdFaults }

// MessageFaults returns the number of faulted message deliveries.
func (in *Injector) MessageFaults() int { return in.msgFaults }

// Fingerprint hashes the complete fault schedule (consultation count plus
// every faulted verdict): two runs with identical fingerprints injected the
// identical faults at the identical points of the simulation.
func (in *Injector) Fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "consulted=%d;", in.consulted)
	for _, d := range in.decisions {
		fmt.Fprintf(h, "%s@%d=%s;", d.Target, d.Attempt, d.Kind)
	}
	return h.Sum64()
}
