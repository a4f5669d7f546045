package sim

import (
	"fmt"
	"time"

	"chameleon/internal/topology"
)

// This file implements the simulator's causal provenance layer. Every
// injected configuration command and scheduled external event registers a
// Cause; the event loop carries the active cause through BGP message
// propagation (incrementing a hop counter per message), the decision
// process stamps it on the dirty set, and forwarding-state snapshots hand
// it to observers as a Provenance record. The whole chain is a pure
// function of the event sequence — cause IDs are registration ordinals and
// activation times are simulated time, never wall clock — so provenance is
// byte-identical across re-runs, worker counts and parallelism settings.

// CauseKind classifies the root of a causal chain.
type CauseKind int

const (
	// CauseNone marks state with no registered root: initial bring-up
	// convergence and direct test/API mutations outside any command.
	CauseNone CauseKind = iota
	// CauseCommand roots the chain at a configuration command pushed
	// through the fault layer (ScheduleCommand) or applied by a baseline
	// runner (snowcap).
	CauseCommand
	// CauseEvent roots the chain at a scheduled external event — a link
	// failure, a session flap, a route injection from a chaos schedule.
	CauseEvent
)

func (k CauseKind) String() string {
	switch k {
	case CauseNone:
		return "init"
	case CauseCommand:
		return "command"
	case CauseEvent:
		return "event"
	}
	return fmt.Sprintf("CauseKind(%d)", int(k))
}

// CauseID names a registered cause; 0 means "no cause".
type CauseID uint32

// Cause is one registered root of a causal chain.
type Cause struct {
	ID    CauseID
	Kind  CauseKind
	Label string          // command description or event name
	Node  topology.NodeID // target router (topology.None for network-wide events)
	Phase string          // execution phase active at registration
	Seq   uint64          // registration ordinal, deterministic tie-break
	// At is the simulated time the cause first fired (its root event
	// executed); -1 until then. Blame latency is onset − At.
	At time.Duration
}

// causeMark is the dirty-set annotation: which cause last changed a
// prefix's routing and at what propagation depth.
type causeMark struct {
	cause CauseID
	hops  int
}

// Provenance is the causal annotation attached to one forwarding-state
// snapshot: the resolved root cause (zero Cause when none) and the number
// of BGP message hops between the root event and this state change.
type Provenance struct {
	Cause Cause
	Hops  int
}

// Rooted reports whether the snapshot descends from a registered cause.
func (p Provenance) Rooted() bool { return p.Cause.ID != 0 }

// causeChunk is how many records one block of the cause log holds: 2 KiB,
// which a replay of Abilene's plan (46 causes) does not fill.
const causeChunk = 64

// causeRec is the cause log's record of one Cause, 32 bytes where a Cause
// is 72: the ID and Seq follow from the record's position, the node fits
// 32 bits, and the phase is an index into the network's phase table.
type causeRec struct {
	label string
	at    time.Duration
	node  int32
	// meta is 1 + the phase's index in Network.phases (0: no phase)
	// shifted left by 8, over the CauseKind in the low byte.
	meta uint32
}

// maxPhases bounds the phase table: its index has the 24 bits above meta's
// kind byte.
const maxPhases = 1<<24 - 1

// NewCause registers a cause and returns its ID. The cause inherits the
// current phase label; its activation time is stamped when its root event
// first executes.
func (n *Network) NewCause(kind CauseKind, label string, node topology.NodeID) CauseID {
	i := n.ncauses
	if i%causeChunk == 0 {
		n.causes = append(n.causes, new([causeChunk]causeRec))
	}
	n.causes[i/causeChunk][i%causeChunk] = causeRec{
		label: label,
		at:    -1,
		node:  int32(node),
		meta:  n.phaseRef()<<8 | uint32(kind),
	}
	n.ncauses++
	return CauseID(n.ncauses)
}

// phaseRef returns 1 + the index of the current phase label in the phase
// table, or 0 when no phase is set. A label enters the table the first time
// a cause registers under it since SetPhaseLabel named it, so the causes of
// one phase share one entry.
func (n *Network) phaseRef() uint32 {
	if n.curPhase == "" {
		return 0
	}
	if k := len(n.phases); k == 0 || n.phases[k-1] != n.curPhase {
		if k == maxPhases {
			panic("sim: phase table full")
		}
		n.phases = append(n.phases, n.curPhase)
	}
	return uint32(len(n.phases))
}

// cause returns id's record; id must be registered.
func (n *Network) cause(id CauseID) *causeRec {
	i := int(id) - 1
	return &n.causes[i/causeChunk][i%causeChunk]
}

// CauseOf resolves a cause ID (false for 0 or unknown IDs).
func (n *Network) CauseOf(id CauseID) (Cause, bool) {
	if id == 0 || int(id) > n.ncauses {
		return Cause{}, false
	}
	r := n.cause(id)
	c := Cause{
		ID:    id,
		Kind:  CauseKind(r.meta & 0xff),
		Label: r.label,
		Node:  topology.NodeID(r.node),
		Seq:   uint64(id) - 1,
		At:    r.at,
	}
	if ph := r.meta >> 8; ph != 0 {
		c.Phase = n.phases[ph-1]
	}
	return c, true
}

// SetPhaseLabel names the execution phase newly registered causes are
// attributed to (empty clears it). The runtime executor sets it per phase.
func (n *Network) SetPhaseLabel(phase string) { n.curPhase = phase }

// PhaseLabel returns the label SetPhaseLabel last set ("" outside a phase).
func (n *Network) PhaseLabel() string { return n.curPhase }

// ScheduleCausedAt runs fn when the simulated clock reaches t, rooting the
// causal chain of everything fn sets in motion at the given cause.
func (n *Network) ScheduleCausedAt(t time.Duration, id CauseID, fn func(*Network)) {
	if t < n.now {
		t = n.now
	}
	n.push(t, &event{fn: fn, cause: id})
}

// ScheduleEventAt registers a CauseEvent named label and runs fn at t with
// that cause as the provenance root. It returns the cause ID.
func (n *Network) ScheduleEventAt(t time.Duration, label string, fn func(*Network)) CauseID {
	id := n.NewCause(CauseEvent, label, topology.None)
	n.ScheduleCausedAt(t, id, fn)
	return id
}

// activateCause stamps the cause's first firing time.
func (n *Network) activateCause(id CauseID) {
	if id == 0 {
		return
	}
	if r := n.cause(id); r.at < 0 {
		r.at = n.now
	}
}

// provenance resolves a dirty-set mark into the snapshot annotation.
func (n *Network) provenance(mark causeMark) Provenance {
	pr := Provenance{Hops: mark.hops}
	if c, ok := n.CauseOf(mark.cause); ok {
		pr.Cause = c
	}
	return pr
}
