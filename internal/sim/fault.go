package sim

import (
	"fmt"
	"slices"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/topology"
)

// This file implements the simulator's fault-injection layer: seeded,
// deterministic hooks on configuration-command application (FaultInjector)
// and BGP message timing (Delivery). They model the unreliable substrate a
// real controller pushes commands into — commands can be lost, delayed,
// applied twice, or applied without the acknowledgment making it back —
// and BGP sessions can flap. The runtime controller is expected to observe
// faults only through the CommandToken (the ack channel) and the network
// state itself, never through the injector's internal truth.

// FaultKind enumerates the injectable fault classes. A FaultInjector applies
// them to commands; a message's fate is a Delivery's delay and copy spacing.
type FaultKind int

const (
	// FaultNone leaves the command untouched.
	FaultNone FaultKind = iota
	// FaultDrop silently loses a command: it never reaches the router and
	// no acknowledgment is produced. Messages are never lost — the
	// simulated sessions run over TCP; whole-session loss is modeled by
	// FlapSession.
	FaultDrop
	// FaultDelay multiplies the command latency by DelayFactor.
	FaultDelay
	// FaultDuplicate applies the command twice, the second copy arriving
	// later. Every configuration command is idempotent (command.go), so a
	// duplicate is only harmful through its timing.
	FaultDuplicate
	// FaultPartial applies the command's effect but loses the
	// acknowledgment: the controller sees a failure for a command that in
	// fact (partially or fully) ran, and must verify the effect on the
	// network instead of trusting the ack.
	FaultPartial
	// FaultFlap is not decided per command: it names the scheduled
	// session-flap fault (teardown + re-establish after a hold time) in
	// fault schedules and reports.
	FaultFlap
)

var faultKindNames = [...]string{"none", "drop", "delay", "duplicate", "partial", "flap"}

func (k FaultKind) String() string {
	if k >= 0 && int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// CommandFault is the injector's decision for one command application
// attempt.
type CommandFault struct {
	Kind FaultKind
	// DelayFactor multiplies the command latency for FaultDelay and spaces
	// the second application for FaultDuplicate. Values ≤ 1 are ignored.
	DelayFactor float64
}

// FaultInjector decides the fate of every command application.
// Implementations must be deterministic functions of their own seeded state
// and the call sequence, so a fixed seed reproduces the exact fault
// schedule.
type FaultInjector interface {
	// CommandFault is consulted once per scheduled command application;
	// attempt counts the controller's pushes of the same command (0 for
	// the first push, 1 for the first retry, …).
	CommandFault(node topology.NodeID, description string, attempt int) CommandFault
}

// Delivery decides when every BGP message arrives; like a FaultInjector, it
// must be deterministic in its seeded state and the call sequence.
type Delivery interface {
	// Deliver is consulted once per message, when from sends it to to,
	// with the session's seeded delay (propagation plus jitter). It returns
	// the delay the message takes, which must be ≥ 0, and, if dup > 0, a
	// copy's spacing: the copy follows the original dup later on the same
	// lane, in the session's FIFO order. A message whose delay Deliver
	// changed or that it copied counts once in faults_injected_message.
	Deliver(from, to topology.NodeID, delay time.Duration) (took, dup time.Duration)
}

// SetFaultInjector installs fi on the network (nil removes it). Cloned
// networks never inherit the injector.
func (n *Network) SetFaultInjector(fi FaultInjector) { n.faults = fi }

// SetDelivery installs d on the network (nil restores the seeded timing).
// Cloned networks never inherit it.
func (n *Network) SetDelivery(d Delivery) { n.delivery = d }

// CommandToken is the controller's view of one pushed command: whether the
// router acknowledged it, and a handle to cancel it while still in flight.
// Applied/Fault expose the simulator's ground truth for tests and chaos
// verification; a faithful controller bases decisions only on Acked and on
// querying the network.
type CommandToken struct {
	applied   bool
	acked     bool
	dropped   bool
	cancelled bool
	kind      FaultKind
	at        time.Duration
}

// Acked reports whether the router acknowledged the application. This is
// the only fault-layer signal a controller may trust.
func (t *CommandToken) Acked() bool { return t.acked }

// Applied reports whether the command's effect reached the network
// (ground truth; for verification harnesses).
func (t *CommandToken) Applied() bool { return t.applied }

// Dropped reports whether the fault layer discarded the command
// (ground truth).
func (t *CommandToken) Dropped() bool { return t.dropped }

// Fault returns the fault kind injected into this application.
func (t *CommandToken) Fault() FaultKind { return t.kind }

// Cancel prevents a not-yet-applied command (and any pending duplicate of
// it) from ever applying. Cancelling an already-applied command is a no-op.
func (t *CommandToken) Cancel() {
	if !t.applied {
		t.cancelled = true
	}
}

// ScheduleCommand pushes cmd through the fault layer after delay — the way
// a controller pushes configuration at a router. The returned token is the
// controller's acknowledgment channel; with no injector installed the
// command applies after exactly delay and acks. Until its applications (a
// duplicate's included) have run, the network is not Converged.
func (n *Network) ScheduleCommand(delay time.Duration, cmd Command, attempt int) *CommandToken {
	n.count(obs.CtrCommandsScheduled, 1)
	tk := &CommandToken{kind: FaultNone}
	f := CommandFault{}
	if n.faults != nil {
		f = n.faults.CommandFault(cmd.Node, cmd.Description, attempt)
	}
	if f.Kind != FaultNone {
		n.count(obs.CtrFaultsCommand, 1)
	}
	tk.kind = f.Kind
	switch f.Kind {
	case FaultDrop:
		// Lost on the way to the router: nothing is scheduled and the
		// controller hears nothing.
		tk.dropped = true
		return tk
	case FaultDelay:
		if f.DelayFactor > 1 {
			delay = time.Duration(float64(delay) * f.DelayFactor)
		}
	}
	tk.at = n.now + delay
	apply := cmd.Apply
	if len(n.pendingCmds) == cap(n.pendingCmds) {
		n.compactPendingCmds()
	}
	n.pendingCmds = append(n.pendingCmds, tk)
	// Each scheduled application roots its own causal chain, so violations
	// set off by the resulting BGP churn blame this command (cause.go).
	cause := n.NewCause(CauseCommand, cmd.Description, cmd.Node)
	n.push(n.now+delay, &event{cause: cause, cmd: true, fn: func(net *Network) {
		if tk.cancelled {
			return
		}
		apply(net)
		tk.applied = true
		// FaultPartial: the effect is in, the ack is lost.
		if f.Kind != FaultPartial {
			tk.acked = true
		}
	}})
	if f.Kind == FaultDuplicate {
		// A straggling second application. Commands are idempotent, so the
		// duplicate matters only if it lands after a later command undid
		// the first application; keep it close behind the original.
		extra := delay / 2
		if f.DelayFactor > 1 {
			extra = time.Duration(float64(delay) * (f.DelayFactor - 1) / 2)
		}
		n.push(n.now+delay+extra, &event{cause: cause, cmd: true, fn: func(net *Network) {
			if tk.cancelled {
				return
			}
			apply(net)
		}})
	}
	return tk
}

// compactPendingCmds drops the applied and cancelled tokens from
// pendingCmds, keeping the order of the rest, so the slice grows only when
// what is pending fills it. It doubles the slice when compacting frees less
// than a quarter of it, so a compaction is paid for by the appends it
// makes room for.
func (n *Network) compactPendingCmds() {
	kept := n.pendingCmds[:0]
	for _, tk := range n.pendingCmds {
		if !tk.applied && !tk.cancelled {
			kept = append(kept, tk)
		}
	}
	clear(n.pendingCmds[len(kept):])
	if len(kept) > cap(kept)*3/4 {
		kept = slices.Grow(kept, cap(kept))
	}
	n.pendingCmds = kept
}

// CancelPendingCommands cancels every scheduled-but-unapplied command
// (including pending duplicates), so that aborting a plan is deterministic:
// no in-flight configuration can land after the abort's cleanup. It returns
// the number of commands cancelled.
func (n *Network) CancelPendingCommands() int {
	cancelled := 0
	for _, tk := range n.pendingCmds {
		if !tk.applied && !tk.cancelled {
			tk.Cancel()
			cancelled++
		}
	}
	n.pendingCmds = n.pendingCmds[:0]
	n.count(obs.CtrCommandsCancelled, int64(cancelled))
	return cancelled
}

// FlapSession models a BGP session flap: the session between a and b is
// torn down (both ends drop the learned routes) and re-established with the
// same role after hold. Re-establishment advertises both ends' current best
// routes, as a real session restart would. Returns false if no session
// exists.
func (n *Network) FlapSession(a, b topology.NodeID, hold time.Duration) bool {
	kind, ok := n.HasSession(a, b)
	if !ok {
		return false
	}
	n.RemoveSession(a, b)
	n.ScheduleAfter(hold, func(net *Network) {
		if _, up := net.HasSession(a, b); up {
			return // something re-established it meanwhile
		}
		net.SetSession(a, b, kind)
	})
	return true
}
