package sim

import (
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/igp"
	"chameleon/internal/topology"
)

// SPF returns the IGP state.
func (n *Network) SPF() *igp.SPF { return n.spf }

// QueueRetained counts the slots of n's event-queue backing array beyond its
// length that still point at an event.
func QueueRetained(n *Network) int {
	retained := 0
	for _, e := range n.queue[len(n.queue):cap(n.queue)] {
		if e != nil {
			retained++
		}
	}
	return retained
}

// AttrRecords returns the number of records n's attribute table resolves.
func AttrRecords(n *Network) int { return n.attrs.Len() }

// AttrLookups returns how many interns on n's attribute table hashed a
// route to consult the index.
func AttrLookups(n *Network) uint64 { return n.attrs.Lookups() }

// DirtyPrefixes returns the number of prefixes marked for the snapshots the
// current event ends with.
func DirtyPrefixes(n *Network) int { return len(n.dirty) }

// SnapshotChanged marks the routing of ps changed and takes the snapshots an
// event that changed it ends with.
func SnapshotChanged(n *Network, ps ...bgp.Prefix) {
	for _, p := range ps {
		n.markDirty(p)
	}
	n.snapshotDirty()
}

// PendingSlots returns the length of n's pending-command token list, which
// holds applied and cancelled tokens too until a compaction drops them.
func PendingSlots(n *Network) int { return len(n.pendingCmds) }

// CauseChunk is the number of records one block of the cause log holds.
const CauseChunk = causeChunk

// Cancelled reports whether the token was cancelled before applying.
func (t *CommandToken) Cancelled() bool { return t.cancelled }

// ScheduledAt returns the (post-fault) simulated time the primary
// application is due; meaningless for dropped commands.
func (t *CommandToken) ScheduledAt() time.Duration { return t.at }

// PendingCommands returns the number of scheduled commands that have
// neither applied nor been cancelled yet.
func (n *Network) PendingCommands() int {
	pending := 0
	for _, tk := range n.pendingCmds {
		if !tk.applied && !tk.cancelled {
			pending++
		}
	}
	return pending
}

// MessagesProcessed returns the number of BGP messages delivered so far.
func (n *Network) MessagesProcessed() uint64 { return n.msgCount }

// NodeP returns a pointer to n.
func NodeP(n topology.NodeID) *topology.NodeID { return &n }
