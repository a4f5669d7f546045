package bgp

import "chameleon/internal/topology"

// PathArena is a bump allocator for route propagation paths. Extending a
// route allocates a fresh path slice per (route, hop); during a prefix
// storm that is millions of tiny allocations. The arena carves them out of
// large shared blocks instead, and clamps every handed-out slice to zero
// spare capacity so a later append by any holder copies rather than
// scribbling over a neighbor's path.
//
// Paths handed out are immutable by convention (Route.Extend always copies
// before appending), so blocks are never reclaimed individually — the
// arena is dropped wholesale with the network that owns it. Not safe for
// concurrent use; the simulator is single-threaded by design.
type PathArena struct {
	block []topology.NodeID
}

// Block sizes double from arenaFirstBlock to arenaBlock node IDs (2 KiB to
// 64 KiB): a what-if clone that extends a few hundred paths pays for a small
// block, while a storm reaches full-size blocks after a handful and
// amortizes allocator overhead from there on.
const (
	arenaFirstBlock = 256
	arenaBlock      = 8192
)

// ExtendPath returns path + [n] in arena storage. A nil arena falls back
// to a plain allocation, so callers can thread an optional arena without
// branching.
func (a *PathArena) ExtendPath(path []topology.NodeID, n topology.NodeID) []topology.NodeID {
	need := len(path) + 1
	if a == nil || need > arenaBlock {
		// No arena, or a degenerate path longer than a block: plain
		// allocation.
		out := make([]topology.NodeID, need)
		copy(out, path)
		out[need-1] = n
		return out
	}
	if len(a.block)+need > cap(a.block) {
		size := min(max(arenaFirstBlock, 2*cap(a.block)), arenaBlock)
		a.block = make([]topology.NodeID, 0, max(size, need))
	}
	start := len(a.block)
	a.block = append(a.block, path...)
	a.block = append(a.block, n)
	return a.block[start : start+need : start+need]
}
