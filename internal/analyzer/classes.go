package analyzer

import (
	"fmt"

	"chameleon/internal/bgp"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// Class is one prefix equivalence class (§3): the prefixes whose initial
// and final routing states are identical up to the prefix value. Chameleon
// analyzes and schedules the representative once and reuses the resulting
// dependency graph for every member.
type Class struct {
	// Representative is the first member in scenario order; the planning
	// pipeline runs on it.
	Representative bgp.Prefix
	// Members lists every prefix of the class, representative included,
	// in scenario order.
	Members []bgp.Prefix
	// Fingerprint is a structural hash of the shared initial and final
	// routing states — stable across runs, used to tag per-class spans and
	// to detect class drift between planning and execution.
	Fingerprint uint64
}

// appendClassKey appends the initial and final routing states of prefix p
// at the internal routers, serialized up to the prefix value, to key: two
// prefixes with equal keys are §3-equivalent.
func appendClassKey(key []byte, internal []topology.NodeID, initial, final *sim.Network, p bgp.Prefix) []byte {
	for _, net := range []*sim.Network{initial, final} {
		for _, n := range internal {
			r, ok := net.Best(n, p)
			if !ok {
				key = append(key, "|-"...)
				continue
			}
			key = fmt.Appendf(key, "|%d:%d:%v:%d:%d:%d", r.Egress, r.External, r.Path,
				r.LocalPref, r.ASPathLen, r.MED)
		}
		key = append(key, "##"...)
	}
	return key
}

// fnv1a hashes b with 64-bit FNV-1a.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Classes partitions prefixes into §3 equivalence classes against the
// converged initial and final networks. Classes appear in order of their
// representative's first occurrence, and members keep scenario order, so
// the partition is deterministic for a given scenario.
func Classes(initial, final *sim.Network, prefixes []bgp.Prefix) []Class {
	var classes []Class
	idx := make(map[string]int)
	internal := initial.Graph().Internal()
	key := make([]byte, 0, 1024) // one key's worth on a mid-sized topology
	for _, p := range prefixes {
		key = appendClassKey(key[:0], internal, initial, final, p)
		if i, ok := idx[string(key)]; ok {
			classes[i].Members = append(classes[i].Members, p)
			continue
		}
		idx[string(key)] = len(classes)
		classes = append(classes, Class{
			Representative: p,
			Members:        []bgp.Prefix{p},
			Fingerprint:    fnv1a(key),
		})
	}
	return classes
}

// ForPrefix returns the analysis retargeted at prefix p, which must be
// §3-equivalent to a.Prefix: class members share initial and final routing
// states up to the prefix value, so the whole dependency graph — selected
// routes, forwarding states, provider sets, switching sets — carries over
// unchanged and only the destination prefix differs. Compiling a plan for
// every member of a class reuses the representative's analysis through
// this method instead of re-deriving and re-scheduling it per prefix.
func (a *Analysis) ForPrefix(p bgp.Prefix) *Analysis {
	if p == a.Prefix {
		return a
	}
	b := *a
	b.Prefix = p
	return &b
}
