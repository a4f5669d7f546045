package analyzer

import (
	"fmt"

	"chameleon/internal/bgp"
	"chameleon/internal/sim"
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

// classKey serializes the initial and final routing states of prefix p up
// to the prefix value: two prefixes with equal keys are §3-equivalent.
func classKey(initial, final *sim.Network, p bgp.Prefix) string {
	key := ""
	for _, net := range []*sim.Network{initial, final} {
		routes, have := net.RoutingState(p)
		for _, n := range net.Graph().Internal() {
			if !have[n] {
				key += "|-"
				continue
			}
			r := routes[n]
			key += fmt.Sprintf("|%d:%d:%v:%d:%d:%d", r.Egress, r.External, r.Path,
				r.LocalPref, r.ASPathLen, r.MED)
		}
		key += "##"
	}
	return key
}

// fnv1a hashes s with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
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
	for _, p := range prefixes {
		k := classKey(initial, final, p)
		if i, ok := idx[k]; ok {
			classes[i].Members = append(classes[i].Members, p)
			continue
		}
		idx[k] = len(classes)
		classes = append(classes, Class{
			Representative: p,
			Members:        []bgp.Prefix{p},
			Fingerprint:    fnv1a(k),
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
