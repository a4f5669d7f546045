// Package eval implements the paper's evaluation (§6, §7, App. A/C/D): it
// builds the specifications of Eq. 4 and §7.1 (φn, φt), runs the scenario
// sweeps behind every figure and table, and provides the statistics helpers
// (CDFs, percentiles) used to render them.
package eval

import (
	"math/rand/v2"

	"chameleon/internal/analyzer"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

// ReachabilitySpec builds G ∧_n reach(n) over all internal routers.
func ReachabilitySpec(g *topology.Graph) *spec.Spec { return spec.Reachability(g) }

// Eq4Spec builds the case-study specification (Eq. 4):
//
//	φ = ∧_n G reach(n) ∧ wp(n, e1) U G wp(n, e_n)
//
// where e_n is node n's final egress.
func Eq4Spec(a *analyzer.Analysis, e1 topology.NodeID) *spec.Spec {
	b := spec.NewBuilder()
	var es []*spec.Expr
	for _, n := range a.Graph.Internal() {
		es = append(es, b.Globally(b.Reach(n)))
		en := a.NHNew.Egress(n)
		if en == topology.None {
			continue
		}
		es = append(es, b.Until(b.Wp(n, e1), b.Globally(b.Wp(n, en))))
	}
	return spec.NewSpec(b, b.And(es...))
}

// Eq4For derives Eq. 4 with e1 as the old egress from an analysis: the
// specification plan.Build schedules a case study under.
func Eq4For(e1 topology.NodeID) func(*analyzer.Analysis) *spec.Spec {
	return func(a *analyzer.Analysis) *spec.Spec { return Eq4Spec(a, e1) }
}

// PhiN builds the non-temporal specification of §7.1:
//
//	φn = ∧_n G reach(n) ∧ ∧_{n∈Nφ} G (wp(n, e1) ∨ wp(n, e_n))
func PhiN(a *analyzer.Analysis, e1 topology.NodeID, nphi []topology.NodeID) *spec.Spec {
	b := spec.NewBuilder()
	var es []*spec.Expr
	for _, n := range a.Graph.Internal() {
		es = append(es, b.Globally(b.Reach(n)))
	}
	for _, n := range nphi {
		en := a.NHNew.Egress(n)
		if en == topology.None {
			continue
		}
		es = append(es, b.Globally(b.Or(b.Wp(n, e1), b.Wp(n, en))))
	}
	return spec.NewSpec(b, b.And(es...))
}

// PhiT builds the temporal specification of §7.1:
//
//	φt = ∧_n G reach(n) ∧ ∧_{n∈Nφ} wp(n, e1) U G wp(n, e_n)
func PhiT(a *analyzer.Analysis, e1 topology.NodeID, nphi []topology.NodeID) *spec.Spec {
	b := spec.NewBuilder()
	var es []*spec.Expr
	for _, n := range a.Graph.Internal() {
		es = append(es, b.Globally(b.Reach(n)))
	}
	for _, n := range nphi {
		en := a.NHNew.Egress(n)
		if en == topology.None {
			continue
		}
		es = append(es, b.Until(b.Wp(n, e1), b.Globally(b.Wp(n, en))))
	}
	return spec.NewSpec(b, b.And(es...))
}

// SampleNodes picks k distinct internal routers deterministically from
// seed, for the Nφ sweeps of Figs. 8 and 13.
func SampleNodes(g *topology.Graph, k int, seed uint64) []topology.NodeID {
	internal := g.Internal()
	if k > len(internal) {
		k = len(internal)
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x2545f4914f6cdd1d))
	perm := rng.Perm(len(internal))
	out := make([]topology.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = internal[perm[i]]
	}
	return out
}
