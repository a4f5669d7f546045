package sim_test

import (
	"reflect"
	"slices"
	"testing"

	"chameleon/internal/bgp"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

func abilene(t testing.TB) *scenario.Scenario {
	t.Helper()
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCloneKeepsFailedLinks: a clone of a network with a failed link keeps
// the degraded IGP its RIBs were decided over, and reconverging either side
// afterwards leaves the other alone.
func TestCloneKeepsFailedLinks(t *testing.T) {
	s := scenario.RunningExample()
	n1, n4 := s.Graph.MustNode("n1"), s.Graph.MustNode("n4")
	if !s.Net.FailLink(n4, n1) {
		t.Fatal("FailLink(n4, n1) failed")
	}
	s.Net.Run()
	degraded := s.Net.ForwardingState(s.Prefix)
	if degraded[n4] == n1 {
		t.Fatalf("n4 still forwards over the failed link: %v", degraded)
	}

	c := s.Net.Clone()
	if got := c.SPF().FailedLinks(); got != 1 {
		t.Errorf("clone has %d failed links, want 1", got)
	}
	if got := c.ForwardingState(s.Prefix); !got.Equal(degraded) {
		t.Errorf("clone forwards %v, original %v", got, degraded)
	}

	c.RestoreLink(n4, n1)
	c.Run()
	if got := c.ForwardingState(s.Prefix); got[n4] != n1 {
		t.Errorf("restored clone does not use the link again: %v", got)
	}
	if got := s.Net.SPF().FailedLinks(); got != 1 {
		t.Errorf("restoring on the clone left the original with %d failed links, want 1", got)
	}
	if got := s.Net.ForwardingState(s.Prefix); !got.Equal(degraded) {
		t.Errorf("restoring on the clone moved the original: %v, want %v", got, degraded)
	}

	healthy := c.ForwardingState(s.Prefix)
	c2 := c.Clone()
	s.Net.FailLink(s.Graph.MustNode("n2"), n1)
	s.Net.Run()
	if c.SPF().FailedLinks() != 0 || c2.SPF().FailedLinks() != 0 {
		t.Error("failing a link on the original reached its clones")
	}
	if got := c2.ForwardingState(s.Prefix); !got.Equal(healthy) {
		t.Errorf("failing a link on the original moved a clone: %v, want %v", got, healthy)
	}
}

// knowsPredicates returns route predicates that split the candidate sets of
// s in every way plan.Condition does (by egress, by advertising neighbor),
// plus nil and never.
func knowsPredicates(s *scenario.Scenario) []func(bgp.Route) bool {
	preds := []func(bgp.Route) bool{nil, func(bgp.Route) bool { return false }}
	for _, e := range []topology.NodeID{s.E1, s.E2, s.E3} {
		preds = append(preds, func(r bgp.Route) bool { return r.Egress == e })
	}
	for _, nb := range s.Graph.Internal() {
		preds = append(preds, func(r bgp.Route) bool { return r.Egress == s.E2 && r.Pre() == nb })
	}
	return preds
}

// TestKnowsMatchesCandidates: the streaming Knows answers exactly "some
// element of Candidates satisfies the predicate", before and after every
// original command.
func TestKnowsMatchesCandidates(t *testing.T) {
	for _, s := range []*scenario.Scenario{scenario.RunningExample(), abilene(t)} {
		check := func(when string) {
			t.Helper()
			for _, node := range s.Graph.Internal() {
				for _, p := range s.AllPrefixes() {
					cands := s.Net.Candidates(node, p)
					for i, pred := range knowsPredicates(s) {
						want := len(cands) > 0
						if pred != nil {
							want = slices.ContainsFunc(cands, pred)
						}
						if got := s.Net.Knows(node, p, pred); got != want {
							t.Errorf("%s %s: Knows(%d, %d, pred %d) = %v, Candidates say %v",
								s.Name, when, node, p, i, got, want)
						}
					}
				}
			}
		}
		check("initially")
		for _, cmd := range s.Commands {
			cmd.Apply(s.Net)
			s.Net.Run()
			check("after " + cmd.Description)
		}
	}
}

// TestKnowsDoesNotAllocate: plan.Condition.Check polls Knows for every step
// after every simulated event; it must cost no allocation with or without
// a predicate, match or no match.
func TestKnowsDoesNotAllocate(t *testing.T) {
	s := abilene(t)
	hit := func(r bgp.Route) bool { return r.Egress == s.E1 }
	miss := func(bgp.Route) bool { return false }
	for _, node := range s.Graph.Internal() {
		allocs := testing.AllocsPerRun(10, func() {
			s.Net.Knows(node, s.Prefix, nil)
			s.Net.Knows(node, s.Prefix, hit)
			s.Net.Knows(node, s.Prefix, miss)
		})
		if allocs != 0 {
			t.Errorf("Knows at node %d: %v allocs per run, want 0", node, allocs)
		}
	}
}

// TestDecideScratchDoesNotAlias guards decide's per-network candidate
// scratch: the route a decision installs must survive, contents included,
// the next decision at another router overwriting the scratch.
func TestDecideScratchDoesNotAlias(t *testing.T) {
	s := scenario.RunningExample()
	n1, n2, n5 := s.Graph.MustNode("n1"), s.Graph.MustNode("n2"), s.Graph.MustNode("n5")
	redecide := func(node, nb topology.NodeID, weight int) {
		s.Net.UpdateRouteMap(node, nb, sim.In, func(rm *sim.RouteMap) {
			rm.Add(sim.Entry{Order: 5, Action: sim.Action{SetWeight: sim.IntP(weight)}})
		})
	}
	redecide(n2, n1, 7)
	first, ok := s.Net.Best(n2, s.Prefix)
	if !ok || first.Weight != 7 {
		t.Fatalf("n2 did not re-select through the new route map: %+v %v", first, ok)
	}
	want := first
	want.Path = slices.Clone(first.Path)
	want.ClusterList = slices.Clone(first.ClusterList)

	redecide(n5, n1, 9)
	if second, _ := s.Net.Best(n5, s.Prefix); second.Weight != 9 || second.At() != n5 {
		t.Fatalf("n5 did not re-select through the new route map: %+v", second)
	}
	if got, _ := s.Net.Best(n2, s.Prefix); !reflect.DeepEqual(got, want) {
		t.Errorf("n2's Loc-RIB entry changed under n5's decision:\n got %+v\nwant %+v", got, want)
	}
}

func BenchmarkNetworkClone(b *testing.B) {
	s := abilene(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Net.Clone().TableEntries() != s.Net.TableEntries() {
			b.Fatal("clone lost table entries")
		}
	}
}
