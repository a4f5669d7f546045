package bgp

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"chameleon/internal/igp"
	"chameleon/internal/topology"
)

func testSPF(t *testing.T) (*igp.SPF, *topology.Graph) {
	t.Helper()
	g := topology.New("cmp")
	a, b, c := g.AddRouter("a"), g.AddRouter("b"), g.AddRouter("c")
	g.AddLink(a, b, 1)
	g.AddLink(b, c, 1)
	return igp.Compute(g), g
}

func route(egress topology.NodeID, path ...topology.NodeID) Route {
	return Route{
		Prefix: 0, Egress: egress, External: 100,
		Path:      path,
		LocalPref: DefaultLocalPref, OriginatorID: topology.None,
	}
}

func TestRouteAccessors(t *testing.T) {
	r := route(0, 0, 1, 2)
	if r.At() != 2 {
		t.Errorf("At = %d, want 2", r.At())
	}
	if r.Pre() != 1 {
		t.Errorf("Pre = %d, want 1", r.Pre())
	}
	e := route(0, 0)
	if e.Pre() != topology.None {
		t.Errorf("egress route Pre = %d, want None", e.Pre())
	}
	var empty Route
	if empty.At() != topology.None {
		t.Errorf("empty route At = %d, want None", empty.At())
	}
}

func TestSameAnnouncement(t *testing.T) {
	a := route(0, 0, 1)
	b := route(0, 0, 2)
	if !a.SameAnnouncement(b) {
		t.Error("same egress+external must be SameAnnouncement")
	}
	c := route(1, 1, 2)
	if a.SameAnnouncement(c) {
		t.Error("different egress must not be SameAnnouncement")
	}
	if a.PathEqual(b) {
		t.Error("different paths must not be PathEqual")
	}
	if !a.PathEqual(route(0, 0, 1)) {
		t.Error("identical routes must be PathEqual")
	}
}

func TestDecisionProcessOrder(t *testing.T) {
	spf, _ := testSPF(t)
	cmp := Comparator{SPF: spf, Node: 2}

	base := func() Route { return route(0, 0, 1, 2) }

	cases := []struct {
		name   string
		better func() Route
		worse  func() Route
	}{
		{"weight beats localpref", func() Route {
			r := base()
			r.Weight = 10
			return r
		}, func() Route {
			r := base()
			r.LocalPref = 999
			return r
		}},
		{"localpref beats aspath", func() Route {
			r := base()
			r.LocalPref = 200
			r.ASPathLen = 9
			return r
		}, func() Route {
			r := base()
			r.ASPathLen = 1
			return r
		}},
		{"aspath beats med", func() Route {
			r := base()
			r.ASPathLen = 1
			r.MED = 100
			return r
		}, func() Route {
			r := base()
			r.ASPathLen = 2
			return r
		}},
		{"med beats ebgp", func() Route {
			r := base()
			r.MED = 0
			return r
		}, func() Route {
			r := base()
			r.MED = 5
			r.FromEBGP = true
			return r
		}},
		{"ebgp beats igp cost", func() Route {
			r := route(0, 2) // egress is self: IGP cost 0... but eBGP wins first
			r.FromEBGP = true
			r.Egress = 0
			r.Path = []topology.NodeID{0, 1, 2}
			return r
		}, func() Route {
			r := route(2, 2)
			return r
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !cmp.Better(tc.better(), tc.worse()) {
				t.Errorf("expected %v better than %v", tc.better(), tc.worse())
			}
			if cmp.Better(tc.worse(), tc.better()) {
				t.Errorf("comparator not antisymmetric")
			}
		})
	}
}

func TestIGPCostTieBreak(t *testing.T) {
	spf, _ := testSPF(t)
	cmp := Comparator{SPF: spf, Node: 1}
	near := route(0, 0, 1) // egress 0, distance 1 from node 1
	far := route(2, 2, 1)  // egress 2, distance 1 from node 1 -> equal, egress ID wins
	if !cmp.Better(near, far) {
		t.Error("equal IGP cost must fall through to lowest egress ID")
	}
	cmp0 := Comparator{SPF: spf, Node: 0}
	close0 := route(0, 0)
	far0 := route(2, 2, 1, 0)
	if !cmp0.Better(close0, far0) {
		t.Error("lower IGP cost must win")
	}
}

func TestBestIsTotalOrderOnCandidates(t *testing.T) {
	spf, _ := testSPF(t)
	cmp := Comparator{SPF: spf, Node: 1}
	rs := []Route{route(2, 2, 1), route(0, 0, 1)}
	i := cmp.Best(rs)
	if i != 1 {
		t.Errorf("Best = %d, want 1 (lowest egress id at equal cost)", i)
	}
	if cmp.Best(nil) != -1 {
		t.Error("Best(nil) must be -1")
	}
}

func TestAdjIn(t *testing.T) {
	a := NewAdjIn(NewAttrTable())
	r1 := route(0, 0, 1)
	r2 := route(2, 2, 1)
	a.Set(0, r1)
	a.Set(2, r2)
	if a.Size() != 2 {
		t.Fatalf("Size = %d, want 2", a.Size())
	}
	if got, ok := a.Get(0, 0); !ok || !got.PathEqual(r1) {
		t.Error("Get(0) mismatch")
	}
	var nbs []topology.NodeID
	a.RangeCandidates(0, func(n topology.NodeID, _ Route) bool {
		nbs = append(nbs, n)
		return true
	})
	if len(nbs) != 2 || nbs[0] != 0 || nbs[1] != 2 {
		t.Fatalf("RangeCandidates neighbors = %v", nbs)
	}
	if !a.Withdraw(0, 0) {
		t.Error("Withdraw should report true")
	}
	if a.Withdraw(0, 0) {
		t.Error("double Withdraw should report false")
	}
	if a.Size() != 1 {
		t.Errorf("Size after withdraw = %d", a.Size())
	}
	var dropped []Prefix
	a.DropNeighborRange(2, func(p Prefix) bool {
		dropped = append(dropped, p)
		return true
	})
	if len(dropped) != 1 || dropped[0] != 0 {
		t.Errorf("DropNeighborRange = %v", dropped)
	}
	if a.Size() != 0 {
		t.Errorf("Size after drop = %d", a.Size())
	}
}

func TestSessionKindString(t *testing.T) {
	kinds := map[SessionKind]string{
		EBGP: "eBGP", IBGPPeer: "iBGP-peer", IBGPClient: "iBGP-client", IBGPUp: "iBGP-up",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %s, want %s", k, k.String(), want)
		}
	}
}

// TestComparatorStrictWeakOrder property-checks that Better is a strict
// weak order on random routes: irreflexive, asymmetric, and transitive.
func TestComparatorStrictWeakOrder(t *testing.T) {
	spf, _ := testSPF(t)
	cmp := Comparator{SPF: spf, Node: 1}
	gen := func(rng *rand.Rand) Route {
		r := Route{
			Prefix:       0,
			Egress:       topology.NodeID(rng.IntN(3)),
			External:     topology.NodeID(100 + rng.IntN(2)),
			Weight:       rng.IntN(3) * 100,
			LocalPref:    uint32(100 + rng.IntN(2)*100),
			ASPathLen:    1 + rng.IntN(2),
			MED:          uint32(rng.IntN(2) * 10),
			FromEBGP:     rng.IntN(2) == 0,
			OriginatorID: topology.None,
		}
		r.Path = []topology.NodeID{r.Egress}
		hops := rng.IntN(2)
		for h := 0; h < hops; h++ {
			r.Path = append(r.Path, topology.NodeID(rng.IntN(3)))
		}
		r.Path = append(r.Path, 1)
		for cl := rng.IntN(3); cl > 0; cl-- {
			r.ClusterList = append(r.ClusterList, topology.NodeID(rng.IntN(3)))
		}
		return r
	}
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		a, b, c := gen(rng), gen(rng), gen(rng)
		if cmp.Better(a, a) {
			return false // irreflexive
		}
		if cmp.Better(a, b) && cmp.Better(b, a) {
			return false // asymmetric
		}
		if cmp.Better(a, b) && cmp.Better(b, c) && !cmp.Better(a, c) {
			return false // transitive
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
