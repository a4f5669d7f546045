package bgp

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"chameleon/internal/topology"
)

func testRoute(p Prefix, egress topology.NodeID) Route {
	return Route{Prefix: p, Egress: egress, Path: []topology.NodeID{egress}, LocalPref: 100}
}

// modelRIB is the reference the route table is checked against: a plain map
// whose ordered view is its sorted key slice. Test-only.
type modelRIB map[Prefix]Route

func (m modelRIB) sortedKeys() []Prefix {
	keys := make([]Prefix, 0, len(m))
	for p := range m {
		keys = append(keys, p)
	}
	slices.Sort(keys)
	return keys
}

// ids returns a slice holding ns with spare capacity, so a table that hands
// back a stored slice without clamping it is caught by checkRoute.
func ids(ns ...topology.NodeID) []topology.NodeID {
	return append(make([]topology.NodeID, 0, len(ns)+2), ns...)
}

// attrPool is what the model writes: few enough attribute sets that equal
// ones recur across prefixes, tables and forks, so the attribute table
// interns under test, and neighbors in the pool differ in one field —
// a path, a cluster list, nil against empty — so an interning that confuses
// two of them hands back a wrong route.
var attrPool = func() []Route {
	base := Route{Egress: 1, External: 100, Path: ids(1), LocalPref: DefaultLocalPref, OriginatorID: topology.None}
	vary := []func(*Route){
		func(*Route) {},
		func(r *Route) { r.Path = ids(1, 2) },
		func(r *Route) { r.Path = ids(1, 3) },
		func(r *Route) { r.Path = ids() },
		func(r *Route) { r.Path = nil },
		func(r *Route) { r.ClusterList = ids() },
		func(r *Route) { r.ClusterList = ids(2) },
		func(r *Route) { r.ClusterList = ids(3) },
		func(r *Route) { r.ClusterList = ids(2, 3) },
		func(r *Route) { r.Path, r.ClusterList = ids(1, 2), ids(2) },
		func(r *Route) { r.Egress = 2 },
		func(r *Route) { r.External = 101 },
		func(r *Route) { r.Weight = 1 },
		func(r *Route) { r.LocalPref = 200 },
		func(r *Route) { r.ASPathLen = 2 },
		func(r *Route) { r.MED = 5 },
		func(r *Route) { r.FromEBGP = true },
		func(r *Route) { r.OriginatorID = 2 },
	}
	pool := make([]Route, len(vary))
	for i, v := range vary {
		pool[i] = base
		v(&pool[i])
	}
	return pool
}()

// checkRoute fails unless got is want in every field, nil against empty
// slices included, and its slices have no spare capacity: every prefix of
// equal attributes shares them, so an append by one holder must copy.
func checkRoute(t testing.TB, what string, got, want Route) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s = %+v, model %+v", what, got, want)
	}
	if cap(got.Path) != len(got.Path) || cap(got.ClusterList) != len(got.ClusterList) {
		t.Fatalf("%s hands out spare capacity: Path %d/%d, ClusterList %d/%d",
			what, len(got.Path), cap(got.Path), len(got.ClusterList), cap(got.ClusterList))
	}
}

// checkedRIB drives a table and its model in lockstep. Tables of one
// simulated network intern into one attribute table, and clones go onto a
// fork of it, as in sim.Network.
type checkedRIB struct {
	rib   *RIB
	attrs *AttrTable
	model modelRIB
}

func newCheckedRIB(attrs *AttrTable) *checkedRIB {
	return &checkedRIB{rib: NewRIBOn(attrs), attrs: attrs, model: modelRIB{}}
}

// set writes attribute set attr of the pool under p.
func (c *checkedRIB) set(t testing.TB, p Prefix, attr int) {
	t.Helper()
	r := attrPool[attr%len(attrPool)]
	r.Prefix = p
	_, existed := c.model[p]
	c.model[p] = r
	if added := c.rib.Set(r); added == existed {
		t.Fatalf("Set(%d) reported added=%v, model had it: %v", p, added, existed)
	}
}

func (c *checkedRIB) del(t testing.TB, p Prefix) {
	t.Helper()
	_, existed := c.model[p]
	delete(c.model, p)
	if got := c.rib.Delete(p); got != existed {
		t.Fatalf("Delete(%d) = %v, model says %v", p, got, existed)
	}
}

func (c *checkedRIB) get(t testing.TB, p Prefix) {
	t.Helper()
	want, ok := c.model[p]
	got, gok := c.rib.Get(p)
	if ok != gok {
		t.Fatalf("Get(%d) found %v; model %v", p, gok, ok)
	}
	if ok {
		checkRoute(t, fmt.Sprintf("Get(%d)", p), got, want)
	}
}

// cloneOn clones the table onto attrs, a fork of its own attribute table.
func (c *checkedRIB) cloneOn(attrs *AttrTable) *checkedRIB {
	return &checkedRIB{rib: c.rib.CloneOn(attrs), attrs: attrs, model: maps.Clone(c.model)}
}

func (c *checkedRIB) clone() *checkedRIB { return c.cloneOn(c.attrs.Fork()) }

// check compares everything observable: Len, the full ascending Range, Get
// of every key, and a Range that stops early.
func (c *checkedRIB) check(t testing.TB) {
	t.Helper()
	keys := c.model.sortedKeys()
	if c.rib.Len() != len(keys) {
		t.Fatalf("Len = %d, model has %d", c.rib.Len(), len(keys))
	}
	i := 0
	c.rib.Range(func(p Prefix, r Route) bool {
		if i >= len(keys) || p != keys[i] {
			t.Fatalf("Range entry %d has prefix %d; model keys %v", i, p, keys)
		}
		checkRoute(t, fmt.Sprintf("Range entry %d", i), r, c.model[p])
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("Range visited %d entries, model has %d", i, len(keys))
	}
	for _, p := range keys {
		c.get(t, p)
	}
	stopAfter, seen := (len(keys)+1)/2, 0
	c.rib.Range(func(Prefix, Route) bool {
		seen++
		return seen < stopAfter
	})
	if seen != stopAfter {
		t.Fatalf("early-exit Range visited %d entries, want %d", seen, stopAfter)
	}
}

// ribOpKey spreads two bytes over the key shapes that matter: every slot of
// the root leaf (0 and 63 included), neighboring leaves under a one-level
// root, slot 63 of leaves two levels down, and keys that force grow up to
// the deepest trie.
func ribOpKey(a, b byte) Prefix {
	switch a % 4 {
	case 0:
		return Prefix(b % 64)
	case 1:
		return 64 + Prefix(b)
	case 2:
		return Prefix(1+b%8)<<12 | 63
	}
	return Prefix(1)<<(6*(1+b%10)) + Prefix(b>>4)
}

// runRIBOps interprets data as a sequence of three-byte operations over a
// small set of tables, checking each touched table against its model after
// every step and all of them at the end. The tables form networks: those on
// one attribute table, which a clone forks once for all of them, the way
// sim.Network.Clone does.
func runRIBOps(t testing.TB, data []byte) {
	const maxTables = 8
	tables := []*checkedRIB{newCheckedRIB(NewAttrTable())}
	cur := tables[0]
	add := func(c *checkedRIB, slot int) {
		if len(tables) < maxTables {
			tables = append(tables, c)
		} else {
			tables[slot%maxTables] = c
		}
	}
	for ; len(data) >= 3; data = data[3:] {
		op, a, b := data[0], data[1], data[2]
		p := ribOpKey(a, b)
		switch op % 8 {
		case 0, 1, 2:
			cur.set(t, p, int(op>>3))
		case 3, 4:
			cur.del(t, p)
		case 5:
			cur.get(t, p)
		case 6: // clone cur's network; odd a continues on cur's clone
			fork := cur.attrs.Fork()
			c := cur.cloneOn(fork)
			for i, x := range slices.Clone(tables) {
				if x != cur && x.attrs == cur.attrs {
					add(x.cloneOn(fork), int(b)+i+1)
				}
			}
			add(c, int(b))
			if a%2 == 1 {
				cur = c
			}
		case 7: // even a: switch tables; odd a: a new table in cur's network
			if a%2 == 0 {
				cur = tables[int(b)%len(tables)]
			} else {
				c := newCheckedRIB(cur.attrs)
				add(c, int(b))
				cur = c
			}
		}
		cur.check(t)
	}
	for _, c := range tables {
		c.check(t)
	}
}

// TestRIBModel checks the table against the map model on the shapes the
// packed leaf and the adaptive height make delicate, then on a long random
// operation sequence with clones.
func TestRIBModel(t *testing.T) {
	t.Run("leaf-fill-and-drain", func(t *testing.T) {
		c := newCheckedRIB(NewAttrTable())
		var half *checkedRIB
		for i := 0; i < 64; i++ {
			c.set(t, Prefix(i*37%64), 1) // scrambled: inserts land mid-slice
			c.check(t)
			if i == 31 {
				half = c.clone()
			}
		}
		for i := 0; i < 64; i++ {
			c.del(t, Prefix(i*29%64))
			c.check(t)
		}
		half.check(t)
		c.set(t, 63, 2)
		c.set(t, 0, 2)
		c.check(t)
	})
	t.Run("grow", func(t *testing.T) {
		keys := []Prefix{0, 63, 64, 4095, 4096, 1 << 30, 1 << 60, math.MaxInt64}
		attrs := NewAttrTable()
		up, down := newCheckedRIB(attrs), newCheckedRIB(attrs)
		for i := range keys {
			up.set(t, keys[i], 3)
			up.check(t)
			down.set(t, keys[len(keys)-1-i], 4)
			down.check(t)
		}
		for _, c := range []*checkedRIB{up, down} {
			c.get(t, 1<<40) // absent, inside the covered range
			c.del(t, 1<<30)
			c.check(t)
		}
		small := newCheckedRIB(NewAttrTable())
		small.set(t, 5, 1)
		small.get(t, math.MaxInt64) // absent, beyond the covered range
		small.del(t, 1<<20)
		small.check(t)
	})
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		data := make([]byte, 3*5000)
		rng.Read(data)
		runRIBOps(t, data)
	})
}

// FuzzRIBModel feeds arbitrary operation sequences to the model check. The
// seed corpus under testdata/fuzz covers a leaf filled and drained, deep
// keys, and writes on both sides of a clone chain.
func FuzzRIBModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runRIBOps(t, data) })
}

// TestCOWCloneIsolation checks that after Clone neither table observes the
// other's writes, in both directions, including deep prefix keys.
func TestCOWCloneIsolation(t *testing.T) {
	orig := NewRIB()
	for _, p := range []Prefix{0, 1, 63, 64, 100000, 999999} {
		orig.Set(testRoute(p, 1))
	}
	snap := orig.Clone()

	// Mutate the original: overwrite, insert, delete.
	orig.Set(testRoute(63, 9))
	orig.Set(testRoute(500, 9))
	orig.Delete(100000)

	if r, ok := snap.Get(63); !ok || r.Egress != 1 {
		t.Fatalf("clone saw original's overwrite: %+v %v", r, ok)
	}
	if _, ok := snap.Get(500); ok {
		t.Fatal("clone saw original's insert")
	}
	if _, ok := snap.Get(100000); !ok {
		t.Fatal("clone saw original's delete")
	}

	// Mutate the clone: the original must be unaffected too.
	snap.Set(testRoute(0, 7))
	snap.Delete(999999)
	if r, ok := orig.Get(0); !ok || r.Egress != 1 {
		t.Fatalf("original saw clone's overwrite: %+v %v", r, ok)
	}
	if _, ok := orig.Get(999999); !ok {
		t.Fatal("original saw clone's delete")
	}
	if snap.Len() != 5 || orig.Len() != 6 {
		t.Fatalf("sizes drifted: snap %d orig %d", snap.Len(), orig.Len())
	}

	// The hazard the packed leaf adds: a leaf whose value slice has spare
	// capacity is shared by two tables, and one of them inserts or deletes
	// below the existing slots. The shift must happen in that table's own
	// copy, never in the shared backing array.
	for _, writer := range []string{"original", "clone"} {
		a := newCheckedRIB(NewAttrTable())
		for _, p := range []Prefix{10, 20, 30} { // len 3 in a cap-4 slice
			a.set(t, p, 1)
		}
		b := a.clone()
		w, other := a, b
		if writer == "clone" {
			w, other = b, a
		}
		w.set(t, 5, 2) // fits the spare capacity: shifts 10, 20, 30 right
		other.check(t)
		w.del(t, 5) // shifts them back left and zeroes the tail
		w.del(t, 10)
		other.check(t)
		other.set(t, 0, 3) // and the other side, now on its own copy
		other.del(t, 30)
		w.check(t)
		other.check(t)
	}
}

// TestCOWCloneChain stresses repeated clone+mutate cycles, mimicking the
// per-round CaptureState pattern, and verifies every snapshot keeps its
// point-in-time content — also after older snapshots in the chain are
// themselves written to.
func TestCOWCloneChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	live := newCheckedRIB(NewAttrTable())
	mutate := func(c *checkedRIB, n int) {
		for i := 0; i < n; i++ {
			p := Prefix(rng.Intn(2048))
			if rng.Intn(4) == 0 {
				c.del(t, p)
			} else {
				c.set(t, p, rng.Intn(len(attrPool)))
			}
		}
	}
	var snaps []*checkedRIB
	for round := 0; round < 30; round++ {
		mutate(live, 200)
		snaps = append(snaps, live.clone())
	}
	for _, s := range snaps {
		s.check(t)
	}
	// Write to every other snapshot, and to clones of clones: the untouched
	// ones, the live table and the parents must all keep their content.
	for i := 0; i < len(snaps); i += 2 {
		grandchild := snaps[i].clone()
		mutate(snaps[i], 50)
		mutate(grandchild, 50)
		grandchild.check(t)
	}
	live.check(t)
	for _, s := range snaps {
		s.check(t)
	}
}

// TestCOWRangeAllocs verifies the ordered walk does not allocate.
func TestCOWRangeAllocs(t *testing.T) {
	r := NewRIB()
	for p := Prefix(0); p < 10000; p += 3 {
		r.Set(testRoute(p, 2))
	}
	n := 0
	cb := func(Prefix, Route) bool { n++; return true }
	allocs := testing.AllocsPerRun(10, func() { r.Range(cb) })
	if allocs > 0 {
		t.Fatalf("Range allocated %.1f times per walk", allocs)
	}
}

func TestAdjInRangeAndClone(t *testing.T) {
	attrs := NewAttrTable()
	a := NewAdjIn(attrs)
	a.Set(3, testRoute(10, 3))
	a.Set(1, testRoute(10, 1))
	a.Set(1, testRoute(20, 1))
	if a.Size() != 3 {
		t.Fatalf("size %d want 3", a.Size())
	}
	prefixes := func(a *AdjIn) []Prefix {
		var got []Prefix
		a.RangePrefixes(func(p Prefix) bool {
			got = append(got, p)
			return true
		})
		return got
	}
	if got := prefixes(a); !reflect.DeepEqual(got, []Prefix{10, 20}) {
		t.Fatalf("prefixes %v", got)
	}
	var nbrs []topology.NodeID
	a.RangeCandidates(10, func(n topology.NodeID, _ Route) bool {
		nbrs = append(nbrs, n)
		return true
	})
	if !reflect.DeepEqual(nbrs, []topology.NodeID{1, 3}) {
		t.Fatalf("candidate order %v", nbrs)
	}

	c := a.CloneOn(attrs.Fork())
	a.Withdraw(1, 10)
	a.Withdraw(3, 10)
	a.Set(2, testRoute(30, 2))
	if c.Size() != 3 || a.Size() != 2 {
		t.Fatalf("clone sizes drifted: %d %d", c.Size(), a.Size())
	}
	if _, ok := c.Get(1, 10); !ok {
		t.Fatal("clone saw withdraw")
	}
	if _, ok := c.Get(2, 30); ok {
		t.Fatal("clone saw new neighbor")
	}
	// The prefix index is a shared trie too: the clone keeps prefix 10,
	// which the original just lost its last candidate for.
	if got := prefixes(c); !reflect.DeepEqual(got, []Prefix{10, 20}) {
		t.Fatalf("clone prefixes %v", got)
	}
	if got := prefixes(a); !reflect.DeepEqual(got, []Prefix{20, 30}) {
		t.Fatalf("original prefixes %v", got)
	}

	var dropped []Prefix
	a.DropNeighborRange(1, func(p Prefix) bool {
		dropped = append(dropped, p)
		return true
	})
	if !reflect.DeepEqual(dropped, []Prefix{20}) {
		t.Fatalf("dropped %v", dropped)
	}
	if a.Size() != 1 {
		t.Fatalf("size after drop %d", a.Size())
	}

	// A neighbor that first appears, or is dropped, on one side of a clone
	// is an insert into or a delete from that side's neighbor slice alone.
	root := newCheckedAdjIn(NewAttrTable())
	for n := topology.NodeID(1); n <= 3; n++ {
		root.set(t, n, Prefix(n), root.handles[n])
	}
	clone := root.cloneOn(root.attrs.Fork())
	for _, step := range []struct {
		writer *checkedAdjIn
		write  func(*checkedAdjIn)
	}{
		{clone, func(c *checkedAdjIn) { c.set(t, 0, 7, c.handles[4]) }},  // before every neighbor
		{clone, func(c *checkedAdjIn) { c.set(t, 9, 70, c.handles[5]) }}, // after every neighbor
		{clone, func(c *checkedAdjIn) { c.drop(t, 2) }},
		{root, func(c *checkedAdjIn) { c.set(t, 2, 8, c.handles[6]) }},
		{root, func(c *checkedAdjIn) { c.drop(t, 1) }},
		{root, func(c *checkedAdjIn) { c.set(t, 5, 2, c.handles[7]) }},
		{clone, func(c *checkedAdjIn) { c.withdraw(t, 3, 3) }},
	} {
		step.write(step.writer)
		root.check(t)
		clone.check(t)
	}

	// Then the same in lockstep with the model over a long random sequence.
	rng := rand.New(rand.NewSource(11))
	data := make([]byte, 3*4000)
	rng.Read(data)
	runAdjInOps(t, data)
}

// checkedAdjIn drives an Adj-RIB-In and its model, a map of per-neighbor
// maps of attribute handles, in lockstep. The handles are attrPool interned
// once into the root table, so every fork resolves them.
type checkedAdjIn struct {
	adj     *AdjIn
	attrs   *AttrTable
	handles []uint32
	model   map[topology.NodeID]map[Prefix]uint32
}

func newCheckedAdjIn(attrs *AttrTable) *checkedAdjIn {
	c := &checkedAdjIn{adj: NewAdjIn(attrs), attrs: attrs, model: map[topology.NodeID]map[Prefix]uint32{}}
	for i := range attrPool {
		c.handles = append(c.handles, attrs.Intern(&attrPool[i]))
	}
	return c
}

func (c *checkedAdjIn) set(t testing.TB, n topology.NodeID, p Prefix, h uint32) {
	t.Helper()
	_, existed := c.model[n][p]
	if c.model[n] == nil {
		c.model[n] = map[Prefix]uint32{}
	}
	c.model[n][p] = h
	if added := c.adj.SetHandle(n, p, h); added == existed {
		t.Fatalf("SetHandle(%d, %d) reported added=%v, model had it: %v", n, p, added, existed)
	}
}

func (c *checkedAdjIn) withdraw(t testing.TB, n topology.NodeID, p Prefix) {
	t.Helper()
	_, existed := c.model[n][p]
	delete(c.model[n], p)
	if got := c.adj.Withdraw(n, p); got != existed {
		t.Fatalf("Withdraw(%d, %d) = %v, model says %v", n, p, got, existed)
	}
}

// drop tears n down: the callback must see every prefix n announced, in
// order, with n already gone from the table.
func (c *checkedAdjIn) drop(t testing.TB, n topology.NodeID) {
	t.Helper()
	want := sortedKeys(c.model[n])
	delete(c.model, n)
	var got []Prefix
	c.adj.DropNeighborRange(n, func(p Prefix) bool {
		if _, ok := c.adj.Get(n, p); ok {
			t.Fatalf("DropNeighborRange(%d) still holds prefix %d in its callback", n, p)
		}
		got = append(got, p)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("DropNeighborRange(%d) visited %v, model %v", n, got, want)
	}
}

func (c *checkedAdjIn) cloneOn(attrs *AttrTable) *checkedAdjIn {
	m := make(map[topology.NodeID]map[Prefix]uint32, len(c.model))
	for n, ps := range c.model {
		m[n] = maps.Clone(ps)
	}
	return &checkedAdjIn{adj: c.adj.CloneOn(attrs), attrs: attrs, handles: c.handles, model: m}
}

// check compares everything observable: Size, the prefix union, every
// prefix's candidates in neighbor order, and Get of every model entry and
// of neighbors the model does not hold.
func (c *checkedAdjIn) check(t testing.TB) {
	t.Helper()
	size, union := 0, map[Prefix]bool{}
	for _, ps := range c.model {
		size += len(ps)
		for p := range ps {
			union[p] = true
		}
	}
	if c.adj.Size() != size {
		t.Fatalf("Size = %d, model has %d", c.adj.Size(), size)
	}
	var prefixes []Prefix
	c.adj.RangePrefixes(func(p Prefix) bool {
		prefixes = append(prefixes, p)
		return true
	})
	if want := sortedKeys(union); !slices.Equal(prefixes, want) {
		t.Fatalf("RangePrefixes = %v, model %v", prefixes, want)
	}
	nbrs := sortedKeys(c.model)
	for _, p := range prefixes {
		var got, want [][2]uint32
		c.adj.RangeHandles(p, func(n topology.NodeID, h uint32) bool {
			got = append(got, [2]uint32{uint32(n), h})
			return true
		})
		for _, n := range nbrs {
			if h, ok := c.model[n][p]; ok {
				want = append(want, [2]uint32{uint32(n), h})
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("RangeHandles(%d) = %v, model %v", p, got, want)
		}
	}
	for n, ps := range c.model {
		for p, h := range ps {
			got, ok := c.adj.Get(n, p)
			if !ok {
				t.Fatalf("Get(%d, %d) found nothing; model has handle %d", n, p, h)
			}
			want := *c.attrs.At(h)
			want.Prefix = p
			checkRoute(t, fmt.Sprintf("Get(%d, %d)", n, p), got, want)
		}
	}
	for n := topology.NodeID(-1); n <= adjInNeighbors; n++ {
		if _, held := c.model[n]; !held {
			if _, ok := c.adj.Get(n, 0); ok {
				t.Fatalf("Get(%d, 0) found a route of a neighbor the model does not hold", n)
			}
		}
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// adjInNeighbors bounds the neighbor IDs runAdjInOps writes, so neighbors
// recur, and are added and dropped, on both sides of clones.
const adjInNeighbors = 6

// runAdjInOps interprets data as three-byte operations — SetHandle,
// Withdraw, DropNeighborRange, CloneOn onto a fork, switch table — over a
// few Adj-RIB-Ins, checking the touched ones against their models after
// every step and all of them at the end.
func runAdjInOps(t testing.TB, data []byte) {
	const maxTables = 6
	tables := []*checkedAdjIn{newCheckedAdjIn(NewAttrTable())}
	cur := tables[0]
	for ; len(data) >= 3; data = data[3:] {
		op, a, b := data[0], data[1], data[2]
		n, p := topology.NodeID(a%adjInNeighbors), ribOpKey(b, b>>2)
		switch op % 8 {
		case 0, 1, 2:
			cur.set(t, n, p, cur.handles[int(a>>3)%len(cur.handles)])
		case 3, 4:
			cur.withdraw(t, n, p)
		case 5:
			cur.drop(t, n)
		case 6: // clone; odd a continues on the clone
			c := cur.cloneOn(cur.attrs.Fork())
			if len(tables) < maxTables {
				tables = append(tables, c)
			} else {
				tables[int(b)%maxTables] = c
			}
			cur.check(t)
			if a%2 == 1 {
				cur = c
			}
		case 7:
			cur = tables[int(b)%len(tables)]
		}
		cur.check(t)
	}
	for _, c := range tables {
		c.check(t)
	}
}

// TestPrefixMap: the zero value is an empty map that allocates nothing until
// its first Set, walks are ascending, and a clone is independent in both
// directions.
func TestPrefixMap(t *testing.T) {
	var empty PrefixMap[int]
	allocs := testing.AllocsPerRun(10, func() {
		empty.Get(3)
		empty.Delete(3)
		empty.Range(func(Prefix, int) bool { return true })
		c := empty.Clone()
		c.Get(3)
	})
	if allocs != 0 || empty.Len() != 0 {
		t.Fatalf("empty map: %v allocs per run, Len %d", allocs, empty.Len())
	}

	entries := func(m *PrefixMap[int]) [][2]int {
		var out [][2]int
		m.Range(func(p Prefix, v int) bool {
			out = append(out, [2]int{int(p), v})
			return true
		})
		return out
	}
	var m PrefixMap[int]
	for _, p := range []Prefix{70_000, 5, 64, 0} {
		m.Set(p, int(p)+1)
	}
	m.Set(5, 50)
	if got, ok := m.Get(5); !ok || got != 50 {
		t.Fatalf("Get(5) = %d, %v", got, ok)
	}
	want := [][2]int{{0, 1}, {5, 50}, {64, 65}, {70_000, 70_001}}
	if got := entries(&m); !reflect.DeepEqual(got, want) || m.Len() != 4 {
		t.Fatalf("Range = %v (Len %d), want %v", got, m.Len(), want)
	}

	c := m.Clone()
	c.Delete(64)
	m.Set(5, 51)
	m.Set(7, 8)
	if got := entries(&c); !reflect.DeepEqual(got, [][2]int{{0, 1}, {5, 50}, {70_000, 70_001}}) {
		t.Fatalf("clone after writes on both sides = %v", got)
	}
	if got := entries(&m); !reflect.DeepEqual(got, [][2]int{{0, 1}, {5, 51}, {7, 8}, {64, 65}, {70_000, 70_001}}) {
		t.Fatalf("original after writes on both sides = %v", got)
	}
	if !m.Delete(64) || m.Delete(64) {
		t.Fatal("Delete does not report presence")
	}
}

// TestSetDoesNotAliasCallerSlices: a table owns the slices of the routes it
// stores, so a caller that builds routes in one buffer and reuses it after
// Set rewrites no stored route, nor the record every prefix with those
// attributes shares.
func TestSetDoesNotAliasCallerSlices(t *testing.T) {
	r := NewRIB()
	path, clusters := []topology.NodeID{1, 2}, []topology.NodeID{7}
	rt := Route{Egress: 1, External: 100, Path: path, ClusterList: clusters, LocalPref: DefaultLocalPref}
	for _, p := range []Prefix{3, 4} {
		rt.Prefix = p
		r.Set(rt)
	}
	path[1], clusters[0] = 9, 9
	for _, p := range []Prefix{3, 4} {
		got, ok := r.Get(p)
		if !ok || !slices.Equal(got.Path, []topology.NodeID{1, 2}) || !slices.Equal(got.ClusterList, []topology.NodeID{7}) {
			t.Errorf("Get(%d) = %+v after the caller reused its buffers, want Path [1 2] ClusterList [7]", p, got)
		}
	}
}
