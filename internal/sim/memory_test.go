package sim_test

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/fwd"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// TestQueueReleasesDeliveredEvents: once Run drains the queue, no slot of
// its backing array may still hold an event, or every delivered message
// payload stays reachable for the network's lifetime.
func TestQueueReleasesDeliveredEvents(t *testing.T) {
	s := abilene(t)
	for _, cmd := range s.Commands {
		cmd.Apply(s.Net)
	}
	if s.Net.Run() == 0 {
		t.Fatal("the commands caused no events")
	}
	if n := sim.QueueRetained(s.Net); n != 0 {
		t.Errorf("%d delivered events still referenced by the queue's backing array", n)
	}
}

// TestAttrTableBoundedUnderChurn: a flapping session re-announces the same
// attribute sets, so after the first cycle interning finds every one of
// them and the attribute table, which never frees a record, stops growing.
func TestAttrTableBoundedUnderChurn(t *testing.T) {
	s := abilene(t)
	a := s.Graph.Internal()[0]
	b := s.Net.Sessions(a)[0]
	kind, _ := s.Net.HasSession(a, b)
	flap := func() {
		s.Net.RemoveSession(a, b)
		s.Net.Run()
		s.Net.SetSession(a, b, kind)
		s.Net.Run()
	}
	flap()
	want := sim.AttrRecords(s.Net)
	for i := 1; i < 100; i++ {
		flap()
		if got := sim.AttrRecords(s.Net); got != want {
			t.Fatalf("cycle %d: %d attribute records, %d after the first cycle", i+1, got, want)
		}
	}
	t.Logf("%d attribute records for %d table entries", want, s.Net.TableEntries())
}

// TestStormRetainedBytesPerEntry: a converged 20k-prefix batched storm keeps
// a 4-byte handle per table entry and one attribute record per distinct
// attribute set, so what it retains after GC, divided by its Adj-RIB-In
// entries, stays far below one bgp.Route (112 B) per entry.
func TestStormRetainedBytesPerEntry(t *testing.T) {
	const limit = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st := storm(t, 20_000)
	runtime.GC()
	runtime.ReadMemStats(&after)
	entries := st.Net.TableEntries()
	perEntry := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(entries)
	runtime.KeepAlive(st)
	if perEntry > limit {
		t.Errorf("a converged storm retains %.0f B per Adj-RIB-In entry (%d entries), want at most %d", perEntry, entries, limit)
	}
	t.Logf("%.1f B per Adj-RIB-In entry over %d entries", perEntry, entries)
}

// TestSnapshotAllocatesOnce: a snapshot is filled into scratch and copied
// into the trace only when it differs from the trace's last state, so a
// changed state costs one allocation and a repeated one none: the trace
// stores the previous entry again, sharing its backing. Either way the hook
// sees the trace's stored state. An event that changes several traced
// prefixes orders them in scratch too, so it costs one allocation per
// changed state. Overwriting a trace's last entry with a different state
// makes the next snapshot a change.
func TestSnapshotAllocatesOnce(t *testing.T) {
	s := scenario.RunningExample()
	var seen fwd.State
	s.Net.SetSnapshotHook(func(_ time.Duration, _ bgp.Prefix, st fwd.State, _ sim.Provenance) { seen = st })
	s.Net.RecordInitialState(s.Prefix)
	tr := s.Net.Trace(s.Prefix)
	last := func() fwd.State { return tr.States[len(tr.States)-1] }
	other := fwd.NewState(len(last()))
	if other.Equal(last()) {
		t.Fatal("the running example drops everywhere: no state to change from")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		tr.States[len(tr.States)-1] = other
		s.Net.RecordInitialState(s.Prefix)
	}); allocs != 1 {
		t.Errorf("%v allocations per changed snapshot with a hook installed, want 1", allocs)
	}
	stored := last()
	if &seen[0] != &stored[0] || !seen.Equal(s.Net.ForwardingState(s.Prefix)) {
		t.Error("the hook did not see the trace's stored state")
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Net.RecordInitialState(s.Prefix) }); allocs != 0 {
		t.Errorf("%v allocations per repeated snapshot with a hook installed, want 0", allocs)
	}
	if repeat := last(); &repeat[0] != &stored[0] {
		t.Error("a repeated state did not share the previous entry's backing")
	}
	if &seen[0] != &stored[0] {
		t.Error("the hook did not see the trace's stored state of a repeat")
	}

	a3 := abilenePlus3(t)
	ps := a3.AllPrefixes()[:2]
	var order []bgp.Prefix
	a3.Net.SetSnapshotHook(func(_ time.Duration, p bgp.Prefix, _ fwd.State, _ sim.Provenance) { order = append(order, p) })
	sim.SnapshotChanged(a3.Net, ps[1], ps[0])
	if !slices.Equal(order, ps) {
		t.Fatalf("the hook saw %v, want ascending %v", order, ps)
	}
	a3.Net.SetSnapshotHook(func(time.Duration, bgp.Prefix, fwd.State, sim.Provenance) {})
	trs := []*fwd.Trace{a3.Net.Trace(ps[0]), a3.Net.Trace(ps[1])}
	drop := fwd.NewState(len(trs[0].States[0]))
	if allocs := testing.AllocsPerRun(100, func() {
		for _, tr := range trs {
			tr.States[len(tr.States)-1] = drop
		}
		sim.SnapshotChanged(a3.Net, ps[1], ps[0])
	}); allocs != 2 {
		t.Errorf("%v allocations per two-prefix event with a hook installed, want 2", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sim.SnapshotChanged(a3.Net, ps[1], ps[0]) }); allocs != 0 {
		t.Errorf("%v allocations per two-prefix event that changes nothing, want 0", allocs)
	}
}

// TestDeliveryInternsNothing: a delivered message stores the handles its
// sender interned. A 10k-route block, every route with attributes of its
// own, arrives at a router that exports nothing further (its one neighbor
// sent the routes): the delivery fills the Adj-RIB-In and the Loc-RIB
// without adding an attribute record or hashing a route.
func TestDeliveryInternsNothing(t *testing.T) {
	const n = 10_000
	g := topology.New("sink")
	r := g.AddRouter("r")
	ext := g.AddExternal("ext", 65001)
	g.AddLink(ext, r, 1)
	opts := sim.DefaultOptions(1)
	opts.TracePrefixes = []bgp.Prefix{}
	net := sim.New(g, opts)
	net.SetSession(r, ext, bgp.EBGP)
	anns := make([]sim.Announcement, n)
	for i := range anns {
		anns[i] = sim.Announcement{Prefix: bgp.Prefix(i), ASPathLen: 1, MED: uint32(i)}
	}
	net.InjectExternalRoutes(ext, anns)
	records, lookups := sim.AttrRecords(net), sim.AttrLookups(net)
	if records < n {
		t.Fatalf("the sender interned %d records for %d distinct attribute sets", records, n)
	}
	if got := net.Run(); got != 1 {
		t.Fatalf("the block took %d events, want its one delivery", got)
	}
	if got := net.TableEntries(); got != n {
		t.Fatalf("%d Adj-RIB-In entries after the delivery, want %d", got, n)
	}
	for _, p := range []bgp.Prefix{0, n / 2, n - 1} {
		if best, ok := net.Best(r, p); !ok || best.MED != uint32(p) {
			t.Fatalf("prefix %d: selected %+v %v, want the delivered route", p, best, ok)
		}
	}
	if got := sim.AttrRecords(net); got != records {
		t.Errorf("the delivery added %d attribute records", got-records)
	}
	if got := sim.AttrLookups(net); got != lookups {
		t.Errorf("the delivery hashed %d routes", got-lookups)
	}
}

// TestUntracedDecisionsMarkNothing: a decision marks its prefix for the
// snapshot the event ends with only if the prefix is traced. An ingress
// policy change outside the event loop re-selects every prefix of a storm
// at its border router; with tracing off (TracePrefixes empty) the dirty
// set stays empty. On the running example, which traces every prefix, the
// same change marks the one prefix it re-selects.
func TestUntracedDecisionsMarkNothing(t *testing.T) {
	const n = 2_000
	st := storm(t, n)
	st.Net.UpdateRouteMap(st.Border, st.Ext, sim.In, func(rm *sim.RouteMap) {
		rm.Add(sim.Entry{Order: 1, Action: sim.Action{SetWeight: sim.IntP(5)}})
	})
	if best, ok := st.Net.Best(st.Border, n-1); !ok || best.Weight != 5 {
		t.Fatalf("the border did not re-select through the new route map: %+v %v", best, ok)
	}
	if got := sim.DirtyPrefixes(st.Net); got != 0 {
		t.Errorf("untraced decisions marked %d prefixes", got)
	}

	s := scenario.RunningExample()
	s.Net.UpdateRouteMap(s.Graph.MustNode("n2"), s.Graph.MustNode("n1"), sim.In, func(rm *sim.RouteMap) {
		rm.Add(sim.Entry{Order: 1, Action: sim.Action{SetWeight: sim.IntP(5)}})
	})
	if got := sim.DirtyPrefixes(s.Net); got != 1 {
		t.Errorf("a traced re-selection marked %d prefixes, want 1", got)
	}
}
