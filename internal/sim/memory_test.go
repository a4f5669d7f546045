package sim_test

import (
	"runtime"
	"testing"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/fwd"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
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
// once, into the trace, and the hook sees that stored copy.
func TestSnapshotAllocatesOnce(t *testing.T) {
	s := scenario.RunningExample()
	var seen fwd.State
	s.Net.SetSnapshotHook(func(_ time.Duration, _ bgp.Prefix, st fwd.State, _ sim.Provenance) { seen = st })
	allocs := testing.AllocsPerRun(100, func() { s.Net.RecordInitialState(s.Prefix) })
	if allocs != 1 {
		t.Errorf("%v allocations per snapshot with a hook installed, want 1", allocs)
	}
	tr := s.Net.Trace(s.Prefix)
	if last := tr.States[len(tr.States)-1]; &seen[0] != &last[0] || !seen.Equal(s.Net.ForwardingState(s.Prefix)) {
		t.Error("the hook did not see the trace's stored state")
	}
}
