package monitor

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/fwd"
	"chameleon/internal/obs"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

// noDrop fails whenever any node drops, blaming the dropping nodes.
func noDrop() Invariant {
	return Invariant{
		Name: "no-drop",
		Check: func(s fwd.State) (bool, []topology.NodeID) {
			var bad []topology.NodeID
			for n, nh := range s {
				if nh == fwd.Drop {
					bad = append(bad, topology.NodeID(n))
				}
			}
			return len(bad) == 0, bad
		},
	}
}

func TestObserveOpenExtendClose(t *testing.T) {
	const pfx = bgp.Prefix(1)
	m := New(Config{Name: "t", Invariants: []Invariant{noDrop()}})
	net := sim.New(topology.New("t"), sim.Options{})
	m.Bind(net)
	net.SetPhaseLabel("setup")
	m.Observe(0, pfx, fwd.State{fwd.External, fwd.External})
	net.SetPhaseLabel("round 1")
	m.Observe(1*time.Second, pfx, fwd.State{fwd.Drop, fwd.External}) // opens
	m.Observe(2*time.Second, pfx, fwd.State{fwd.Drop, fwd.Drop})     // extends + widens
	m.Observe(3*time.Second, pfx, fwd.State{fwd.External, fwd.External})
	net.SetPhaseLabel("cleanup")
	m.Observe(4*time.Second, pfx, fwd.State{fwd.External, fwd.Drop}) // opens, never recovers
	if got := m.ViolationCount(); got != 2 {
		t.Errorf("ViolationCount = %d, want 2", got)
	}
	tl := m.Finish(5 * time.Second)
	if len(tl.Violations) != 2 {
		t.Fatalf("got %d violations, want 2: %+v", len(tl.Violations), tl.Violations)
	}
	v := tl.Violations[0]
	if v.Start != 1*time.Second || v.End != 3*time.Second || v.Open {
		t.Errorf("first violation = [%v, %v) open=%v, want [1s, 3s) closed", v.Start, v.End, v.Open)
	}
	if v.Phase != "round 1" || v.StartTick != 2 {
		t.Errorf("first violation phase=%q tick=%d, want round 1 / 2", v.Phase, v.StartTick)
	}
	if want := []topology.NodeID{0, 1}; len(v.Nodes) != 2 || v.Nodes[0] != want[0] || v.Nodes[1] != want[1] {
		t.Errorf("blast radius = %v, want %v (union over the interval)", v.Nodes, want)
	}
	u := tl.Violations[1]
	if u.Start != 4*time.Second || u.End != 5*time.Second || !u.Open {
		t.Errorf("second violation = [%v, %v) open=%v, want [4s, 5s) open", u.Start, u.End, u.Open)
	}
	if u.Phase != "cleanup" {
		t.Errorf("second violation phase = %q, want cleanup", u.Phase)
	}
	if tl.StatesChecked != 5 || tl.End != 5*time.Second {
		t.Errorf("summary = %d states / end %v, want 5 / 5s", tl.StatesChecked, tl.End)
	}
	if got := tl.TotalViolation(); got != 3*time.Second {
		t.Errorf("TotalViolation = %v, want 3s", got)
	}
	// Finish is idempotent.
	if tl2 := m.Finish(99 * time.Second); len(tl2.Violations) != 2 || tl2.End != 5*time.Second {
		t.Error("second Finish must be a no-op")
	}
}

// TestViolationPhaseIsOnsetLabel pins where a violation's phase comes from:
// the label the bound network carries at the snapshot that opens it, kept
// however the label changes while the violation stays open, and "" once
// the monitor is unbound.
func TestViolationPhaseIsOnsetLabel(t *testing.T) {
	const pfx = bgp.Prefix(1)
	ok, drop := fwd.State{fwd.External}, fwd.State{fwd.Drop}
	m := New(Config{Name: "t", Invariants: []Invariant{noDrop()}})
	net := sim.New(topology.New("t"), sim.Options{})
	unbind := m.Bind(net)
	net.SetPhaseLabel("round 1")
	m.Observe(1*time.Second, pfx, drop) // opens under round 1
	net.SetPhaseLabel("round 2")
	m.Observe(2*time.Second, pfx, drop) // stays open across the change
	m.Observe(3*time.Second, pfx, ok)
	m.Observe(4*time.Second, pfx, drop) // opens under round 2
	m.Observe(5*time.Second, pfx, ok)
	net.SetPhaseLabel("")
	m.Observe(6*time.Second, pfx, drop) // opens outside any phase
	net.SetPhaseLabel("cleanup")
	m.Observe(7*time.Second, pfx, ok)
	unbind()
	m.Observe(8*time.Second, pfx, drop) // unbound: the label is not read
	tl := m.Finish(9 * time.Second)
	var got []string
	for _, v := range tl.Violations {
		got = append(got, v.Phase)
	}
	if want := []string{"round 1", "round 2", "", ""}; !slices.Equal(got, want) {
		t.Errorf("violation phases = %q, want %q", got, want)
	}
}

func TestObservePerPrefixIndependence(t *testing.T) {
	m := New(Config{Name: "t", Invariants: []Invariant{noDrop()}})
	m.Observe(0, 1, fwd.State{fwd.Drop})
	m.Observe(0, 2, fwd.State{fwd.External})
	m.Observe(1*time.Second, 1, fwd.State{fwd.External}) // closes prefix 1
	m.Observe(2*time.Second, 2, fwd.State{fwd.Drop})     // opens prefix 2
	tl := m.Finish(3 * time.Second)
	if len(tl.Violations) != 2 {
		t.Fatalf("got %d violations, want 2 (one per prefix)", len(tl.Violations))
	}
	if tl.Violations[0].Prefix != 1 || tl.Violations[1].Prefix != 2 {
		t.Errorf("prefixes = %d, %d, want 1, 2", tl.Violations[0].Prefix, tl.Violations[1].Prefix)
	}
}

// TestAlarmOnAnyPrefix: the alarm names the first invariant, in invariant
// order, with a violation open on any prefix — one open only on a prefix
// other than the base prefix 0 included — and "" once every violation has
// closed.
func TestAlarmOnAnyPrefix(t *testing.T) {
	m := New(Config{Name: "t", Invariants: []Invariant{noDrop(), LoopFree()}})
	alarm := m.Alarm()
	ok, drop, loop := fwd.State{fwd.External, fwd.External}, fwd.State{fwd.Drop, fwd.External}, fwd.State{1, 0}
	steps := []struct {
		prefix bgp.Prefix
		st     fwd.State
		want   string
	}{
		{0, ok, ""},
		{1, ok, ""},
		{1, drop, "no-drop"}, // open on the non-base prefix only
		{0, loop, "no-drop"}, // invariant order, not prefix order
		{1, ok, "loop-free"}, // no-drop closed
		{0, ok, ""},          // everything closed
	}
	for i, st := range steps {
		m.Observe(time.Duration(i)*time.Second, st.prefix, st.st)
		if got := alarm(nil); got != st.want {
			t.Errorf("after snapshot %d (prefix %d): alarm %q, want %q", i, st.prefix, got, st.want)
		}
	}
}

func TestFinishFlushesCounters(t *testing.T) {
	rec := obs.New()
	m := New(Config{Name: "t", Invariants: []Invariant{noDrop()}, Recorder: rec})
	m.Observe(0, 1, fwd.State{fwd.Drop})
	m.Observe(1*time.Second, 1, fwd.State{fwd.External})
	m.Finish(2 * time.Second)
	if got := rec.Counter(obs.CtrMonitorStatesChecked); got != 2 {
		t.Errorf("%s = %d, want 2", obs.CtrMonitorStatesChecked, got)
	}
	if got := rec.Counter(obs.CtrMonitorViolations); got != 1 {
		t.Errorf("%s = %d, want 1", obs.CtrMonitorViolations, got)
	}
	if got := rec.Counter(obs.CtrMonitorViolationTime); got != int64(time.Second) {
		t.Errorf("%s = %d, want 1s", obs.CtrMonitorViolationTime, got)
	}
	if got := rec.Counter("monitor_violations_no-drop"); got != 1 {
		t.Errorf("per-invariant counter = %d, want 1", got)
	}
}

func TestTrackAfterObservePanics(t *testing.T) {
	m := New(Config{Name: "t"})
	m.Observe(0, 1, fwd.State{fwd.External})
	defer func() {
		if recover() == nil {
			t.Error("Track after Observe must panic")
		}
	}()
	m.Track(noDrop())
}

func TestTotalViolationUnion(t *testing.T) {
	tl := &Timeline{Violations: []Violation{
		{Invariant: "a", Start: 1 * time.Second, End: 3 * time.Second},
		{Invariant: "b", Start: 2 * time.Second, End: 4 * time.Second},
		{Invariant: "a", Start: 10 * time.Second, End: 11 * time.Second},
		{Invariant: "b", Start: 10 * time.Second, End: 10 * time.Second}, // empty
	}}
	if got := tl.TotalViolation(); got != 4*time.Second {
		t.Errorf("TotalViolation = %v, want 4s (union of [1,4) and [10,11))", got)
	}
	if got := tl.ByInvariant("a"); got != 3*time.Second {
		t.Errorf("ByInvariant(a) = %v, want 3s", got)
	}
	if got := tl.ByInvariant("missing"); got != 0 {
		t.Errorf("ByInvariant(missing) = %v, want 0", got)
	}
}

func TestBindObservesSnapshots(t *testing.T) {
	s := scenario.RunningExample()
	m := New(Config{Name: "bind", Invariants: []Invariant{noDrop()}})
	unbind := m.Bind(s.Net)
	s.Net.RecordInitialState(s.Prefix)
	unbind()
	s.Net.RecordInitialState(s.Prefix) // hook detached: not observed
	tl := m.Finish(s.Net.Now())
	if tl.StatesChecked != 1 {
		t.Errorf("StatesChecked = %d, want 1 (one snapshot while bound)", tl.StatesChecked)
	}
}

func TestWriteJSONLByteIdenticalAndValid(t *testing.T) {
	tl := &Timeline{
		Name:          "run",
		StatesChecked: 7,
		End:           5 * time.Second,
		Violations: []Violation{
			{Invariant: "reach", Prefix: 1, Start: 1 * time.Second, End: 2 * time.Second,
				StartTick: 3, Phase: "round 1", Nodes: []topology.NodeID{0, 2},
				Cause: RootCause{Kind: "command", Label: "withdraw old route",
					Node: 4, Phase: "round 1", Seq: 2, Hops: 3, Latency: 250 * time.Millisecond}},
			{Invariant: "loop-free", Prefix: 1, Start: 4 * time.Second, End: 5 * time.Second,
				StartTick: 6, Phase: "cleanup", Nodes: []topology.NodeID{1}, Open: true,
				Cause: RootCause{Kind: "init"}},
		},
	}
	var a, b bytes.Buffer
	if err := tl.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteJSONL must be byte-identical across calls")
	}
	recs, err := ValidateJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("emitted timeline does not validate: %v", err)
	}
	if len(recs) != 3 {
		t.Errorf("got %d records, want 3 (summary + 2 violations)", len(recs))
	}
	if recs[0].Type != "timeline" || recs[0].Violations == nil || *recs[0].Violations != 2 {
		t.Errorf("summary record malformed: %+v", recs[0])
	}
	// Two timelines may share one stream.
	tl2 := &Timeline{Name: "other"}
	if err := tl2.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateJSONL(bytes.NewReader(a.Bytes())); err != nil {
		t.Errorf("two-timeline stream does not validate: %v", err)
	}
}

func TestValidateJSONLRejectsMalformed(t *testing.T) {
	valid := func() string {
		tl := &Timeline{Name: "run", Violations: []Violation{
			{Invariant: "reach", Start: time.Second, End: 2 * time.Second, Nodes: []topology.NodeID{0, 1},
				Cause: RootCause{Kind: "command", Label: "push route-map", Seq: 1}},
		}}
		var b bytes.Buffer
		if err := tl.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}()
	cases := map[string]string{
		"not json":             "nope\n",
		"unknown type":         `{"type":"span","name":"x"}` + "\n",
		"summary without name": `{"type":"timeline","violations":0,"violation_ns":0}` + "\n",
		"violation first":      strings.Join([]string{line(valid, 1), line(valid, 0)}, "\n") + "\n",
		"duplicate timeline":   valid + valid,
		"missing violation":    line(valid, 0) + "\n",
		"bad seq":              strings.Replace(valid, `"seq":1`, `"seq":7`, 1),
		"bad duration":         strings.Replace(valid, `"duration_ns":1000000000`, `"duration_ns":5`, 1),
		"unsorted nodes":       strings.Replace(valid, `"nodes":[0,1]`, `"nodes":[1,0]`, 1),
		"missing cause kind":   strings.Replace(valid, `"cause_kind":"command",`, ``, 1),
		"unknown cause kind":   strings.Replace(valid, `"cause_kind":"command"`, `"cause_kind":"ghost"`, 1),
		"rooted without label": strings.Replace(valid, `"cause":"push route-map",`, ``, 1),
		"negative blame":       strings.Replace(valid, `"blame_ns":0`, `"blame_ns":-7`, 1),
	}
	for name, in := range cases {
		if _, err := ValidateJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validated, want error", name)
		}
	}
	if _, err := ValidateJSONL(strings.NewReader(valid)); err != nil {
		t.Errorf("control: valid input rejected: %v", err)
	}
}

// line returns the i-th line of a newline-joined string.
func line(s string, i int) string { return strings.Split(strings.TrimSpace(s), "\n")[i] }

// chainCase builds n routers forwarding 0 → 1 → … → n-1 → d (the longest
// paths a clean state of that size can have) and a monitor tracking the
// default invariants plus a spec with a reach and a waypoint atom per node.
func chainCase(n int) (*Monitor, fwd.State) {
	g := topology.New("chain")
	st := fwd.NewState(n)
	b := spec.NewBuilder()
	var atoms []*spec.Expr
	for i := 0; i < n; i++ {
		id := g.AddRouter("r" + strconv.Itoa(i))
		st[id] = id + 1
		atoms = append(atoms, b.Reach(id), b.Wp(id, topology.NodeID(n-1)))
	}
	st[n-1] = fwd.External
	m := New(Config{Name: "chain", Invariants: []Invariant{ReachAll(g), LoopFree()}})
	m.Track(FromSpec("spec", spec.NewSpec(b, b.Globally(b.And(atoms...)))))
	return m, st
}

// TestObserveAllocsIndependentOfNodeCount: checking one clean snapshot costs
// two allocations (the loop classifier's colors and the spec's value
// table), not one map and one path per node per invariant.
func TestObserveAllocsIndependentOfNodeCount(t *testing.T) {
	var perSize []float64
	for _, n := range []int{19, 152} { // Aarnet's size, and 8× that
		m, st := chainCase(n)
		perSize = append(perSize, testing.AllocsPerRun(20, func() {
			m.ObserveProvenance(time.Second, 0, st, sim.Provenance{})
		}))
		if tl := m.Finish(time.Second); len(tl.Violations) != 0 {
			t.Fatalf("n=%d: the clean chain violates %+v", n, tl.Violations)
		}
	}
	if perSize[0] != perSize[1] || perSize[0] > 2 {
		t.Errorf("allocations per clean snapshot: %v at 19 nodes, %v at 152; want equal and at most 2",
			perSize[0], perSize[1])
	}
}

// TestObserveChangedStateAllocs: a snapshot that changes its prefix's
// state is checked by every invariant, at the same two allocations as the
// first one, whatever the node count. Two clean chains alternate: the
// second sends router 0 straight to router 2.
func TestObserveChangedStateAllocs(t *testing.T) {
	var perSize []float64
	for _, n := range []int{19, 152} {
		m, st := chainCase(n)
		other := st.Clone()
		other[0] = 2
		perSize = append(perSize, testing.AllocsPerRun(20, func() {
			m.ObserveProvenance(time.Second, 0, st, sim.Provenance{})
			m.ObserveProvenance(time.Second, 0, other, sim.Provenance{})
		}))
		if tl := m.Finish(time.Second); len(tl.Violations) != 0 {
			t.Fatalf("n=%d: the clean chains violate %+v", n, tl.Violations)
		}
	}
	if perSize[0] != perSize[1] || perSize[0] > 4 {
		t.Errorf("allocations per two changed snapshots: %v at 19 nodes, %v at 152; want equal and at most 4",
			perSize[0], perSize[1])
	}
}

func BenchmarkObserveSnapshot(b *testing.B) {
	m, st := chainCase(19)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ObserveProvenance(time.Duration(i), 0, st, sim.Provenance{})
	}
}

func TestMergeNodes(t *testing.T) {
	ids := func(ns ...topology.NodeID) []topology.NodeID { return ns }
	cases := []struct{ a, b, want []topology.NodeID }{
		{nil, nil, nil},
		{nil, ids(1, 2), ids(1, 2)},
		{ids(1, 2), nil, ids(1, 2)},
		{ids(1, 2, 3), ids(1, 2, 3), ids(1, 2, 3)},
		{ids(1, 3), ids(2, 4), ids(1, 2, 3, 4)},
		{ids(30), ids(1, 2, 3, 4, 30), ids(1, 2, 3, 4, 30)},
		{ids(0, 5), ids(1, 5, 9), ids(0, 1, 5, 9)},
	}
	for _, c := range cases {
		a := slices.Clone(c.a)
		if got := mergeNodes(a, c.b); !slices.Equal(got, c.want) {
			t.Errorf("mergeNodes(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestRepeatedStateSkipsOwnInvariants: an invariant built by this
// package is checked when its prefix's state changes and not on a repeat,
// which still counts as a checked state and still extends the open
// violation; an Invariant literal is checked on every snapshot.
func TestRepeatedStateSkipsOwnInvariants(t *testing.T) {
	const pfx = bgp.Prefix(1)
	calls := map[string]int{}
	counted := func(inv Invariant) Invariant {
		check := inv.Check
		inv.Check = func(s fwd.State) (bool, []topology.NodeID) {
			calls[inv.Name]++
			return check(s)
		}
		return inv
	}
	m := New(Config{Name: "t", Invariants: []Invariant{counted(LoopFree()), counted(noDrop())}})
	loop := fwd.State{1, 0, fwd.Drop}
	m.Observe(0, pfx, fwd.State{fwd.External, fwd.External, fwd.External})
	m.Observe(1*time.Second, pfx, loop)
	m.Observe(2*time.Second, pfx, slices.Clone(loop))
	m.Observe(3*time.Second, pfx, loop)
	if calls["loop-free"] != 2 || calls["no-drop"] != 4 {
		t.Errorf("checks = %v, want loop-free 2 (changes only) and no-drop 4 (every snapshot)", calls)
	}
	open := m.OpenViolations()
	if len(open) != 2 || open[0].End != 3*time.Second || open[1].End != 3*time.Second {
		t.Errorf("open violations %+v, want loop-free and no-drop, both extended to 3s", open)
	}
	if tl := m.Finish(4 * time.Second); tl.StatesChecked != 4 {
		t.Errorf("StatesChecked = %d, want 4: a repeat is still a checked state", tl.StatesChecked)
	}
}

func TestValidateJSONLRejectsRepeatedNodes(t *testing.T) {
	tl := &Timeline{Name: "run", Violations: []Violation{
		{Invariant: "reach", Start: time.Second, End: 2 * time.Second, Nodes: []topology.NodeID{4, 30, 30},
			Cause: RootCause{Kind: "init"}},
	}}
	var b bytes.Buffer
	if err := tl.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateJSONL(&b); err == nil {
		t.Error("a blast radius repeating node 30 validated, want error")
	}
}
