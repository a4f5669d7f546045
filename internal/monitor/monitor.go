// Package monitor implements the online transient-state monitor: it
// subscribes to the simulator's per-prefix forwarding-state snapshots and
// checks every transient state against the forwarding invariants the plan
// promised to preserve (reach / waypoint / loop-freedom, §3). Where the
// analyzer proves invariants at planning time and the chaos harness checks
// traces after the fact, the monitor closes the loop at execution time:
// each snapshot becomes a checked, timestamped fact, violations become
// timeline intervals with onset, duration, blast radius and per-round
// attribution, and an open violation is the executor's alarm (§8's
// runtime-monitoring posture). It only observes: it never decides when a
// phase ends.
//
// Determinism contract: the monitor is driven synchronously from the
// simulator's event loop (snapshots arrive in event order, prefixes sorted
// within an event), invariants are checked in configuration order, and no
// wall-clock time is ever recorded — a timeline is a pure function of the
// scenario seed, so re-runs and worker-count changes reproduce it
// byte-identically.
package monitor

import (
	"slices"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/fwd"
	"chameleon/internal/obs"
	"chameleon/internal/sim"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

// Invariant is one online-checkable forwarding property. Check returns
// whether the state satisfies it and, when it does not, the affected
// routers (the blast radius), in strictly ascending node-ID order.
//
// An Invariant literal is checked on every snapshot, so its Check may keep
// state of its own. The constructors of this package build checks that are
// functions of the state alone; the monitor does not re-check those on a
// snapshot equal to the previous state of its prefix, since the verdict
// cannot differ.
type Invariant struct {
	Name  string
	Check func(fwd.State) (ok bool, affected []topology.NodeID)

	ofState bool // Check is a function of the state; set by the constructors
}

// ReachAll is the reachability invariant ∧_n reach(n) over the internal
// nodes of g: every router forwards traffic to the external destination.
func ReachAll(g *topology.Graph) Invariant {
	nodes := slices.Clone(g.Internal())
	slices.Sort(nodes)
	return Invariant{
		Name:    "reach",
		ofState: true,
		Check: func(s fwd.State) (bool, []topology.NodeID) {
			var bad []topology.NodeID
			for _, n := range nodes {
				if !s.Reach(n) {
					bad = append(bad, n)
				}
			}
			return len(bad) == 0, bad
		},
	}
}

// LoopFree is the loop-freedom invariant: no router's forwarding path
// enters a cycle. The blast radius is every node whose traffic loops.
func LoopFree() Invariant {
	return Invariant{
		Name:    "loop-free",
		ofState: true,
		Check: func(s fwd.State) (bool, []topology.NodeID) {
			nodes := s.LoopNodes()
			return len(nodes) == 0, nodes
		},
	}
}

// WaypointEither is the transient projection of the Eq. 4 waypoint
// specification wp(n, e1) U G wp(n, en): every source that reaches the
// destination must traverse its old or its new egress — never a third
// exit. pairs maps each constrained source to its (old, new) egress pair;
// sources that drop are not blamed here (that is ReachAll's job), avoiding
// double-counted blast radii.
func WaypointEither(pairs map[topology.NodeID][2]topology.NodeID) Invariant {
	srcs := make([]topology.NodeID, 0, len(pairs))
	for n := range pairs {
		srcs = append(srcs, n)
	}
	slices.Sort(srcs)
	return Invariant{
		Name:    "waypoint",
		ofState: true,
		Check: func(s fwd.State) (bool, []topology.NodeID) {
			var bad []topology.NodeID
			for _, n := range srcs {
				if !s.Reach(n) {
					continue
				}
				p := pairs[n]
				if !s.Waypoint(n, p[0]) && !s.Waypoint(n, p[1]) {
					bad = append(bad, n)
				}
			}
			return len(bad) == 0, bad
		},
	}
}

// FromSpec wraps a compiled specification as an invariant using its
// steady-state projection (spec.EvalState): the propositional content of
// the spec is checked against each transient state, and the blast radius
// is the source nodes of its failing atoms.
func FromSpec(name string, sp *spec.Spec) Invariant {
	return Invariant{
		Name:    name,
		ofState: true,
		Check: func(s fwd.State) (bool, []topology.NodeID) {
			if sp.EvalState(s) {
				return true, nil
			}
			var bad []topology.NodeID
			for _, e := range sp.FailingAtoms(s) {
				bad = append(bad, e.Node)
			}
			slices.Sort(bad)
			return false, slices.Compact(bad)
		},
	}
}

// Config configures a Monitor.
type Config struct {
	// Name labels the monitored run in exported timelines (e.g.
	// "chameleon", "snowcap").
	Name string
	// Invariants are checked against every snapshot, in order.
	Invariants []Invariant
	// Recorder, when set, receives the monitor counters at Finish:
	// monitor_states_checked, monitor_violations, monitor_violation_time_ns
	// and one monitor_violations_<invariant> counter per violated
	// invariant. Each violation's duration, blame latency and hop depth
	// are in the timeline, not the recorder. Nil disables recording.
	Recorder *obs.Recorder
}

// Monitor checks forwarding snapshots online and accumulates a violation
// timeline. It is driven from the simulator's event loop and is not safe
// for concurrent use.
type Monitor struct {
	cfg  Config
	net  *sim.Network // bound network, whose phase label violations open under
	tick uint64

	statesChecked int
	lastSeen      map[bgp.Prefix]fwd.State
	now           time.Duration

	open     []*Violation // one per currently-violated (invariant, prefix)
	openInv  []int        // parallel: invariant index of open[i]
	timeline Timeline
	finished bool
}

// New returns a monitor for the given configuration.
func New(cfg Config) *Monitor {
	return &Monitor{
		cfg:      cfg,
		lastSeen: make(map[bgp.Prefix]fwd.State),
		timeline: Timeline{Name: cfg.Name},
	}
}

// Track appends an invariant to the monitored set. It must be called
// before the first snapshot is observed (e.g. at plan time, to track the
// compiled specification alongside the structural invariants).
func (m *Monitor) Track(inv Invariant) {
	if m.statesChecked > 0 {
		panic("monitor: Track after observation started")
	}
	m.cfg.Invariants = append(m.cfg.Invariants, inv)
}

// ObserveProvenance checks one forwarding-state snapshot, attributing any
// violation it opens to the snapshot's causal root and to the bound
// network's current phase. Its signature matches sim.SnapshotHook, so it
// can be installed directly (Bind does). The monitor retains st as the
// prefix's last state: the caller must not write to it afterwards.
//
// A snapshot equal to the prefix's previous state is still counted, and
// still extends every violation open for the prefix, but invariants built
// by this package's constructors are not re-checked on it: they judged
// that state already, and an open violation's blast radius is the union of
// verdicts it already holds.
func (m *Monitor) ObserveProvenance(at time.Duration, prefix bgp.Prefix, st fwd.State, prov sim.Provenance) {
	m.tick++
	m.statesChecked++
	m.now = at
	prev, seen := m.lastSeen[prefix]
	repeat := seen && st.Equal(prev)
	if !repeat {
		m.lastSeen[prefix] = st
	}
	for idx, inv := range m.cfg.Invariants {
		if repeat && inv.ofState {
			if v := m.findOpen(idx, prefix); v != nil {
				v.End = at
			}
			continue
		}
		ok, affected := inv.Check(st)
		v := m.findOpen(idx, prefix)
		switch {
		case ok && v != nil:
			m.closeViolation(idx, prefix, at)
		case !ok && v == nil:
			nv := &Violation{
				Invariant: inv.Name,
				Prefix:    prefix,
				Start:     at,
				End:       at,
				StartTick: m.tick,
				Phase:     m.phase(),
				Nodes:     slices.Clone(affected),
				Cause:     rootCause(at, prov),
			}
			m.open = append(m.open, nv)
			m.openInv = append(m.openInv, idx)
		case !ok:
			// Still violated: extend and widen the blast radius.
			v.End = at
			v.Nodes = mergeNodes(v.Nodes, affected)
		}
	}
}

// phase is the execution phase a violation opening now is attributed to:
// the bound network's phase label, "" when the monitor is unbound.
func (m *Monitor) phase() string {
	if m.net == nil {
		return ""
	}
	return m.net.PhaseLabel()
}

// rootCause resolves a snapshot's provenance into the violation's
// root-cause record. Unrooted snapshots (initial convergence, direct API
// mutations) attribute to "init"; rooted ones carry the cause's identity
// and the blame latency from the cause's firing to the onset.
func rootCause(at time.Duration, prov sim.Provenance) RootCause {
	if !prov.Rooted() {
		return RootCause{Kind: sim.CauseNone.String(), Hops: prov.Hops}
	}
	rc := RootCause{
		Kind:  prov.Cause.Kind.String(),
		Label: prov.Cause.Label,
		Node:  prov.Cause.Node,
		Phase: prov.Cause.Phase,
		Seq:   prov.Cause.Seq,
		Hops:  prov.Hops,
	}
	if prov.Cause.At >= 0 && at > prov.Cause.At {
		rc.Latency = at - prov.Cause.At
	}
	return rc
}

// findOpen returns the open violation for (invariant idx, prefix), if any.
func (m *Monitor) findOpen(idx int, prefix bgp.Prefix) *Violation {
	for i, v := range m.open {
		if m.openInv[i] == idx && v.Prefix == prefix {
			return v
		}
	}
	return nil
}

// closeViolation moves the open violation for (idx, prefix) to the
// timeline with the given end time.
func (m *Monitor) closeViolation(idx int, prefix bgp.Prefix, end time.Duration) {
	for i, v := range m.open {
		if m.openInv[i] != idx || v.Prefix != prefix {
			continue
		}
		v.End = end
		m.timeline.Violations = append(m.timeline.Violations, *v)
		m.open = slices.Delete(m.open, i, i+1)
		m.openInv = slices.Delete(m.openInv, i, i+1)
		return
	}
}

// mergeNodes returns the sorted union of two strictly ascending node
// lists, reusing a's backing. Only a's original elements are searched: the
// appended tail is not sorted until the end.
func mergeNodes(a, b []topology.NodeID) []topology.NodeID {
	sorted := a
	for _, n := range b {
		if _, found := slices.BinarySearch(sorted, n); !found {
			a = append(a, n)
		}
	}
	slices.Sort(a)
	return a
}

// Alarm returns an alarm for runtime.Options.Monitor: it names the first
// tracked invariant, in invariant order, with a violation open on any
// prefix, "" while none is. Bound to the network, the monitor has judged
// every traced prefix's state at RecordInitialState and after every event
// that changed its routing, so the alarm answers for the current states
// without checking them again.
func (m *Monitor) Alarm() func(*sim.Network) string {
	return func(*sim.Network) string {
		for idx, inv := range m.cfg.Invariants {
			if slices.Contains(m.openInv, idx) {
				return inv.Name
			}
		}
		return ""
	}
}

// Bind installs the monitor's ObserveProvenance as net's snapshot hook and
// starts the monitor's clock at the network's current time. While bound,
// each violation the monitor opens is attributed to the phase net is
// labelled with at that snapshot (sim.Network.SetPhaseLabel, which the
// runtime executor sets per phase). It returns a detach function restoring
// the previous (nil) hook and unbinding the network; detach before
// observing states that should not count, e.g. an Abort's teardown churn.
func (m *Monitor) Bind(net *sim.Network) func() {
	m.now = net.Now()
	m.net = net
	net.SetSnapshotHook(m.ObserveProvenance)
	return func() {
		net.SetSnapshotHook(nil)
		m.net = nil
	}
}

// ViolationCount returns the number of violation intervals recorded so
// far, open ones included.
func (m *Monitor) ViolationCount() int {
	return len(m.timeline.Violations) + len(m.open)
}

// Finish closes any still-open violations at the given time (marking them
// unrecovered), flushes the monitor counters to the configured recorder,
// and returns the completed timeline. Further snapshots must not be
// observed after Finish.
func (m *Monitor) Finish(at time.Duration) *Timeline {
	if m.finished {
		return &m.timeline
	}
	m.finished = true
	if at < m.now {
		at = m.now
	}
	// Close in invariant order, then prefix order: deterministic.
	for idx := range m.cfg.Invariants {
		var prefixes []bgp.Prefix
		for i, v := range m.open {
			if m.openInv[i] == idx {
				prefixes = append(prefixes, v.Prefix)
			}
		}
		slices.Sort(prefixes)
		for _, p := range prefixes {
			v := m.findOpen(idx, p)
			v.Open = true
			m.closeViolation(idx, p, at)
		}
	}
	m.timeline.StatesChecked = m.statesChecked
	m.timeline.End = at
	if rec := m.cfg.Recorder; rec != nil {
		rec.Add(obs.CtrMonitorStatesChecked, int64(m.statesChecked))
		rec.Add(obs.CtrMonitorViolations, int64(len(m.timeline.Violations)))
		rec.Add(obs.CtrMonitorViolationTime, int64(m.timeline.TotalViolation()))
		for _, inv := range m.cfg.Invariants {
			n := int64(0)
			for _, v := range m.timeline.Violations {
				if v.Invariant == inv.Name {
					n++
				}
			}
			if n > 0 {
				rec.Add("monitor_violations_"+inv.Name, n)
			}
		}
	}
	return &m.timeline
}

// Timeline returns the timeline accumulated so far (closed violations
// only; call Finish to include open ones and the summary fields).
func (m *Monitor) Timeline() *Timeline { return &m.timeline }
