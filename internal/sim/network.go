package sim

import (
	"math/rand/v2"
	"slices"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/fwd"
	"chameleon/internal/igp"
	"chameleon/internal/obs"
	"chameleon/internal/topology"
)

// Options configure a simulated network.
type Options struct {
	// Seed drives message jitter; the same seed yields the same execution.
	Seed uint64
	// Jitter is the maximum random extra delay added to each message,
	// exploring different BGP message interleavings. Zero disables jitter.
	Jitter time.Duration
	// TracePrefixes enables forwarding-trace recording for these prefixes
	// (nil records all). Pass an empty non-nil slice to disable tracing
	// entirely — prefix-scale scenarios must, or trace storage dominates
	// memory.
	TracePrefixes []bgp.Prefix
}

// The jitter-free message delay: baseDelay plus delayPerIGPUnit per unit of
// IGP distance between the session endpoints, emulating geographic
// distance. With DefaultOptions' 20 ms jitter these are wide-area RTTs in
// the range the paper's testbed emulated with its delay server (§6).
const (
	baseDelay       = 10 * time.Millisecond
	delayPerIGPUnit = 2 * time.Millisecond
)

// DefaultOptions returns the options used across the evaluation: 20 ms
// jitter on top of the delays above.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed, Jitter: 20 * time.Millisecond}
}

// Network is the live simulated network: topology + IGP + per-router BGP
// state + an event queue. It is not safe for concurrent use.
type Network struct {
	graph   *topology.Graph
	spf     *igp.SPF
	routers []*router
	opts    Options

	queue eventQueue
	seq   uint64
	now   time.Duration
	rng   *rand.Rand
	// inEvent is set while a scheduled function runs (see Step).
	inEvent      bool
	lastDelivery map[sessKey]time.Duration

	traces   map[bgp.Prefix]*fwd.Trace
	traceAll bool
	dirty    map[bgp.Prefix]causeMark

	// Causal provenance (see cause.go): the registry of roots, the cause
	// and hop depth of the event being processed, and the phase label new
	// causes are attributed to. None of it is inherited by Clone.
	causes   []Cause
	curCause CauseID
	curHops  int
	curPhase string

	// snapHook, when set, observes every forwarding-state snapshot the
	// moment it is appended to a trace (see SetSnapshotHook). Not
	// inherited by Clone. scratch is the state a snapshot is filled into
	// before the trace copies it, and snapOrder the sorted prefix list a
	// hook sees an event's snapshots in.
	snapHook  SnapshotHook
	scratch   fwd.State
	snapOrder []bgp.Prefix

	// tableEntries is the current network-wide Adj-RIB-In entry count over
	// internal routers, maintained incrementally at every table mutation;
	// maxTableEntries tracks the §7.3 metric: the maximum of tableEntries
	// over time.
	tableEntries    int
	maxTableEntries int

	// attrs holds the route attributes every table of the network, and
	// every message in flight, holds handles into; it is dropped wholesale
	// with the network.
	attrs *bgp.AttrTable

	// ebgpExports counts routes advertised to external peers, per prefix,
	// used to verify Chameleon never leaks transient routes (§3).
	ebgpExports map[bgp.Prefix]int

	msgCount uint64

	// cands and held are decide's candidate scratch: the routes and, per
	// route, 1 + the handle storing it unchanged or 0 (rangeIngress). The
	// Loc-RIB keeps a handle, so nothing retains them between calls.
	// affected is deliver's: the prefixes a message touched. bufs hold the
	// slices of the route originate or export builds before interning it.
	cands    []bgp.Route
	held     []uint32
	affected []bgp.Prefix
	bufs     routeBufs

	// faults, when set, decides the fate of every scheduled command and
	// delivered message (see fault.go). pendingCmds tracks in-flight
	// command tokens so an abort can cancel them deterministically.
	faults      FaultInjector
	pendingCmds []*CommandToken

	// rec, when set, receives the sim-layer counters (messages by type,
	// sessions opened/closed, commands scheduled/cancelled, faults
	// injected). obsSpan, when additionally set, attributes those counters
	// to the current execution phase — the runtime executor points it at
	// its per-round span. Neither is inherited by Clone.
	rec     *obs.Recorder
	obsSpan *obs.Span

	// run counts BeginRun calls: the index of the current run-scoped jitter
	// stream (0 = the constructor stream).
	run uint64
}

// New builds a network over g with all BGP state empty.
func New(g *topology.Graph, opts Options) *Network {
	n := newNetwork(g, igp.Compute(g), opts, bgp.NewAttrTable())
	for _, node := range g.Nodes() {
		n.routers = append(n.routers, newRouter(node.ID, node.External, n.attrs))
	}
	return n
}

// newNetwork is a network over an IGP and an attribute table the caller
// supplies, with no routers yet.
func newNetwork(g *topology.Graph, spf *igp.SPF, opts Options, attrs *bgp.AttrTable) *Network {
	n := &Network{
		graph:        g,
		spf:          spf,
		opts:         opts,
		rng:          rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xda3e39cb94b95bdb)),
		lastDelivery: make(map[sessKey]time.Duration),
		traces:       make(map[bgp.Prefix]*fwd.Trace),
		dirty:        make(map[bgp.Prefix]causeMark),
		ebgpExports:  make(map[bgp.Prefix]int),
		attrs:        attrs,
	}
	if opts.TracePrefixes == nil {
		n.traceAll = true
	} else {
		for _, p := range opts.TracePrefixes {
			n.traces[p] = &fwd.Trace{}
		}
	}
	return n
}

// BeginRun gives the next execution on this network exclusive ownership of
// the message-jitter RNG: run r (r ≥ 1) draws from a fresh PCG stream
// derived from (Options.Seed, r), so its jitter schedule is a pure function
// of the scenario seed and the run index — not of how many draws earlier
// runs on the same network consumed. Run 0 keeps the constructor stream,
// which also covers the scenario's initial bring-up convergence, so
// single-execution behavior (and every historical result) is unchanged.
// It returns the run index.
func (n *Network) BeginRun() uint64 {
	if n.run > 0 {
		s := DeriveSeed(n.opts.Seed, n.run)
		n.rng = rand.New(rand.NewPCG(s, s^0xda3e39cb94b95bdb))
	}
	n.run++
	return n.run - 1
}

// SetRecorder installs (or, with nil, removes) the observability recorder
// receiving the sim-layer counters.
func (n *Network) SetRecorder(rec *obs.Recorder) { n.rec = rec }

// SetObsSpan points the sim-layer counters at a span (nil reverts to
// recorder-level attribution). The executor sets it per phase so message
// and fault counts land on the round that caused them.
func (n *Network) SetObsSpan(sp *obs.Span) { n.obsSpan = sp }

// count attributes a sim-layer counter to the current phase span when one
// is set, else to the recorder. Both sinks are nil-safe, so uninstrumented
// networks pay only the two nil tests.
func (n *Network) count(name string, delta int64) {
	if n.obsSpan != nil {
		n.obsSpan.Add(name, delta)
		return
	}
	n.rec.Add(name, delta)
}

// Graph returns the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.graph }

// SPF returns the IGP state.
func (n *Network) SPF() *igp.SPF { return n.spf }

// Now returns the current simulated time.
func (n *Network) Now() time.Duration { return n.now }

// MessagesProcessed returns the number of BGP messages delivered so far.
func (n *Network) MessagesProcessed() uint64 { return n.msgCount }

// sessionDelay returns the jitter-free delay of a BGP message between a and
// b: the base delay plus the IGP distance scaled by delayPerIGPUnit.
func (n *Network) sessionDelay(a, b topology.NodeID) time.Duration {
	d := baseDelay
	if dist := n.spf.Dist(a, b); dist < igp.Infinity {
		d += time.Duration(dist * float64(delayPerIGPUnit))
	}
	return d
}

// --- Configuration -------------------------------------------------------

// SetSession establishes (or re-types) a BGP session between a and b;
// kindAtA is a's role towards b (the reverse role is implied). Existing
// best routes are advertised over the new session immediately.
func (n *Network) SetSession(a, b topology.NodeID, kindAtA bgp.SessionKind) {
	ra, rb := n.routers[a], n.routers[b]
	_, existed := ra.sessions[b]
	if !existed {
		n.count(obs.CtrSessionsOpened, 1)
	}
	ra.setSession(b, kindAtA)
	rb.setSession(a, reverseKind(kindAtA))
	if existed {
		// Role change: it alters not only what flows over this session but
		// also how routes *learned* over it may be re-exported (client vs
		// non-client reflection rules), so refresh both routers' exports
		// towards every neighbor.
		for _, node := range []topology.NodeID{a, b} {
			for _, nb := range n.routers[node].neighbors() {
				n.refreshExports(node, nb)
			}
		}
		return
	}
	n.advertiseAll(a, b)
	n.advertiseAll(b, a)
}

func reverseKind(k bgp.SessionKind) bgp.SessionKind {
	switch k {
	case bgp.IBGPClient:
		return bgp.IBGPUp
	case bgp.IBGPUp:
		return bgp.IBGPClient
	default:
		return k
	}
}

// RemoveSession tears the session between a and b down. Both ends drop the
// learned routes and re-run their decision process.
func (n *Network) RemoveSession(a, b topology.NodeID) {
	if _, ok := n.routers[a].sessions[b]; ok {
		n.count(obs.CtrSessionsClosed, 1)
	}
	n.teardownHalf(a, b)
	n.teardownHalf(b, a)
}

func (n *Network) teardownHalf(at, peer topology.NodeID) {
	r := n.routers[at]
	if _, ok := r.sessions[peer]; !ok {
		return
	}
	r.dropSession(peer)
	delete(r.adjOut, peer)
	before := r.adjIn.Size()
	r.adjIn.DropNeighborRange(peer, func(p bgp.Prefix) bool {
		n.runDecision(at, p)
		return true
	})
	if !r.external {
		n.tableEntries -= before - r.adjIn.Size()
	}
}

// HasSession reports whether a session between a and b exists and returns
// a's role.
func (n *Network) HasSession(a, b topology.NodeID) (bgp.SessionKind, bool) {
	k, ok := n.routers[a].sessions[b]
	return k, ok
}

// Sessions returns node a's neighbors, sorted. The slice is the caller's
// to keep.
func (n *Network) Sessions(a topology.NodeID) []topology.NodeID {
	return slices.Clone(n.routers[a].neighbors())
}

// RangeSessions calls fn with node a's neighbors in ascending order until fn
// returns false. Allocation-free, for checks polled after every event; fn
// must not add or remove a's sessions.
func (n *Network) RangeSessions(a topology.NodeID, fn func(topology.NodeID) bool) {
	for _, nb := range n.routers[a].neighbors() {
		if !fn(nb) {
			return
		}
	}
}

// UpdateRouteMap mutates the route map of node towards neighbor in the
// given direction and immediately re-evaluates affected BGP state.
func (n *Network) UpdateRouteMap(node, neighbor topology.NodeID, dir Direction, mutate func(*RouteMap)) {
	r := n.routers[node]
	mutate(r.ensureRouteMap(dir, neighbor))
	if dir == In {
		// runDecision never mutates the Adj-RIB-In, so ranging while
		// deciding is safe.
		r.adjIn.RangePrefixes(func(p bgp.Prefix) bool {
			n.runDecision(node, p)
			return true
		})
	} else {
		n.refreshExports(node, neighbor)
	}
}

// RouteMapOf exposes the current route map (may be nil) for inspection.
func (n *Network) RouteMapOf(node, neighbor topology.NodeID, dir Direction) *RouteMap {
	return n.routers[node].routeMap(dir, neighbor)
}

// FailLink fails the physical link between a and b and reconverges the IGP,
// then re-runs the BGP decision process everywhere (IGP distances feed the
// decision process) and refreshes forwarding traces.
func (n *Network) FailLink(a, b topology.NodeID) bool {
	if !n.spf.FailLink(a, b) {
		return false
	}
	n.igpChanged()
	return true
}

// RestoreLink restores a failed link and reconverges.
func (n *Network) RestoreLink(a, b topology.NodeID) bool {
	if !n.spf.RestoreLink(a, b) {
		return false
	}
	n.igpChanged()
	return true
}

func (n *Network) igpChanged() {
	n.spf.Recompute()
	for _, r := range n.routers {
		if r.external {
			continue
		}
		r.adjIn.RangePrefixes(func(p bgp.Prefix) bool {
			n.runDecision(r.id, p)
			return true
		})
		n.markAllDirtyFor(r.id)
	}
	n.snapshotDirty()
}

func (n *Network) markAllDirtyFor(node topology.NodeID) {
	n.routers[node].locRib.RangePrefixes(func(p bgp.Prefix) bool {
		n.markDirty(p)
		return true
	})
}

// markDirty records that p's routing changed in the current event, for the
// snapshot the event ends with. Only a traced prefix is marked: snapshotOne
// would drop the mark of any other.
func (n *Network) markDirty(p bgp.Prefix) {
	if n.traceAll || n.traces[p] != nil {
		n.dirty[p] = causeMark{n.curCause, n.curHops}
	}
}

// --- Event loop ----------------------------------------------------------

// Step processes the next queued event; it returns false if the queue is
// empty. It panics when entered from inside an event's callback: a drain
// there would apply every later event — commands due seconds ahead
// included — at the callback's time, with no supervision in between.
func (n *Network) Step() bool {
	if n.inEvent {
		panic("sim: Step entered from inside an event")
	}
	if len(n.queue) == 0 {
		return false
	}
	e := n.queue.pop()
	n.now = e.at
	n.curCause, n.curHops = e.cause, e.hops
	n.activateCause(e.cause)
	n.count(obs.CtrSimEvents, 1)
	if e.fn != nil {
		n.inEvent = true
		e.fn(n)
		n.inEvent = false
	} else if e.msg != nil {
		n.deliver(e.msg)
	}
	n.snapshotDirty()
	n.trackTableSize()
	n.curCause, n.curHops = 0, 0
	return true
}

// Run processes events until the queue is empty and returns the number of
// events processed. It panics after maxEvents as a divergence guard.
func (n *Network) Run() int {
	const maxEvents = 20_000_000
	count := 0
	for n.Step() {
		count++
		if count > maxEvents {
			panic("sim: event budget exceeded; network may be diverging")
		}
	}
	return count
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to t.
func (n *Network) RunUntil(t time.Duration) int {
	count := 0
	for len(n.queue) > 0 && n.queue[0].at <= t {
		n.Step()
		count++
	}
	if n.now < t {
		n.now = t
	}
	return count
}

// Pending returns the number of queued events.
func (n *Network) Pending() int { return len(n.queue) }

// NextEventAt returns the time of the earliest pending event, or false with
// an empty queue. Convergence gates use it to tell "churn still in flight"
// from "only far-future work remains": if nothing is scheduled inside the
// quiet window, the forwarding plane cannot change before it closes.
func (n *Network) NextEventAt() (time.Duration, bool) {
	if len(n.queue) == 0 {
		return 0, false
	}
	return n.queue[0].at, true
}

// Converged reports whether no BGP messages or scheduled functions remain.
func (n *Network) Converged() bool { return len(n.queue) == 0 }

// decide re-runs best-path selection at r for prefix, updates the Loc-RIB
// and the dirty set, and reports whether the selection changed. It never
// mutates the Adj-RIB-In, so callers may invoke it while ranging one. A
// selection ingress policy left unchanged goes into the Loc-RIB as the
// handle its Adj-RIB-In holds; only one policy or aggregation built is
// interned.
func (n *Network) decide(r *router, prefix bgp.Prefix) bool {
	cands, held := n.cands[:0], n.held[:0]
	r.rangeIngress(prefix, func(route bgp.Route, h uint32) bool {
		cands, held = append(cands, route), append(held, h)
		return true
	})
	if agg, ok := r.aggregateRoute(prefix); ok {
		cands, held = append(cands, agg), append(held, 0)
	}
	n.cands, n.held = cands, held
	cmp := bgp.Comparator{SPF: n.spf, Node: r.id}
	old, hadOld := r.locRib.Handle(prefix)
	i := cmp.Best(cands)
	switch {
	case !hadOld && i < 0:
		return false
	case hadOld && i >= 0 && routesIdentical(n.attrs.At(old), &cands[i]):
		return false
	}
	switch {
	case i < 0:
		r.locRib.Clear(prefix)
	case held[i] > 0:
		r.locRib.SetHandle(prefix, held[i]-1)
	default:
		r.locRib.Set(cands[i])
	}
	n.markDirty(prefix)
	return true
}

func isSummary(r *router, prefix bgp.Prefix) bool {
	for _, rule := range r.aggRules {
		if rule.Summary == prefix {
			return true
		}
	}
	return false
}

// routesIdentical reports whether two routes for one prefix agree on the
// announcement, the propagation path and every attribute the decision
// process reads but the cluster list: a change in nothing else is neither
// re-selected nor re-sent. Either may be an attribute record, whose Prefix
// is unset.
func routesIdentical(a, b *bgp.Route) bool {
	return a.Egress == b.Egress && a.External == b.External && slices.Equal(a.Path, b.Path) &&
		a.Weight == b.Weight && a.LocalPref == b.LocalPref &&
		a.ASPathLen == b.ASPathLen && a.MED == b.MED && a.FromEBGP == b.FromEBGP
}

// refreshExports re-sends (or withdraws) node's exports of all prefixes
// towards one neighbor, used after egress route-map or session changes.
func (n *Network) refreshExports(node, neighbor topology.NodeID) {
	r := n.routers[node]
	// Stale Adj-RIB-Out entries (sent earlier, no longer selected) are
	// collected up front: export deletes from the table being walked.
	var stale []bgp.Prefix
	if out := r.adjOut[neighbor]; out != nil {
		out.RangePrefixes(func(p bgp.Prefix) bool {
			if _, ok := r.locRib.Handle(p); !ok {
				stale = append(stale, p)
			}
			return true
		})
	}
	r.locRib.RangePrefixes(func(p bgp.Prefix) bool {
		n.export(r, neighbor, []bgp.Prefix{p})
		return true
	})
	for _, p := range stale {
		n.export(r, neighbor, []bgp.Prefix{p})
	}
}

// advertiseAll sends node's full table towards a newly connected neighbor.
func (n *Network) advertiseAll(node, neighbor topology.NodeID) {
	r := n.routers[node]
	if !r.external {
		n.refreshExports(node, neighbor) // nothing sent yet: every selected route differs
		return
	}
	// Ascending prefix order fixes the jitter draws, and so the execution.
	r.originated.Range(func(_ bgp.Prefix, a Announcement) bool {
		n.originate(node, neighbor, []Announcement{a})
		return true
	})
}

// --- Inspection ----------------------------------------------------------

// Best returns the selected (post-policy) route of node for prefix.
func (n *Network) Best(node topology.NodeID, prefix bgp.Prefix) (bgp.Route, bool) {
	return n.routers[node].locRib.Get(prefix)
}

// Knows reports whether node has an admitted candidate route for prefix
// matching pred (pred nil matches any).
func (n *Network) Knows(node topology.NodeID, prefix bgp.Prefix, pred func(bgp.Route) bool) bool {
	found := false
	n.routers[node].rangeIngress(prefix, func(r bgp.Route, _ uint32) bool {
		found = pred == nil || pred(r)
		return !found
	})
	return found
}

// Candidates returns the admitted candidate routes of node for prefix.
func (n *Network) Candidates(node topology.NodeID, prefix bgp.Prefix) []bgp.Route {
	var out []bgp.Route
	n.routers[node].rangeIngress(prefix, func(r bgp.Route, _ uint32) bool {
		out = append(out, r)
		return true
	})
	return out
}

// NextHop computes the forwarding next hop of node for prefix: External if
// node is the egress, the IGP next hop towards the egress otherwise, Drop
// if no route or the egress is IGP-unreachable.
func (n *Network) NextHop(node topology.NodeID, prefix bgp.Prefix) topology.NodeID {
	r := n.routers[node]
	if r.external {
		return fwd.Drop
	}
	h, ok := r.locRib.Handle(prefix)
	if !ok {
		return fwd.Drop
	}
	egress := n.attrs.At(h).Egress
	if egress == node {
		return fwd.External
	}
	nh := n.spf.NextHop(node, egress)
	if nh == topology.None {
		return fwd.Drop
	}
	return nh
}

// ForwardingState snapshots the forwarding state for prefix.
func (n *Network) ForwardingState(prefix bgp.Prefix) fwd.State {
	return n.fillForwardingState(fwd.NewState(len(n.routers)), prefix)
}

// fillForwardingState writes the forwarding state for prefix into s, one
// entry per router, and returns it.
func (n *Network) fillForwardingState(s fwd.State, prefix bgp.Prefix) fwd.State {
	for _, r := range n.routers {
		s[r.id] = n.NextHop(r.id, prefix) // Drop at external nodes
	}
	return s
}

// RoutingState returns each internal node's selected route for prefix
// (P : N → route), with presence flags, in node-ID order.
func (n *Network) RoutingState(prefix bgp.Prefix) ([]bgp.Route, []bool) {
	routes := make([]bgp.Route, len(n.routers))
	have := make([]bool, len(n.routers))
	for _, r := range n.routers {
		if !r.external {
			routes[r.id], have[r.id] = r.locRib.Get(prefix)
		}
	}
	return routes, have
}

// TableEntries returns the current network-wide Adj-RIB-In entry count
// over internal routers, maintained incrementally — O(1).
func (n *Network) TableEntries() int { return n.tableEntries }

// recountTableEntries rebuilds the incremental counter from the routers,
// used after wholesale state replacement (RestoreState).
func (n *Network) recountTableEntries() {
	n.tableEntries = 0
	for _, r := range n.routers {
		if !r.external {
			n.tableEntries += r.adjIn.Size()
		}
	}
}

// MaxTableEntries returns the maximum table size observed so far (§7.3).
func (n *Network) MaxTableEntries() int { return n.maxTableEntries }

func (n *Network) trackTableSize() {
	if t := n.TableEntries(); t > n.maxTableEntries {
		n.maxTableEntries = t
	}
}

// ResetMaxTableEntries restarts §7.3 accounting from the current size.
func (n *Network) ResetMaxTableEntries() { n.maxTableEntries = n.TableEntries() }

// EBGPExports returns the number of updates advertised to external peers
// for prefix since the start of the simulation.
func (n *Network) EBGPExports(prefix bgp.Prefix) int { return n.ebgpExports[prefix] }

// Trace returns the recorded forwarding trace for prefix (nil if tracing
// was disabled for it).
func (n *Network) Trace(prefix bgp.Prefix) *fwd.Trace {
	return n.traces[prefix]
}

// SnapshotHook observes forwarding-state snapshots as the simulator takes
// them: it is called once per (event, prefix) whose routing changed, right
// after the state is appended to the prefix's trace. The state is the one
// the trace stores: the hook may retain it but must not write to it. prov
// carries the causal chain that produced the change (zero-valued when
// none is registered). Hooks run on the simulator's event loop, so they see
// every transient state in event order — the transient-state monitor
// subscribes here.
type SnapshotHook func(at time.Duration, prefix bgp.Prefix, state fwd.State, prov Provenance)

// SetSnapshotHook installs (or, with nil, removes) the snapshot hook. Only
// prefixes with tracing enabled produce snapshots; pass the prefixes of
// interest via Options.TracePrefixes (or nil to trace all).
func (n *Network) SetSnapshotHook(h SnapshotHook) { n.snapHook = h }

// snapshotDirty records a forwarding-state snapshot for every prefix whose
// routing changed during the last event.
func (n *Network) snapshotDirty() {
	if n.snapHook != nil && len(n.dirty) > 1 {
		// The dirty set is a map; with an observer attached the per-event
		// prefix order becomes output-affecting, so fix it.
		ps := n.snapOrder[:0]
		for p := range n.dirty {
			ps = append(ps, p)
		}
		slices.Sort(ps)
		n.snapOrder = ps
		for _, p := range ps {
			n.snapshotOne(p)
		}
		return
	}
	for p := range n.dirty {
		n.snapshotOne(p)
	}
}

func (n *Network) snapshotOne(p bgp.Prefix) {
	mark := n.dirty[p]
	delete(n.dirty, p)
	tr := n.traces[p]
	if tr == nil {
		if !n.traceAll {
			return
		}
		tr = &fwd.Trace{}
		n.traces[p] = tr
	}
	st := n.record(tr, p)
	if n.snapHook != nil {
		n.snapHook(n.now, p, st, n.provenance(mark))
	}
}

// record appends the current forwarding state for p to tr and returns the
// trace's stored copy. The state is filled into per-network scratch, so the
// trace's copy is the only allocation.
func (n *Network) record(tr *fwd.Trace, p bgp.Prefix) fwd.State {
	if len(n.scratch) != len(n.routers) {
		n.scratch = fwd.NewState(len(n.routers))
	}
	tr.Append(n.now.Seconds(), n.fillForwardingState(n.scratch, p))
	return tr.States[len(tr.States)-1]
}

// RecordInitialState forces a snapshot of the current forwarding state for
// prefix at the current time, typically called once converged to anchor a
// trace before a reconfiguration starts.
func (n *Network) RecordInitialState(prefix bgp.Prefix) {
	tr := n.traces[prefix]
	if tr == nil {
		tr = &fwd.Trace{}
		n.traces[prefix] = tr
	}
	st := n.record(tr, prefix)
	if n.snapHook != nil {
		n.snapHook(n.now, prefix, st, Provenance{})
	}
}

// Clone returns an independent copy of a converged network for what-if
// exploration, in time proportional to routers, sessions and route-map
// entries — not to prefixes. Pending events are NOT copied; clone a
// converged network.
//
// Shared, copy-on-write: every route table (Adj-RIB-In, Loc-RIB,
// Adj-RIB-Out) and the originated announcements of external networks — the
// first write on either side copies the one trie path it touches — and the
// IGP, failed links included, until either side reconverges
// (igp.SPF.Clone). The topology and Options are shared as they are.
//
// Copied: sessions and the sorted neighbor cache, route maps, aggregation
// rules, the simulated clock and the current table-entry count. The
// clone's Routers in CaptureState are byte-identical to the source's.
//
// Reset on purpose, because they describe a history the clone did not live
// through: the message count, the §7.3 maximum table size and the per-prefix
// eBGP export counts start at zero; forwarding traces start empty; the run
// index is 0 and jitter restarts from the constructor stream of
// Options.Seed. Not inherited either: causal provenance, the snapshot hook,
// the recorder and its span, the fault injector and pending commands.
// The tables intern into a fork of the source's attribute table
// (bgp.AttrTable.Fork), which resolves every shared handle and appends into
// storage of its own. No handle crosses from one network to the other: the
// empty queue means no message is in flight, and a new route, like every
// route, is interned by the network that sends it.
func (n *Network) Clone() *Network {
	if len(n.queue) > 0 {
		panic("sim: Clone requires a converged network")
	}
	c := newNetwork(n.graph, n.spf.Clone(), n.opts, n.attrs.Fork())
	c.now = n.now
	c.tableEntries = n.tableEntries
	c.routers = make([]*router, len(n.routers))
	for i, r := range n.routers {
		c.routers[i] = r.clone(c.attrs)
	}
	return c
}
