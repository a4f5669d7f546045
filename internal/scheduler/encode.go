package scheduler

import (
	"context"
	"runtime"
	"sort"

	"chameleon/internal/analyzer"
	"chameleon/internal/fwd"
	"chameleon/internal/milp"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

// bval is a boolean value in the model: either a constant or a 0/1 variable.
// Constant folding keeps the encoding compact (§4.3 builds variables for
// all nodes and rounds; most collapse to constants or aliases).
type bval struct {
	isConst bool
	c       bool
	v       milp.VarID
}

func cst(b bool) bval      { return bval{isConst: true, c: b} }
func vr(v milp.VarID) bval { return bval{v: v} }

// term, expr and diff build the short rows the encoder posts; inlined, their
// terms stay on the caller's stack, since the model copies what it keeps.
func term(v milp.VarID, c int64) milp.Term { return milp.Term{Var: v, Coeff: c} }
func expr(ts ...milp.Term) milp.LinExpr    { return milp.LinExpr{Terms: ts} }
func diff(x, y milp.VarID) milp.LinExpr    { return expr(term(x, 1), term(y, -1)) }

// encoder builds the §4 ILP of one analysis and specification into one
// model, for one round count R at a time: encode replaces the last R's
// encoding with the next one's, keeping the storage of the model, of the memo
// tables and of every per-node slice, so one encoder serves a round scan, and
// the free list (encoders) hands it on to the next scan.
type encoder struct {
	a    *analyzer.Analysis
	sp   *spec.Spec
	R    int
	opts Options

	model *milp.Model
	g     *topology.Graph

	isSwitching map[topology.NodeID]bool
	rOld, rNh   map[topology.NodeID]milp.VarID
	rNew        map[topology.NodeID]milp.VarID
	tOld, tNew  map[topology.NodeID]milp.VarID

	// leK[n][k-1] = (r_nh(n) ≤ k) for k ∈ [1, R-1].
	leK map[topology.NodeID][]milp.VarID
	// eqMemo[(n,k)] caches the (r_nh(n) = k) indicator.
	eqMemo   map[nk]bval
	notCache map[milp.VarID]milp.VarID

	// delta[n][k-1] for nodes that change their next hop.
	delta map[topology.NodeID][]milp.VarID
	// reach[(n,k)], wp[(w,n,k)] and exits[(e,n,k)] propositional variables.
	reachMemo map[nk]bval
	wpMemo    map[wnk]bval
	exitsMemo map[wnk]bval
	specMemo  map[ek]bval

	// cycles are the simple cycles of the union forwarding graph, for the
	// explicit loop constraints.
	cycles [][]topology.NodeID
	// byDepth is Switching in branch order (branchOrder). row and ys are
	// the buffers of the rows built term by term, order and high those of
	// the Solve options.
	byDepth         []topology.NodeID
	row             []milp.Term
	ys, order, high []milp.VarID
}

type nk struct {
	n topology.NodeID
	k int
}
type wnk struct {
	w, n topology.NodeID
	k    int
}
type ek struct {
	e *spec.Expr
	k int
}

// encoders is the free list of round-scan encoders: a finished scan hands its
// encoder, with its model, the model's searcher, its tables and its buffers,
// to the next scan, so planning grows them once and not once per call. It
// holds at most GOMAXPROCS encoders, one per scan that class-parallel
// planning and the parallel sweeps run at a time; getting and putting never
// wait. A sync.Pool would drop its encoders at every other GC, which would
// make the bytes a run allocates depend on when the GC ran.
var encoders = make(chan *encoder, runtime.GOMAXPROCS(0))

// getEncoder returns an encoder of a and sp: one from the free list when it
// holds one, else a new one. A recycled encoder's maps keyed by node are
// cleared: delta is read with ok and isSwitching as a bool, so a stale key
// would change the encoding.
func getEncoder(a *analyzer.Analysis, sp *spec.Spec, opts Options) *encoder {
	var e *encoder
	select {
	case e = <-encoders:
		clear(e.isSwitching)
		clear(e.rOld)
		clear(e.rNh)
		clear(e.rNew)
		clear(e.tOld)
		clear(e.tNew)
		clear(e.leK)
		clear(e.delta)
	default:
		e = &encoder{
			model:       milp.NewModel(),
			isSwitching: make(map[topology.NodeID]bool),
			rOld:        make(map[topology.NodeID]milp.VarID),
			rNh:         make(map[topology.NodeID]milp.VarID),
			rNew:        make(map[topology.NodeID]milp.VarID),
			tOld:        make(map[topology.NodeID]milp.VarID),
			tNew:        make(map[topology.NodeID]milp.VarID),
			leK:         make(map[topology.NodeID][]milp.VarID),
			eqMemo:      make(map[nk]bval),
			notCache:    make(map[milp.VarID]milp.VarID),
			delta:       make(map[topology.NodeID][]milp.VarID),
			reachMemo:   make(map[nk]bval),
			wpMemo:      make(map[wnk]bval),
			exitsMemo:   make(map[wnk]bval),
			specMemo:    make(map[ek]bval),
		}
	}
	e.a, e.sp, e.opts, e.g = a, sp, opts, a.Graph
	for _, n := range a.Switching {
		e.isSwitching[n] = true
	}
	e.byDepth = e.sortByDepth()
	if opts.ExplicitLoopConstraints {
		e.cycles = a.SimpleCycles(cycleLimit)
	}
	return e
}

// putEncoder hands e back to the free list, or drops it when the list is
// full. It first drops e's references to the caller's analysis,
// specification and graph (the spec memo's keys point into the
// specification), and resets the model, which drops the searcher's options
// and with them the caller's ctx and its recorder.
func putEncoder(e *encoder) {
	e.a, e.sp, e.g, e.cycles = nil, nil, nil, nil
	clear(e.specMemo)
	e.model.Reset()
	select {
	case encoders <- e:
	default:
	}
}

// encode replaces the model with the encoding for R rounds. It empties the
// model and the memo tables, keeping their storage; the variable maps need
// no clearing, because every R declares the variables of the same nodes
// (over the per-node slices of the last).
func (e *encoder) encode(R int) {
	e.R = R
	e.model.Reset()
	clear(e.eqMemo)
	clear(e.notCache)
	clear(e.reachMemo)
	clear(e.wpMemo)
	clear(e.exitsMemo)
	clear(e.specMemo)
	e.buildScheduleVars()
	e.buildHappensBefore()
	e.buildConcurrency()
	if e.opts.ExplicitLoopConstraints {
		e.buildLoopConstraints()
	}
	if e.sp != nil {
		e.buildSpec()
	}
	// The secondary objective (§4.1), one group per node: a node that
	// cannot take its old route, its next hop and its new route in one
	// round needs one temporary session or the other.
	e.row = e.row[:0]
	for _, n := range e.a.Switching {
		e.row = append(e.row, term(e.tOld[n], 1), term(e.tNew[n], 1))
	}
	e.model.MinimizeGroups(milp.LinExpr{Terms: e.row}, 2)
}

// solve searches the encoded model under a budget of nodes per feasibility
// search.
func (e *encoder) solve(ctx context.Context, nodes int64) (*NodeSchedule, milp.Stats, error) {
	// r_old variables prefer their upper bound (= r_nh: no temporary old
	// session); everything else ascends, so r_new lands on r_nh too.
	e.high = e.high[:0]
	for _, n := range e.a.Switching {
		e.high = append(e.high, e.rOld[n])
	}
	sol, err := e.model.Solve(milp.Options{
		NodeLimit:   nodes,
		BranchOrder: e.branchOrder(),
		PreferHigh:  e.high,
		Ctx:         ctx,
	})
	if err != nil {
		// An infeasibility proof or an exhausted budget is effort too.
		return nil, sol.Stats, err
	}
	return e.extract(sol), sol.Stats, nil
}

// --- schedule variables (Eq. 1) -------------------------------------------

func (e *encoder) buildScheduleVars() {
	R := int64(e.R)
	for _, n := range e.a.Switching {
		// r_old = 0 means "moved to the temporary old-egress session
		// already during setup"; r_new = R+1 means "switches to the final
		// route during cleanup". Both extend the paper's 1..R rounds with
		// the setup/cleanup phases of §5.
		e.rOld[n] = e.model.NewInt(0, R)
		e.rNh[n] = e.model.NewInt(1, R)
		e.rNew[n] = e.model.NewInt(1, R+1)
		// r_old ≤ r_nh ≤ r_new (Eq. 1).
		e.model.AddLe(diff(e.rOld[n], e.rNh[n]), 0)
		e.model.AddLe(diff(e.rNh[n], e.rNew[n]), 0)
		// Temporary-session indicators: r_nh − r_old ≤ R·tOld and
		// r_new − r_nh ≤ R·tNew (§4.1 objective terms).
		e.tOld[n] = e.model.NewBool()
		e.tNew[n] = e.model.NewBool()
		e.model.AddLe(expr(term(e.rNh[n], 1), term(e.rOld[n], -1), term(e.tOld[n], -R)), 0)
		e.model.AddLe(expr(term(e.rNew[n], 1), term(e.rNh[n], -1), term(e.tNew[n], -R)), 0)
		// leK channeling: leK[n][k-1] ⇔ r_nh(n) ≤ k.
		les := e.leK[n][:0]
		for k := 1; k <= e.R-1; k++ {
			les = append(les, e.model.ReifyLe(milp.VarExpr(e.rNh[n]), int64(k)))
		}
		e.leK[n] = les
	}
	// Egress coupling. A node's old route (direct or via a temporary
	// session) exists only while the old egress still selects it, and its
	// new route only once the new egress has switched; both orderings are
	// implied transitively by the happens-before chains for chain users
	// and required explicitly for temporary-session users. Posting them
	// for every node strengthens propagation substantially.
	for _, n := range e.a.Switching {
		if eOld := e.a.POld[n].Egress; eOld != n && e.isSwitching[eOld] {
			// r_nh(n) ≤ r_nh(e_old).
			e.model.AddLe(diff(e.rNh[n], e.rNh[eOld]), 0)
		}
		if eNew := e.a.PNew[n].Egress; eNew != n && e.isSwitching[eNew] {
			// r_nh(n) ≥ r_nh(e_new).
			e.model.AddGe(diff(e.rNh[n], e.rNh[eNew]), 0)
		}
	}
}

// leAt returns the (r_nh(n) ≤ k) indicator as a bval.
func (e *encoder) leAt(n topology.NodeID, k int) bval {
	if k <= 0 {
		return cst(false)
	}
	if k >= e.R {
		return cst(true)
	}
	return vr(e.leK[n][k-1])
}

// eqAt returns the (r_nh(n) = k) indicator.
func (e *encoder) eqAt(n topology.NodeID, k int) bval {
	if b, ok := e.eqMemo[nk{n, k}]; ok {
		return b
	}
	var b bval
	le, lePrev := e.leAt(n, k), e.leAt(n, k-1)
	switch {
	case le.isConst && lePrev.isConst:
		b = cst(le.c && !lePrev.c)
	case lePrev.isConst && !lePrev.c && !le.isConst:
		b = le // eq = leK[k] − 0
	case le.isConst && le.c && !lePrev.isConst:
		b = e.not(lePrev) // eq = 1 − leK[k-1]
	default:
		v := e.model.NewBool()
		// v = le − lePrev.
		e.model.AddEq(expr(term(v, 1), term(le.v, -1), term(lePrev.v, 1)), 0)
		b = vr(v)
	}
	e.eqMemo[nk{n, k}] = b
	return b
}

func (e *encoder) not(b bval) bval {
	if b.isConst {
		return cst(!b.c)
	}
	if v, ok := e.notCache[b.v]; ok {
		return vr(v)
	}
	v := e.model.NewBool()
	e.model.AddBoolNot(v, b.v)
	e.notCache[b.v] = v
	return vr(v)
}

// impliesEq posts: cond ⇒ x = y, where cond is a bval.
func (e *encoder) impliesEq(cond bval, x, y bval) {
	if cond.isConst {
		if !cond.c {
			return
		}
		e.assertEq(x, y)
		return
	}
	switch {
	case x.isConst && y.isConst:
		if x.c != y.c {
			e.model.AddEq(milp.VarExpr(cond.v), 0) // cond impossible
		}
	case x.isConst:
		e.impliesEq(cond, y, x)
	case y.isConst:
		val := int64(0)
		if y.c {
			val = 1
		}
		e.model.AddImpliesEq(cond.v, milp.VarExpr(x.v), val)
	default:
		e.model.AddImpliesEq(cond.v, diff(x.v, y.v), 0)
	}
}

func (e *encoder) assertEq(x, y bval) {
	switch {
	case x.isConst && y.isConst:
		if x.c != y.c {
			// Infeasible model: 0 = 1.
			e.model.AddEq(milp.LinExpr{}, 1)
		}
	case x.isConst:
		e.assertEq(y, x)
	case y.isConst:
		val := int64(0)
		if y.c {
			val = 1
		}
		e.model.AddEq(milp.VarExpr(x.v), val)
	default:
		e.model.AddEq(diff(x.v, y.v), 0)
	}
}

// --- happens-before (§4.1) -------------------------------------------------

func (e *encoder) buildHappensBefore() {
	for _, n := range e.a.Switching {
		// Old route availability.
		if e.permanentOld(n) {
			// The old route never disappears: no temporary session can
			// ever be needed, so pin r_old = r_nh.
			e.model.AddEq(diff(e.rOld[n], e.rNh[n]), 0)
			e.model.AddEq(milp.VarExpr(e.tOld[n]), 0)
		} else {
			e.ys = e.ys[:0]
			for _, m := range e.a.DOld[n] {
				if !e.isSwitching[m] {
					continue
				}
				y := e.model.NewBool()
				// y ⇒ r_old(n) < r_old(m).
				e.model.AddImpliesLe(y, diff(e.rOld[n], e.rOld[m]), -1)
				e.ys = append(e.ys, y)
			}
			if len(e.ys) == 0 {
				// No provider can outlive n: the temporary old-egress
				// session must take over during setup.
				e.model.AddEq(milp.VarExpr(e.rOld[n]), 0)
			} else {
				e.model.AtLeastOne(e.ys...)
			}
		}
		// New route availability.
		if e.permanentNew(n) {
			e.model.AddEq(diff(e.rNew[n], e.rNh[n]), 0)
			e.model.AddEq(milp.VarExpr(e.tNew[n]), 0)
		} else {
			e.ys = e.ys[:0]
			for _, m := range e.a.DNew[n] {
				if !e.isSwitching[m] {
					continue
				}
				y := e.model.NewBool()
				// y ⇒ r_new(n) > r_new(m).
				e.model.AddImpliesGe(y, diff(e.rNew[n], e.rNew[m]), 1)
				e.ys = append(e.ys, y)
			}
			if len(e.ys) == 0 {
				// No provider precedes n: the final route arrives only
				// during cleanup, over the temporary new-egress session.
				e.model.AddEq(milp.VarExpr(e.rNew[n]), int64(e.R)+1)
			} else {
				e.model.AtLeastOne(e.ys...)
			}
		}
	}
}

// permanentOld reports whether n's old route remains available through the
// whole update phase: it arrives over eBGP, or some provider never switches
// its announcement.
func (e *encoder) permanentOld(n topology.NodeID) bool {
	if e.a.ExtProviderOld[n] {
		return true
	}
	for _, m := range e.a.DOld[n] {
		if !e.isSwitching[m] {
			return true
		}
	}
	return false
}

func (e *encoder) permanentNew(n topology.NodeID) bool {
	if e.a.ExtProviderNew[n] {
		return true
	}
	for _, m := range e.a.DNew[n] {
		if !e.isSwitching[m] {
			return true
		}
	}
	return false
}

// --- concurrent updates (§4.2, Eq. 2) --------------------------------------

// changesNH reports whether node n's forwarding next hop differs between
// the states (only those contribute forwarding changes).
func (e *encoder) changesNH(n topology.NodeID) bool {
	return e.a.NHOld[n] != e.a.NHNew[n]
}

func (e *encoder) buildConcurrency() {
	// δ variables exist for every next-hop-changing node and round.
	for _, n := range e.a.Switching {
		if !e.changesNH(n) {
			continue
		}
		ds := e.delta[n][:0]
		for k := 1; k <= e.R; k++ {
			ds = append(ds, e.model.NewBool())
		}
		e.delta[n] = ds
	}
	// Switching order, not map order over e.delta: the emitted constraint
	// order decides the propagation queue's visit order, and with it the
	// solver-effort counters the observability layer reports — those must
	// reproduce byte-for-byte run to run.
	for _, n := range e.a.Switching {
		ds, ok := e.delta[n]
		if !ok { // no δ variables: node keeps its next hop
			continue
		}
		x, y := e.a.NHOld[n], e.a.NHNew[n]
		for k := 1; k <= e.R; k++ {
			dn := vr(ds[k-1])
			dx := e.deltaOf(x, k)
			dy := e.deltaOf(y, k)
			// r_nh > k  ⇒ δ_n = δ_x.
			e.impliesEq(e.not(e.leAt(n, k)), dn, dx)
			// r_nh < k (≤ k−1) ⇒ δ_n = δ_y.
			e.impliesEq(e.leAt(n, k-1), dn, dy)
			// r_nh = k ⇒ δ_n = 1 ∧ δ_x = 0 ∧ δ_y = 0 (Eq. 2's
			// δ_n = 1 + δ_x + δ_y with all in {0,1}).
			eq := e.eqAt(n, k)
			e.impliesEq(eq, dn, cst(true))
			e.impliesEq(eq, dx, cst(false))
			e.impliesEq(eq, dy, cst(false))
		}
	}
}

// deltaOf resolves the δ value of a next hop at round k: terminals are
// constant 0; unchanged nodes alias through their constant next hop;
// changing nodes contribute their δ variable.
func (e *encoder) deltaOf(n topology.NodeID, k int) bval {
	seen := make(map[topology.NodeID]bool)
	for {
		if n == fwd.Drop || n == fwd.External || n == topology.None {
			return cst(false)
		}
		if ds, ok := e.delta[n]; ok {
			return vr(ds[k-1])
		}
		if seen[n] {
			return cst(false) // defensive: constant-nh loop cannot occur
		}
		seen[n] = true
		n = e.a.NHOld[n] // unchanged: NHOld == NHNew
	}
}

// --- loop constraints (§4.4, Eq. 3) ----------------------------------------

// cycleLimit caps explicit loop enumeration.
const cycleLimit = 10000

func (e *encoder) buildLoopConstraints() {
	for _, cyc := range e.cycles {
		j := len(cyc)
		if j < 2 {
			continue
		}
		for k := 1; k <= e.R; k++ {
			// Σ active edges ≤ j−1.
			e.row = e.row[:0]
			constant := int64(0)
			for i, ni := range cyc {
				next := cyc[(i+1)%j]
				old := e.a.NHOld[ni] == next
				new_ := e.a.NHNew[ni] == next
				switch {
				case old && new_:
					constant++ // always active
				case old && e.changesNH(ni):
					// Active iff r_nh(ni) > k: contributes 1 − le.
					le := e.leAt(ni, k)
					if le.isConst {
						if !le.c {
							constant++
						}
					} else {
						constant++
						e.row = append(e.row, term(le.v, -1))
					}
				case new_ && e.changesNH(ni):
					le := e.leAt(ni, k)
					if le.isConst {
						if le.c {
							constant++
						}
					} else {
						e.row = append(e.row, term(le.v, 1))
					}
				}
			}
			e.model.AddLe(milp.LinExpr{Terms: e.row}, int64(j-1)-constant)
		}
	}
}

// --- specification (§4.3) ---------------------------------------------------

func (e *encoder) buildSpec() {
	root := e.specVal(e.sp.Root, 1)
	if root.isConst {
		if !root.c {
			// The specification can never hold at round 1 under any
			// schedule with this R.
			e.model.AddEq(milp.LinExpr{}, 1) // 0 = 1: infeasible
		}
		return
	}
	e.model.AddEq(milp.VarExpr(root.v), 1)
}

// specVal encodes expression ex at round k (k ∈ [1, R]); round R persists.
func (e *encoder) specVal(ex *spec.Expr, k int) bval {
	key := ek{ex, k}
	if b, ok := e.specMemo[key]; ok {
		return b
	}
	var b bval
	last := k >= e.R
	next := k + 1
	switch ex.Kind {
	case spec.KTrue:
		b = cst(true)
	case spec.KFalse:
		b = cst(false)
	case spec.KReach:
		b = e.reachVal(ex.Node, k)
	case spec.KWp:
		b = e.wpVal(ex.Via, ex.Node, k)
	case spec.KExits:
		b = e.exitsVal(ex.Via, ex.Node, k)
	case spec.KAnd:
		b = e.and(e.specVal(ex.A, k), e.specVal(ex.B, k))
	case spec.KOr:
		b = e.or(e.specVal(ex.A, k), e.specVal(ex.B, k))
	case spec.KNot:
		b = e.not(e.specVal(ex.A, k))
	case spec.KNext:
		if last {
			b = e.specVal(ex.A, k)
		} else {
			b = e.specVal(ex.A, next)
		}
	case spec.KGlobally:
		if last {
			b = e.specVal(ex.A, k)
		} else {
			b = e.and(e.specVal(ex.A, k), e.specVal(ex, next))
		}
	case spec.KFinally:
		if last {
			b = e.specVal(ex.A, k)
		} else {
			b = e.or(e.specVal(ex.A, k), e.specVal(ex, next))
		}
	case spec.KUntil:
		if last {
			b = e.specVal(ex.B, k)
		} else {
			b = e.or(e.specVal(ex.B, k), e.and(e.specVal(ex.A, k), e.specVal(ex, next)))
		}
	case spec.KRelease:
		if last {
			b = e.specVal(ex.B, k)
		} else {
			b = e.and(e.specVal(ex.B, k), e.or(e.specVal(ex.A, k), e.specVal(ex, next)))
		}
	case spec.KWeakUntil:
		if last {
			b = e.or(e.specVal(ex.A, k), e.specVal(ex.B, k))
		} else {
			b = e.or(e.specVal(ex.B, k), e.and(e.specVal(ex.A, k), e.specVal(ex, next)))
		}
	case spec.KStrongRelease:
		if last {
			b = e.and(e.specVal(ex.A, k), e.specVal(ex.B, k))
		} else {
			both := e.and(e.specVal(ex.A, k), e.specVal(ex.B, k))
			b = e.or(both, e.and(e.specVal(ex.B, k), e.specVal(ex, next)))
		}
	default:
		b = cst(false)
	}
	e.specMemo[key] = b
	return b
}

func (e *encoder) and(x, y bval) bval {
	if x.isConst {
		if !x.c {
			return cst(false)
		}
		return y
	}
	if y.isConst {
		if !y.c {
			return cst(false)
		}
		return x
	}
	if x.v == y.v {
		return x
	}
	v := e.model.NewBool()
	e.model.AddBoolAnd(v, x.v, y.v)
	return vr(v)
}

func (e *encoder) or(x, y bval) bval {
	if x.isConst {
		if x.c {
			return cst(true)
		}
		return y
	}
	if y.isConst {
		if y.c {
			return cst(true)
		}
		return x
	}
	if x.v == y.v {
		return x
	}
	v := e.model.NewBool()
	e.model.AddBoolOr(v, x.v, y.v)
	return vr(v)
}

// reachVal encodes φ_reach(n, k) following §4.3: walk constant next hops;
// at a next-hop-changing node introduce a conditional variable.
func (e *encoder) reachVal(n topology.NodeID, k int) bval {
	// Resolve constant chains first.
	seen := make(map[topology.NodeID]bool)
	for {
		if n == fwd.External {
			return cst(true)
		}
		if n == fwd.Drop || n == topology.None {
			return cst(false)
		}
		if e.changesNH(n) && e.isSwitching[n] {
			break
		}
		if seen[n] {
			return cst(false) // constant loop: unreachable (cannot occur)
		}
		seen[n] = true
		n = e.a.NHOld[n]
	}
	key := nk{n, k}
	if b, ok := e.reachMemo[key]; ok {
		return b
	}
	v := e.model.NewBool()
	b := vr(v)
	e.reachMemo[key] = b // memo before recursion (cycles hit the var)
	le := e.leAt(n, k)
	// r_nh ≤ k ⇒ reach follows the new next hop; otherwise the old one.
	e.impliesEq(le, b, e.reachVal(e.a.NHNew[n], k))
	e.impliesEq(e.not(le), b, e.reachVal(e.a.NHOld[n], k))
	return b
}

// wpVal encodes φ_wp(w)(n, k) following §4.3.
func (e *encoder) wpVal(w, n topology.NodeID, k int) bval {
	seen := make(map[topology.NodeID]bool)
	for {
		if n == w {
			return cst(true)
		}
		if n == fwd.External || n == fwd.Drop || n == topology.None {
			return cst(false)
		}
		if e.changesNH(n) && e.isSwitching[n] {
			break
		}
		if seen[n] {
			return cst(false)
		}
		seen[n] = true
		n = e.a.NHOld[n]
	}
	key := wnk{w, n, k}
	if b, ok := e.wpMemo[key]; ok {
		return b
	}
	v := e.model.NewBool()
	b := vr(v)
	e.wpMemo[key] = b
	le := e.leAt(n, k)
	e.impliesEq(le, b, e.wpVal(w, e.a.NHNew[n], k))
	e.impliesEq(e.not(le), b, e.wpVal(w, e.a.NHOld[n], k))
	return b
}

// exitsVal encodes the routing-invariant predicate exits(n, target): the
// forwarding path of n at round k leaves the network exactly at target
// (§8's routing invariants, realized as recursive constraints in the style
// of §4.3's waypoint encoding).
func (e *encoder) exitsVal(target, n topology.NodeID, k int) bval {
	through := func(at, x topology.NodeID) (bval, bool) {
		switch x {
		case fwd.External:
			return cst(at == target), true
		case fwd.Drop: // == topology.None
			return cst(false), true
		}
		return bval{}, false
	}
	seen := make(map[topology.NodeID]bool)
	for {
		if n == fwd.Drop || n == fwd.External || n == topology.None {
			return cst(false)
		}
		if e.changesNH(n) && e.isSwitching[n] {
			break
		}
		x := e.a.NHOld[n] // unchanged: NHOld == NHNew
		if b, done := through(n, x); done {
			return b
		}
		if seen[n] {
			return cst(false)
		}
		seen[n] = true
		n = x
	}
	key := wnk{target, n, k}
	if b, ok := e.exitsMemo[key]; ok {
		return b
	}
	v := e.model.NewBool()
	b := vr(v)
	e.exitsMemo[key] = b
	resolve := func(x topology.NodeID) bval {
		if tb, done := through(n, x); done {
			return tb
		}
		return e.exitsVal(target, x, k)
	}
	le := e.leAt(n, k)
	e.impliesEq(le, b, resolve(e.a.NHNew[n]))
	e.impliesEq(e.not(le), b, resolve(e.a.NHOld[n]))
	return b
}

// --- branch order and extraction -------------------------------------------

// sortByDepth returns the switching nodes by their depth in the new
// forwarding state, closest to the new egress first, ties by node ID.
func (e *encoder) sortByDepth() []topology.NodeID {
	depth := make(map[topology.NodeID]int)
	var depthOf func(n topology.NodeID) int
	depthOf = func(n topology.NodeID) int {
		if n == fwd.External || n == fwd.Drop || n == topology.None {
			return 0
		}
		if d, ok := depth[n]; ok {
			return d
		}
		depth[n] = e.g.NumNodes() + 1 // cycle guard
		d := 1 + depthOf(e.a.NHNew[n])
		depth[n] = d
		return d
	}
	nodes := append([]topology.NodeID(nil), e.a.Switching...)
	sort.SliceStable(nodes, func(i, j int) bool {
		di, dj := depthOf(nodes[i]), depthOf(nodes[j])
		if di != dj {
			return di < dj
		}
		return nodes[i] < nodes[j]
	})
	return nodes
}

// branchOrder lists the decision variables — r_nh, then r_new and r_old, of
// every switching node — in byDepth's order, so that while the search has
// met no conflict the ascending value enumeration builds the new tree
// outward — the constructive order of App. B. Conflicts then reorder them
// (milp.Options).
func (e *encoder) branchOrder() []milp.VarID {
	e.order = e.order[:0]
	for _, n := range e.byDepth {
		e.order = append(e.order, e.rNh[n])
	}
	for _, n := range e.byDepth {
		e.order = append(e.order, e.rNew[n], e.rOld[n])
	}
	return e.order
}

func (e *encoder) extract(sol *milp.Solution) *NodeSchedule {
	s := &NodeSchedule{
		R:      e.R,
		Tuples: make(map[topology.NodeID]Tuple),
		MOld:   make(map[topology.NodeID]topology.NodeID),
		MNew:   make(map[topology.NodeID]topology.NodeID),
	}
	val := func(v milp.VarID) int { return int(sol.Values[v]) }
	for _, n := range e.a.Switching {
		t := Tuple{Old: val(e.rOld[n]), NH: val(e.rNh[n]), New: val(e.rNew[n])}
		s.Tuples[n] = t
		if t.Old < t.NH {
			s.TempOldSessions++
		}
		if t.NH < t.New {
			s.TempNewSessions++
		}
	}
	// Provider selection for the compiler (§5): m_old outlives r_old,
	// m_new precedes r_new; permanent providers are preferred.
	for _, n := range e.a.Switching {
		t := s.Tuples[n]
		s.MOld[n] = e.pickProvider(e.a.DOld[n], e.a.ExtProviderOld[n], func(m topology.NodeID) bool {
			return hOld(e.a, s, m) > t.Old
		}, func(m topology.NodeID) int { return hOld(e.a, s, m) })
		s.MNew[n] = e.pickProvider(e.a.DNew[n], e.a.ExtProviderNew[n], func(m topology.NodeID) bool {
			return hNew(e.a, s, m) < t.New
		}, func(m topology.NodeID) int { return -hNew(e.a, s, m) })
	}
	return s
}

// pickProvider returns the admissible provider maximizing score, or
// topology.None when the route arrives over eBGP.
func (e *encoder) pickProvider(cands []topology.NodeID, ext bool,
	ok func(topology.NodeID) bool, score func(topology.NodeID) int) topology.NodeID {
	if ext {
		return topology.None
	}
	best := topology.None
	bestScore := 0
	for _, m := range cands {
		if !ok(m) {
			continue
		}
		if best == topology.None || score(m) > bestScore {
			best = m
			bestScore = score(m)
		}
	}
	return best
}
