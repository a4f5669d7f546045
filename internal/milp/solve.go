package milp

import (
	"context"
	"errors"
	"math/bits"
	"math/rand/v2"
	"time"
)

// Errors returned by Solve.
var (
	// ErrInfeasible means the model admits no integer solution.
	ErrInfeasible = errors.New("milp: infeasible")
	// ErrTimeout means NodeLimit was spent before any solution was found.
	ErrTimeout = errors.New("milp: node limit exceeded")
)

// restartBaseNodes is the Luby unit: attempt k of a search is capped at
// restartBaseNodes·luby(k+1) nodes.
const restartBaseNodes = 256

// luby returns term i ≥ 1 of the Luby sequence 1,1,2,1,1,2,4,1,1,2,…: 2^(k−1)
// when i = 2^k − 1, and otherwise the term at i's offset into the copy of the
// shorter prefix it lies in.
func luby(i int) int64 {
	for {
		k := bits.Len(uint(i)) // 2^(k−1) ≤ i < 2^k
		if i == 1<<k-1 {
			return 1 << (k - 1)
		}
		i -= 1<<(k-1) - 1
	}
}

// Options tune the branch-and-bound search.
type Options struct {
	// NodeLimit bounds the nodes one feasibility search may explore across
	// all its restart attempts (0: unlimited). When Solve minimizes, every
	// improvement iteration is a search of its own and gets NodeLimit/2
	// afresh: it branches toward the incumbent first, so what it finds it
	// finds early. The lower bound an iteration may run at its first restart
	// spends nodes of its own, beside the NodeLimit/2, and only as many as
	// closing the iteration would spare it. It is the only budget, so the
	// same model under the same limit returns the same result regardless of
	// machine speed or load.
	NodeLimit int64
	// BranchOrder lists the decision variables. While one of them is unfixed
	// the search branches on the one with the largest (1 + conflict weight) ÷
	// (hi − lo), ties going to the earlier in this list — so a search that
	// meets no conflict walks the list in order. The remaining variables
	// follow in declaration order once every decision variable is fixed.
	BranchOrder []VarID
	// PreferHigh lists variables whose values are enumerated descending
	// (try the upper bound first); all others ascend.
	PreferHigh []VarID
	// FirstSolution stops at the first feasible solution even when an
	// objective is set (used by the round-minimization outer loop, which
	// only needs feasibility at each R).
	FirstSolution bool
	// Ctx, when non-nil, is polled every 256 nodes of the Solve and before
	// every restart attempt, and aborts the search with the context's error.
	// Cancellation discards any solution found so far: a cancelled solve
	// returns ctx.Err(), never a partial result.
	Ctx context.Context
}

// Stats reports search effort.
type Stats struct {
	Nodes        int64
	Propagations int64
	Duration     time.Duration
	Optimal      bool
}

// Solution is a feasible (and, unless interrupted, optimal) assignment.
type Solution struct {
	Values    []int64
	Objective int64
	Stats     Stats
}

// change is one trail entry: bound slot and the value it held before.
type change struct {
	slot int
	old  int64
}

// reader is a wake-list entry: a row reading a bound slot, and its coefficient.
type reader struct {
	row   int32
	coeff int64
}

// searcher holds the state of every search one Solve runs: its buffers are
// sized once and reset, not re-made, for each restart attempt and each
// improvement iteration, and the model keeps it for its next Solve.
type searcher struct {
	m *Model
	// bnd interleaves the current domains: bnd[2v] is v's lower bound,
	// bnd[2v+1] its upper bound. A term a·x reads the slot that gives its
	// minimum (slotOf) and tightens the other one.
	bnd []int64
	// act[row] is Σ a·bnd[slotOf] over the row: every bound move updates it.
	act   []int64
	trail []change
	queue []int32
	inQ   []bool
	// wake[wakeAt[slot]:wakeAt[slot+1]] lists, in posting order, the rows
	// that read bound slot: for 2v those where v's coefficient is positive,
	// for 2v+1 those where it is negative — the rows whose activity rises
	// when the slot tightens. The cutoff rows, posted last, come last.
	wakeAt []int32
	wake   []reader

	// weight[v] counts the conflicts met right after branching on v. It
	// lives as long as the Solve: what one attempt or improvement iteration
	// learns about where the model is tight steers the next.
	weight     []int64
	decision   []VarID // Options.BranchOrder without repeats
	order      []VarID // decision as this attempt breaks ties: reshuffled by restarts
	rest       []VarID // the non-decision variables, in declaration order
	preferHigh []bool
	high       bool // this attempt honours preferHigh
	guided     bool // an improvement iteration: branch toward values first
	pcg        rand.PCG
	rng        *rand.Rand
	seed       uint64 // the model's fingerprint before any cutoff row

	maxNodes int64 // stats.Nodes at which this attempt stops
	opts     Options
	stats    Stats   // the effort of every search so far
	values   []int64 // the latest full assignment: the incumbent while guided
	found    bool    // this attempt stored one in values
	ctxErr   error   // set when opts.Ctx fired during the search

	// The lower bound of the improvement iterations (coreBound), kept when
	// every objective term is a 0/1 variable with coefficient 1 (bounded).
	// inCore marks the terms of the disjoint cores found since the Solve
	// began, cores counts them, and boundNodes counts the nodes the bound's
	// earlier runs spent. need, spare and runFrom are the current run's:
	// the cores that close its iteration, the budget a close would spare,
	// and Stats.Nodes at its start. witnesses holds the objective of every
	// solution a check came upon, one bit per term and words words each.
	// fixed is the set a check zeroes (the stack QuickXplain grows), cand the
	// terms a core may shed; incumbent and savedWeight keep what checks
	// overwrite.
	bounded              bool
	cores, boundNodes    int64
	need, spare, runFrom int64
	inCore               []bool
	witnesses            []uint64
	words                int
	fixed, cand          []int32
	incumbent            []int64
	savedWeight          []int64
}

// noCoreBound holds the lower bound off: a test hook, which compares every
// Solve with the same Solve unbounded.
var noCoreBound bool

// resize returns b at length n, its contents left to the caller. It reuses b's
// array or doubles it: round scans and minimizations only grow a model.
func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n, max(n, 2*cap(b)))
	}
	return b[:n]
}

// searcher sets up m's searcher, and its buffers, for a Solve under opts;
// root resets what each search needs afresh, feasible what each attempt does.
func (m *Model) searcher(opts Options) *searcher {
	if m.s == nil {
		m.s = &searcher{}
		m.s.rng = rand.New(&m.s.pcg)
	}
	s, n := m.s, len(m.lo)
	s.m, s.opts, s.stats, s.ctxErr, s.seed = m, opts, Stats{}, nil, m.Fingerprint()
	s.bnd, s.values, s.wakeAt = resize(s.bnd, 2*n), resize(s.values, n), resize(s.wakeAt, 2*n+2)
	s.weight, s.preferHigh = resize(s.weight, n), resize(s.preferHigh, n)
	clear(s.weight)
	clear(s.preferHigh)
	for _, v := range opts.PreferHigh {
		s.preferHigh[v] = true
	}
	// weight marks the decision variables until the search starts.
	s.decision, s.rest = s.decision[:0], s.rest[:0]
	for _, v := range opts.BranchOrder {
		if s.weight[v] == 0 {
			s.decision, s.weight[v] = append(s.decision, v), 1
		}
	}
	for v, w := range s.weight {
		if w == 0 {
			s.rest = append(s.rest, VarID(v))
		}
	}
	clear(s.weight)
	s.order = resize(s.order, len(s.decision))
	s.bounded = m.hasObj && !opts.FirstSolution && !noCoreBound
	for _, t := range m.obj.Terms {
		s.bounded = s.bounded && t.Coeff == 1 && m.lo[t.Var] >= 0 && m.hi[t.Var] <= 1
	}
	terms := len(m.obj.Terms)
	s.cores, s.boundNodes, s.witnesses, s.words = 0, 0, s.witnesses[:0], (terms+63)/64
	s.inCore, s.fixed, s.cand = resize(s.inCore, terms), resize(s.fixed, terms), resize(s.cand, terms)
	s.incumbent, s.savedWeight = resize(s.incumbent, n), resize(s.savedWeight, n)
	clear(s.inCore)
	return s
}

// noCutoff is the cutoff feasible is told of when the objective is not yet
// bounded.
const noCutoff = 1<<63 - 1

// Solve searches for an assignment. Without an objective, or with
// FirstSolution set, it returns the first feasible one. With an objective
// it then minimizes by repeated feasibility searches under a tightening
// cutoff (obj ≤ best−1), which prunes far better than bound-based branch
// and bound when the objective is a sum of many indicator variables (the
// scheduler's temp-session count). Stats.Optimal reports whether the last
// search proved that nothing better exists; an improvement search that runs
// out of its NodeLimit/2 nodes instead ends the loop with the best solution so
// far. Each improvement search is guided by the incumbent (solution-guided
// search): on every variable it branches toward the incumbent's value first.
// When every objective term is a 0/1 variable with coefficient 1, an
// improvement search that outlasts its first restart cap also counts
// disjoint cores (coreBound): when they reach the incumbent's objective, the
// incumbent is proven optimal there and then. The bound only ends searches
// that could find nothing, so it changes Stats and never the solution.
// The cutoff rows are removed again before Solve returns.
//
// Solve never returns a nil Solution: on error it carries no Values, only
// the Stats of the effort spent before failing.
func (m *Model) Solve(opts Options) (*Solution, error) {
	start := time.Now()
	s := m.searcher(opts)
	best := &Solution{}
	err := s.feasible(noCutoff)
	// Without an objective any feasible assignment is final.
	optimal := err == nil && !m.hasObj
	if err == nil && m.hasObj && !opts.FirstSolution {
		rows := len(m.rhs)
		for err == nil {
			// Every found assignment is strictly better than the last, so
			// s.values always holds the best one.
			cutoff := Eval(m.obj, s.values) - 1
			m.AddLe(m.obj, cutoff)
			err = s.feasible(cutoff)
		}
		m.dropRowsFrom(rows)
		// Proven optimal, or out of budget with best still standing: only a
		// cancelled context discards it.
		optimal = err == ErrInfeasible
		if optimal || err == ErrTimeout {
			err = nil
		}
	}
	if err == nil {
		best.Values = append([]int64(nil), s.values...)
		if m.hasObj {
			best.Objective = Eval(m.obj, s.values)
		}
	}
	best.Stats = s.stats
	best.Stats.Optimal = optimal
	best.Stats.Duration = time.Since(start)
	return best, err
}

// dropRowsFrom removes the constraints with index ≥ n.
func (m *Model) dropRowsFrom(n int) {
	m.terms = m.terms[:m.start[n]]
	m.start, m.rhs, m.span = m.start[:n+1], m.rhs[:n], m.span[:n]
}

// feasible runs one feasibility search, under the objective cutoff given
// (noCutoff: none), with randomized Luby restarts: attempt k is capped at
// restartBaseNodes·luby(k+1) nodes, and from the second attempt on the
// decision order — the tie-break among equally weighted variables — is
// reshuffled deterministically and the value preference alternates, which
// tames the heavy-tailed runtime of chronological backtracking; the conflict
// weights carry what the lost attempts learnt into the next. An improvement
// search (any cutoff) is guided by the incumbent in s.values and gets
// NodeLimit/2 nodes. On a nil error the assignment is in s.values. s.stats is
// charged with every attempt, failed ones included, on every return. The error
// is nil, ErrInfeasible, ErrTimeout or the context's, each bare.
func (s *searcher) feasible(cutoff int64) error {
	// Seed the restart RNG from a structural fingerprint of the model, not
	// just the constraint count: two different models with equal len(cons)
	// must not share branch-order shuffles, while identical models keep
	// identical (deterministic) restart sequences. The cutoff rows differ
	// from search to search by their right-hand side only.
	s.pcg.Seed(s.seed, uint64(cutoff))
	s.guided = cutoff != noCutoff
	if s.guided && s.closed(cutoff) {
		return ErrInfeasible // by the cores of earlier iterations
	}
	if !s.root() {
		return ErrInfeasible
	}
	budget := s.opts.NodeLimit
	if s.guided {
		budget /= 2
	}
	limit := s.stats.Nodes + budget
	copy(s.order, s.decision)
	for k := 0; ; k++ {
		// Charge the nodes attempts actually explored, not the caps they
		// were granted: an attempt that returns early must not exhaust
		// NodeLimit on paper while the search barely ran.
		if s.opts.NodeLimit > 0 && s.stats.Nodes >= limit {
			return ErrTimeout
		}
		if k == 1 && s.guided && s.bounded {
			// The bound's nodes are its own: the iteration's budget, and
			// the caps of its attempts, start after them, so an iteration
			// the bound cannot close runs as it would without it.
			spent := s.stats.Nodes
			closed := s.coreBound(cutoff, limit-spent)
			if s.ctxErr != nil {
				return s.ctxErr
			}
			if closed {
				return ErrInfeasible
			}
			limit += s.stats.Nodes - spent
		}
		s.maxNodes = s.stats.Nodes + restartBaseNodes*luby(k+1)
		if s.opts.NodeLimit > 0 {
			s.maxNodes = min(s.maxNodes, limit)
		}
		if k > 0 {
			// Diversify: reshuffle the decision order deterministically and
			// alternate the value-ordering preference, so successive
			// attempts explore genuinely different parts of the tree.
			s.rng.Shuffle(len(s.order), func(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] })
		}
		s.high = k%2 == 0
		// Every attempt starts from the root fixpoint: search undoes what it
		// tightened on its way back up.
		s.found = false
		stopped := !s.cancelled() && s.search(0)
		switch {
		case s.ctxErr != nil:
			return s.ctxErr
		case s.found:
			return nil
		case !stopped:
			return ErrInfeasible
		}
	}
}

// closed reports whether the cores found so far leave no objective value ≤
// cutoff: each holds a term at 1 in every solution, and no two share one.
func (s *searcher) closed(cutoff int64) bool {
	return s.bounded && s.cores+s.m.obj.Const > cutoff
}

// coreBound runs at an improvement iteration's first restart, at the root
// fixpoint of the cut model, and reports whether disjoint cores prove the
// cut model infeasible: sets of objective terms that cannot all be 0, as in
// the core-guided lower bounds of MaxSAT solvers. A core of one cut model is
// a core of every later one, which only adds rows, so the cores persist until
// the Solve ends. For each term the incumbent sets to 1 and no core holds,
// in term order, it looks for a core (findCore) and stops at the first term
// it finds none for (the bound cannot reach the incumbent's objective then),
// or as soon as more checks are not worthwhile. spare is the iteration's
// budget left. It leaves the searcher as it found it — the incumbent in
// values, the weights, the trail — so an iteration it does not close goes on
// unchanged.
func (s *searcher) coreBound(cutoff, spare int64) bool {
	copy(s.incumbent, s.values)
	copy(s.savedWeight, s.weight)
	s.guided, s.high = false, true
	s.need, s.spare, s.runFrom = cutoff-s.m.obj.Const+1, spare, s.stats.Nodes
	for i, t := range s.m.obj.Terms {
		if s.cores >= s.need {
			break
		}
		if s.incumbent[t.Var] == 1 && !s.inCore[i] && !s.findCore(int32(i)) {
			break
		}
	}
	copy(s.values, s.incumbent)
	copy(s.weight, s.savedWeight)
	s.guided = true
	s.boundNodes += s.stats.Nodes - s.runFrom
	return s.cores >= s.need
}

// worthwhile reports whether the cores still missing are worth another
// check: at the nodes per core the Solve's bound has paid so far (all of
// them, while no core is found), they must not cost more than spare, the
// iteration's budget that closing it would save. Without a NodeLimit there
// is no budget to weigh them against.
func (s *searcher) worthwhile() bool {
	spent := s.boundNodes + s.stats.Nodes - s.runFrom
	return s.opts.NodeLimit == 0 || spent*(s.need-s.cores)/max(s.cores, 1) <= s.spare
}

// findCore files a core that holds term i and no term of an earlier core, if
// one of two sets proves to be one: i with the other free terms of its group
// (Model.MinimizeGroups; i alone when none is free) or else i with every free
// term, which QuickXplain (shrink) then cuts down to a minimal core around i.
// A term is free when no core holds it, the incumbent sets it to 0 and the
// root fixpoint leaves it the value 1.
func (s *searcher) findCore(i int32) bool {
	obj, g := s.m.obj.Terms, int32(s.m.group)
	s.fixed = append(s.fixed[:0], i)
	for j := i - i%g; j < min(i-i%g+g, int32(len(obj))); j++ {
		if j != i && s.free(j) {
			s.fixed = append(s.fixed, j)
		}
	}
	if s.isCore(s.fixed) {
		return s.file(s.fixed)
	}
	s.fixed = s.fixed[:1]
	s.cand = s.cand[:0]
	for j := range int32(len(obj)) {
		if j != i && s.free(j) {
			s.cand = append(s.cand, j)
		}
	}
	if len(s.cand) == 0 || !s.isCore(append(s.fixed, s.cand...)) {
		return false
	}
	n := s.shrink(s.cand, false)
	return s.file(append(s.fixed, s.cand[:n]...))
}

// free reports whether objective term j may join a core (see findCore).
func (s *searcher) free(j int32) bool {
	v := s.m.obj.Terms[j].Var
	return !s.inCore[j] && s.incumbent[v] == 0 && s.bnd[2*v+1] > 0
}

// file records core as one of the bound's disjoint cores.
func (s *searcher) file(core []int32) bool {
	for _, j := range core {
		s.inCore[j] = true
	}
	s.cores++
	return true
}

// shrink is QuickXplain: with s.fixed ∪ c a core, it reorders c so that
// c[:n], n returned, is a subset with s.fixed ∪ c[:n] still a core, minimal
// as far as the checks decide; check says whether s.fixed alone is worth a
// check (it is not when the caller's checks already covered it). s.fixed
// grows as a stack and is back at its length on return. A check that runs
// out of nodes counts as no core, which only keeps more of c: every set the
// recursion returns is one whose core-ness a check proved, or the caller's.
func (s *searcher) shrink(c []int32, check bool) int {
	if check && s.isCore(s.fixed) {
		return 0
	}
	if len(c) == 1 {
		return 1
	}
	h, mark := len(c)/2, len(s.fixed)
	s.fixed = append(s.fixed, c[:h]...)
	n2 := s.shrink(c[h:], true)
	s.fixed = append(s.fixed[:mark], c[h:h+n2]...)
	n1 := s.shrink(c[:h], n2 > 0)
	s.fixed = s.fixed[:mark]
	copy(c[n1:], c[h:h+n2])
	return n1 + n2
}

// isCore reports whether the cut model has no solution with every term of
// set at 0. A check fixes them, propagates, and runs the complete search
// unguided and without restarts, capped at restartBaseNodes nodes: an
// exhausted search proves a core, a solution found joins the witnesses, and
// a capped one proves nothing. A set some witness zeroes is no core, and one
// the bound no longer finds worthwhile (or a fired context) proves nothing:
// neither costs a check. It starts and ends at the root fixpoint.
func (s *searcher) isCore(set []int32) bool {
	obj := s.m.obj.Terms
	for _, j := range set {
		if s.bnd[2*obj[j].Var] > 0 {
			return true // a term the root fixpoint sets to 1
		}
	}
	if s.ctxErr != nil || !s.worthwhile() || s.witnessed(set) {
		return false
	}
	mark := len(s.trail)
	for _, j := range set {
		if slot := 2*int(obj[j].Var) + 1; s.bnd[slot] > 0 {
			s.set(slot, 0)
		}
	}
	core := !s.propagate()
	if !core {
		s.maxNodes, s.found = s.stats.Nodes+restartBaseNodes, false
		core = !s.search(0)
		if s.found {
			s.witnesses = append(s.witnesses, make([]uint64, s.words)...)
			w := s.witnesses[len(s.witnesses)-s.words:]
			for j, t := range obj {
				if s.values[t.Var] == 1 {
					w[j/64] |= 1 << (j % 64)
				}
			}
		}
	}
	s.undoTo(mark)
	return core
}

// witnessed reports whether some witness sets every term of set to 0.
func (s *searcher) witnessed(set []int32) bool {
	for at := 0; at < len(s.witnesses); at += s.words {
		w, zero := s.witnesses[at:at+s.words], true
		for _, j := range set {
			if w[j/64]&(1<<(j%64)) != 0 {
				zero = false
				break
			}
		}
		if zero {
			return true
		}
	}
	return false
}

// root loads the declared domains, files every row — cutoff rows included
// — in the wake lists of the slots it reads, computes its activity and
// propagates it (a constant infeasible row, 0 ≤ rhs < 0, fails there like
// any other); false means the model is infeasible without branching.
func (s *searcher) root() bool {
	m := s.m
	for v, lo := range m.lo {
		s.bnd[2*v], s.bnd[2*v+1] = lo, m.hi[v]
	}
	s.trail = s.trail[:0]
	// Sum each slot's reader count into starts at at[slot+1]; filing a reader
	// moves its slot's start up, to end where the next slot starts.
	at := s.wakeAt
	clear(at)
	for _, t := range m.terms {
		at[slotOf(t)+2]++
	}
	for i := 2; i < len(at); i++ {
		at[i] += at[i-1]
	}
	rows := len(m.rhs)
	s.wake, s.act, s.inQ = resize(s.wake, len(m.terms)), resize(s.act, rows), resize(s.inQ, rows)
	for ci := range rows {
		s.act[ci] = 0
		for _, t := range m.row(ci) {
			s.act[ci] += t.Coeff * s.bnd[slotOf(t)]
			s.wake[at[slotOf(t)+1]] = reader{int32(ci), t.Coeff}
			at[slotOf(t)+1]++
		}
		s.inQ[ci] = true
		s.queue = append(s.queue, int32(ci))
	}
	return s.propagate()
}

// cancelled polls opts.Ctx and records its error.
func (s *searcher) cancelled() bool {
	if s.opts.Ctx != nil && s.ctxErr == nil {
		select {
		case <-s.opts.Ctx.Done():
			s.ctxErr = s.opts.Ctx.Err()
		default:
		}
	}
	return s.ctxErr != nil
}

// limitExceeded reports whether the context fired or the attempt's node cap
// is spent; channel selects are comparatively expensive, so the context is
// polled sparsely — on the Solve's node count, which no restart resets.
func (s *searcher) limitExceeded() bool {
	if s.stats.Nodes%256 == 0 && s.cancelled() {
		return true
	}
	return s.stats.Nodes >= s.maxNodes
}

// set moves bound slot to nv — a strict tightening that keeps the domain
// non-empty — and with it the activity of the rows reading the slot, which
// it wakes. Rows holding the variable with the other sign only gain slack.
func (s *searcher) set(slot int, nv int64) {
	d := nv - s.bnd[slot]
	s.trail = append(s.trail, change{slot, s.bnd[slot]})
	s.bnd[slot] = nv
	for _, r := range s.wake[s.wakeAt[slot]:s.wakeAt[slot+1]] {
		s.act[r.row] += r.coeff * d
		if !s.inQ[r.row] {
			s.inQ[r.row] = true
			s.queue = append(s.queue, r.row)
		}
	}
}

// undoTo takes back the bound moves trailed since mark, activities included.
func (s *searcher) undoTo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		slot, old := s.trail[i].slot, s.trail[i].old
		d := old - s.bnd[slot]
		s.bnd[slot] = old
		for _, r := range s.wake[s.wakeAt[slot]:s.wakeAt[slot+1]] {
			s.act[r.row] += r.coeff * d
		}
	}
	s.trail = s.trail[:mark]
}

// propagate runs bounds-consistency to fixpoint; false means conflict (and
// an emptied queue). A visit of row Σ aᵢxᵢ ≤ rhs reads gap = rhs − act and
// tightens exactly the terms with |a|·(hi−lo) > gap, to the bound gap/a past
// the one the term reads; gap ≥ 0, so Go's truncating division is the floor
// (a > 0) or the ceiling (a < 0) wanted. No term can when gap reaches the
// row's span. A tightening writes the slot the row does not read, so it
// never moves the row's activity, never re-wakes the row and never fails:
// conflicts show as gap < 0 only.
func (s *searcher) propagate() bool {
	bnd, m := s.bnd, s.m
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQ[ci] = false
		s.stats.Propagations++
		gap := m.rhs[ci] - s.act[ci]
		if gap < 0 {
			for _, ci := range s.queue {
				s.inQ[ci] = false
			}
			s.queue = s.queue[:0]
			return false
		}
		if gap >= m.span[ci] {
			continue
		}
		for _, t := range m.row(int(ci)) {
			slot := slotOf(t)
			if t.Coeff*(bnd[slot^1]-bnd[slot]) > gap {
				s.set(slot^1, bnd[slot]+gap/t.Coeff)
			}
		}
	}
	return true
}

// search explores the subtree under the current domains depth-first; with
// every decision variable fixed, so are the variables before rest[from]. It
// returns true when the whole search must stop: the first full assignment was
// stored in s.values, or limitExceeded fired. False means the subtree is
// exhausted without a solution.
func (s *searcher) search(from int) bool {
	s.stats.Nodes++
	if s.limitExceeded() {
		return true
	}
	// Pick the unfixed decision variable with the largest weight ÷ domain
	// width, the earliest in the order among equals.
	pick, pw, pd := VarID(-1), int64(0), int64(1)
	for _, v := range s.order {
		if d := s.bnd[2*v+1] - s.bnd[2*v]; d > 0 && (1+s.weight[v])*pd > pw*d {
			pick, pw, pd = v, 1+s.weight[v], d
		}
	}
	if pick < 0 {
		// Only non-decision variables are left: first unfixed.
		for from < len(s.rest) && s.bnd[2*s.rest[from]] == s.bnd[2*s.rest[from]+1] {
			from++
		}
		if from == len(s.rest) {
			// All fixed: feasibility is all a search looks for.
			for v := range s.values {
				s.values[v] = s.bnd[2*v]
			}
			s.found = true
			return true
		}
		pick = s.rest[from]
	}
	// Binary split: left branch fixes the preferred bound (lower bound by
	// default, upper bound for PreferHigh variables), right branch
	// excludes it — the variable was unfixed, so a value is left — and
	// picks afresh, so the enumeration stays complete.
	keep, step := 2*int(pick), int64(1)
	if s.guided {
		// Toward the incumbent's value v: fix x = lo when v ≤ lo, fix x = hi
		// when v ≥ hi, and otherwise try x ≤ v before x ≥ v+1. s.values is
		// only written when the search stops, so it holds v throughout.
		if v := s.values[pick]; v >= s.bnd[keep+1] {
			keep, step = keep+1, -1
		} else if v > s.bnd[keep] {
			return s.branch(pick, keep+1, v, from) || s.branch(pick, keep, v+1, from)
		}
	} else if s.high && s.preferHigh[pick] {
		keep, step = keep+1, -1
	}
	val := s.bnd[keep]
	return s.branch(pick, keep^1, val, from) || s.branch(pick, keep, val+step, from)
}

// branch tightens bound slot of pick to nv and searches the subtree below,
// with search's result. A tightening that propagation refutes at once is a
// conflict, and costs pick one unit of weight.
func (s *searcher) branch(pick VarID, slot int, nv int64, from int) bool {
	mark := len(s.trail)
	s.set(slot, nv)
	stop := false
	if s.propagate() {
		stop = s.search(from)
	} else {
		s.weight[pick]++
	}
	s.undoTo(mark)
	return stop
}
