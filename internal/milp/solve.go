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
	// finds early. It is the only budget, so the same model under the same
	// limit returns the same result regardless of machine speed or load.
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
}

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
	if !s.root() {
		return ErrInfeasible
	}
	s.guided = cutoff != noCutoff
	budget := s.opts.NodeLimit
	if s.guided {
		budget /= 2
	}
	limit := s.stats.Nodes + budget
	copy(s.order, s.decision)
	for k := 0; ; k++ {
		s.maxNodes = s.stats.Nodes + restartBaseNodes*luby(k+1)
		if s.opts.NodeLimit > 0 {
			// Charge the nodes attempts actually explored, not the caps
			// they were granted: an attempt that returns early must not
			// exhaust NodeLimit on paper while the search barely ran.
			if s.stats.Nodes >= limit {
				return ErrTimeout
			}
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
