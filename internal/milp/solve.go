package milp

import (
	"context"
	"errors"
	"math/rand/v2"
	"time"

	"chameleon/internal/lp"
)

// Errors returned by Solve.
var (
	// ErrInfeasible means the model admits no integer solution.
	ErrInfeasible = errors.New("milp: infeasible")
	// ErrTimeout means NodeLimit was spent before any solution was found.
	ErrTimeout = errors.New("milp: node limit exceeded")
)

// restartBaseNodes is the node cap of a search's first attempt; attempt k is
// capped at restartBaseNodes·2^k.
const restartBaseNodes = 4096

// Options tune the branch-and-bound search.
type Options struct {
	// NodeLimit bounds the nodes one feasibility search may explore across
	// all its restart attempts (0: unlimited). When Solve minimizes, every
	// improvement iteration is a search of its own and gets NodeLimit
	// afresh. It is the only budget, so the same model under the same limit
	// returns the same result regardless of machine speed or load.
	NodeLimit int64
	// BranchOrder lists variables to branch on first, in order. Remaining
	// variables follow in declaration order.
	BranchOrder []VarID
	// PreferHigh lists variables whose values are enumerated descending
	// (try the upper bound first); all others ascend.
	PreferHigh []VarID
	// FirstSolution stops at the first feasible solution even when an
	// objective is set (used by the round-minimization outer loop, which
	// only needs feasibility at each R).
	FirstSolution bool
	// UseLPBound enables LP-relaxation infeasibility pruning at the root
	// and every LPBoundEvery nodes (ablation: §7.1 solver engine).
	UseLPBound bool
	// LPBoundEvery is the node interval between LP bounding calls
	// (default 512 when UseLPBound).
	LPBoundEvery int64
	// Ctx, when non-nil, is polled every 256 nodes and aborts the search
	// with the context's error. Cancellation discards any solution found so
	// far: a cancelled solve returns ctx.Err(), never a partial result.
	Ctx context.Context
}

// Stats reports search effort.
type Stats struct {
	Nodes        int64
	Propagations int64
	Duration     time.Duration
	LPBounds     int64
	LPPivots     int64
	Optimal      bool
}

// add charges o's effort counters to st.
func (st *Stats) add(o Stats) {
	st.Nodes += o.Nodes
	st.Propagations += o.Propagations
	st.LPBounds += o.LPBounds
	st.LPPivots += o.LPPivots
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

// searcher holds the state of every search one Solve runs: its buffers are
// sized once and reset, not re-made, for each restart attempt and each
// improvement iteration.
type searcher struct {
	m *Model
	// bnd interleaves the current domains: bnd[2v] is v's lower bound,
	// bnd[2v+1] its upper bound. A term a·x reads the slot that gives its
	// minimum (slotOf) and tightens the other one.
	bnd   []int64
	trail []change
	queue []int32
	inQ   []bool

	order      []VarID
	shuffled   []VarID // BranchOrder as reshuffled for restart attempts
	preferHigh []bool
	seen       []bool
	pcg        rand.PCG
	rng        *rand.Rand

	maxNodes int64 // this attempt's node cap
	opts     Options
	stats    Stats   // this attempt's effort
	values   []int64 // the latest full assignment
	found    bool    // this attempt stored one in values
	ctxErr   error   // set when opts.Ctx fired during the search
}

func newSearcher(m *Model, opts Options) *searcher {
	n := len(m.lo)
	s := &searcher{
		m:          m,
		bnd:        make([]int64, 2*n),
		inQ:        make([]bool, len(m.cons)),
		order:      make([]VarID, 0, n),
		shuffled:   make([]VarID, len(opts.BranchOrder)),
		preferHigh: make([]bool, n),
		seen:       make([]bool, n),
		values:     make([]int64, n),
		opts:       opts,
	}
	s.rng = rand.New(&s.pcg)
	if opts.UseLPBound && opts.LPBoundEvery == 0 {
		s.opts.LPBoundEvery = 512
	}
	return s
}

// Solve searches for an assignment. Without an objective, or with
// FirstSolution set, it returns the first feasible one. With an objective
// it then minimizes by repeated feasibility searches under a tightening
// cutoff (obj ≤ best−1), which prunes far better than bound-based branch
// and bound when the objective is a sum of many indicator variables (the
// scheduler's temp-session count). Stats.Optimal reports whether the last
// search proved that nothing better exists; an improvement search that runs
// out of NodeLimit instead ends the loop with the best solution so far. The
// cutoff rows are removed again before Solve returns.
//
// Solve never returns a nil Solution: on error it carries no Values, only
// the Stats of the effort spent before failing.
func (m *Model) Solve(opts Options) (*Solution, error) {
	start := time.Now()
	s := newSearcher(m, opts)
	best := &Solution{}
	total, err := s.feasible()
	// Without an objective any feasible assignment is final.
	total.Optimal = err == nil && !m.hasObj
	if err == nil && m.hasObj && !opts.FirstSolution {
		rows := len(m.cons)
		for err == nil {
			// Every found assignment is strictly better than the last, so
			// s.values always holds the best one.
			m.AddLe(m.obj, Eval(m.obj, s.values)-1)
			var st Stats
			st, err = s.feasible()
			total.add(st)
		}
		m.dropRowsFrom(rows)
		// Proven optimal, or out of budget with best still standing: only a
		// cancelled context discards it.
		total.Optimal = err == ErrInfeasible
		if total.Optimal || err == ErrTimeout {
			err = nil
		}
	}
	if err == nil {
		best.Values = s.values
		if m.hasObj {
			best.Objective = Eval(m.obj, s.values)
		}
	}
	total.Duration = time.Since(start)
	best.Stats = total
	return best, err
}

// dropRowsFrom removes the constraints with index ≥ n. They must be the
// most recently posted ones, so each sits at the tail of the wake list of
// every slot it reads.
func (m *Model) dropRowsFrom(n int) {
	for _, c := range m.cons[n:] {
		for _, t := range c.terms {
			w := m.wake[slotOf(t)]
			m.wake[slotOf(t)] = w[:len(w)-1]
		}
	}
	m.cons = m.cons[:n]
}

// feasible runs one feasibility search with randomized geometric restarts:
// attempt k is capped at restartBaseNodes·2^k nodes, and from the second
// attempt on the branch order is reshuffled deterministically, which tames
// the heavy-tailed runtime of chronological backtracking. On a nil error the
// assignment is in s.values. The returned Stats charge every attempt, failed
// ones included, on every return. The error is nil, ErrInfeasible,
// ErrTimeout or the context's, each bare.
func (s *searcher) feasible() (Stats, error) {
	// Seed the restart RNG from a structural fingerprint of the model, not
	// just the constraint count: two different models with equal len(cons)
	// must not share branch-order shuffles, while identical models keep
	// identical (deterministic) restart sequences.
	s.pcg.Seed(0x9e3779b97f4a7c15, s.m.Fingerprint())
	var total Stats
	for k, grant := 0, int64(restartBaseNodes); ; k, grant = k+1, 2*grant {
		order, preferHigh, maxNodes := s.opts.BranchOrder, s.opts.PreferHigh, grant
		if s.opts.NodeLimit > 0 {
			// Charge the nodes attempts actually explored, not the caps
			// they were granted: an attempt that returns early must not
			// exhaust NodeLimit on paper while the search barely ran.
			remaining := s.opts.NodeLimit - total.Nodes
			if remaining <= 0 {
				return total, ErrTimeout
			}
			maxNodes = min(maxNodes, remaining)
		}
		if k > 0 {
			// Diversify: reshuffle the branch order deterministically and
			// alternate the value-ordering preference, so successive
			// attempts explore genuinely different parts of the tree.
			order = s.shuffled
			copy(order, s.opts.BranchOrder)
			s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			if k%2 == 1 {
				preferHigh = nil
			}
		}
		err := s.attempt(order, preferHigh, maxNodes)
		total.add(s.stats)
		if err != errLimit {
			return total, err
		}
	}
}

// errLimit is attempt's "node cap reached, nothing decided" — feasible turns
// it into the next restart or ErrTimeout.
var errLimit = errors.New("milp: limit")

// attempt runs a single depth-first search of at most maxNodes nodes and
// stops at the first full assignment, which it leaves in s.values; its
// effort is s.stats. Its error is nil, ErrInfeasible, the context's error,
// or errLimit.
func (s *searcher) attempt(branchOrder, preferHigh []VarID, maxNodes int64) error {
	s.maxNodes, s.stats, s.found = maxNodes, Stats{}, false
	clear(s.preferHigh)
	for _, v := range preferHigh {
		s.preferHigh[v] = true
	}
	// Branch order: explicit list first, then remaining variables.
	clear(s.seen)
	s.order = s.order[:0]
	for _, v := range branchOrder {
		if !s.seen[v] {
			s.order = append(s.order, v)
			s.seen[v] = true
		}
	}
	for v := range s.seen {
		if !s.seen[v] {
			s.order = append(s.order, VarID(v))
		}
	}
	if !s.root() {
		return ErrInfeasible
	}
	stopped := s.search(0)
	switch {
	case s.ctxErr != nil:
		return s.ctxErr
	case s.found:
		return nil
	case stopped:
		return errLimit
	}
	return ErrInfeasible
}

// root loads the declared domains and propagates every row (a constant
// infeasible row, 0 ≤ rhs < 0, fails there like any other); false means the
// model is infeasible without branching.
func (s *searcher) root() bool {
	for v, lo := range s.m.lo {
		s.bnd[2*v], s.bnd[2*v+1] = lo, s.m.hi[v]
	}
	s.trail = s.trail[:0]
	for len(s.inQ) < len(s.m.cons) {
		s.inQ = append(s.inQ, false) // cutoff rows posted since the last attempt
	}
	for i := range s.m.cons {
		s.inQ[i] = true
		s.queue = append(s.queue, int32(i))
	}
	return s.propagate()
}

// limitExceeded reports whether the attempt's node cap is spent or the
// context fired; channel selects are comparatively expensive, so the
// context is polled sparsely.
func (s *searcher) limitExceeded() bool {
	if s.stats.Nodes >= s.maxNodes {
		return true
	}
	if s.opts.Ctx != nil && s.stats.Nodes%256 == 0 {
		select {
		case <-s.opts.Ctx.Done():
			s.ctxErr = s.opts.Ctx.Err()
			return true
		default:
		}
	}
	return false
}

// set moves bound slot to nv — a strict tightening that keeps the domain
// non-empty — and wakes the rows whose minSum that raises: those reading
// the slot. Rows holding the variable with the other sign only gain slack.
func (s *searcher) set(slot int, nv int64) {
	s.trail = append(s.trail, change{slot, s.bnd[slot]})
	s.bnd[slot] = nv
	for _, ci := range s.m.wake[slot] {
		if !s.inQ[ci] {
			s.inQ[ci] = true
			s.queue = append(s.queue, ci)
		}
	}
}

func (s *searcher) undoTo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		s.bnd[s.trail[i].slot] = s.trail[i].old
	}
	s.trail = s.trail[:mark]
}

// propagate runs bounds-consistency to fixpoint; false means conflict (and
// an emptied queue). A visit of row Σ aᵢxᵢ ≤ rhs computes gap = rhs − minSum
// and tightens exactly the terms with |a|·(hi−lo) > gap, to the bound
// gap/a past the one the term reads; gap ≥ 0, so Go's truncating division
// is the floor (a > 0) or the ceiling (a < 0) wanted. A tightening writes
// the slot the row does not read, so it never re-wakes the row and never
// fails: conflicts show as gap < 0 only.
func (s *searcher) propagate() bool {
	bnd := s.bnd
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQ[ci] = false
		s.stats.Propagations++
		c := &s.m.cons[ci]
		gap := c.rhs
		for _, t := range c.terms {
			gap -= t.Coeff * bnd[slotOf(t)]
		}
		if gap < 0 {
			for _, ci := range s.queue {
				s.inQ[ci] = false
			}
			s.queue = s.queue[:0]
			return false
		}
		for _, t := range c.terms {
			slot := slotOf(t)
			if t.Coeff*(bnd[slot^1]-bnd[slot]) > gap {
				s.set(slot^1, bnd[slot]+gap/t.Coeff)
			}
		}
	}
	return true
}

// lpBound solves the LP relaxation under current domains; returns false if
// the node can be pruned.
func (s *searcher) lpBound() bool {
	s.stats.LPBounds++
	n := len(s.m.lo)
	p := lp.NewProblem(n)
	for _, c := range s.m.cons {
		row := make([]float64, n)
		for _, t := range c.terms {
			row[int(t.Var)] += float64(t.Coeff)
		}
		p.AddLe(row, float64(c.rhs))
	}
	// Domain bounds as rows (shifted formulation avoided for simplicity:
	// x ≥ lo becomes -x ≤ -lo).
	for v := 0; v < n; v++ {
		row := make([]float64, n)
		row[v] = 1
		p.AddLe(row, float64(s.bnd[2*v+1]))
		if lo := s.bnd[2*v]; lo > 0 {
			neg := make([]float64, n)
			neg[v] = -1
			p.AddLe(neg, -float64(lo))
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return !errors.Is(err, lp.ErrInfeasible)
	}
	s.stats.LPPivots += int64(sol.Pivots)
	return true
}

// search explores the subtree under the current domains depth-first; the
// variables before order[from] are fixed already. It returns true when the
// whole search must stop: the first full assignment was stored in s.values,
// or limitExceeded fired. False means the subtree is exhausted without a
// solution.
func (s *searcher) search(from int) bool {
	s.stats.Nodes++
	if s.limitExceeded() {
		return true
	}
	if s.opts.UseLPBound && (s.stats.Nodes == 1 || s.stats.Nodes%s.opts.LPBoundEvery == 0) {
		if !s.lpBound() {
			return false
		}
	}
	// Pick the next variable: first unfixed in branch order.
	for from < len(s.order) && s.bnd[2*s.order[from]] == s.bnd[2*s.order[from]+1] {
		from++
	}
	if from == len(s.order) {
		// All fixed: feasibility is all an attempt looks for.
		for v := range s.values {
			s.values[v] = s.bnd[2*v]
		}
		s.found = true
		return true
	}
	// Binary split: left branch fixes the preferred bound (lower bound by
	// default, upper bound for PreferHigh variables), right branch
	// excludes it; re-picking the still-unfixed variable keeps the
	// enumeration complete.
	keep, step := 2*int(s.order[from]), int64(1)
	if s.preferHigh[s.order[from]] {
		keep, step = keep+1, -1
	}
	val, mark := s.bnd[keep], len(s.trail)
	s.set(keep^1, val)
	stop := s.propagate() && s.search(from)
	s.undoTo(mark)
	if !stop {
		s.set(keep, val+step) // the variable was unfixed, so a value is left
		stop = s.propagate() && s.search(from)
		s.undoTo(mark)
	}
	return stop
}
