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

type change struct {
	v            VarID
	oldLo, oldHi int64
}

type searcher struct {
	m     *Model
	lo    []int64
	hi    []int64
	trail []change
	queue []int32
	inQ   []bool

	order      []VarID
	preferHigh []bool

	maxNodes int64 // this attempt's node cap
	opts     Options
	stats    Stats
	values   []int64 // the first full assignment, once found
	ctxErr   error   // set when opts.Ctx fired during the search
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
	best, total, err := m.feasible(opts)
	// Without an objective any feasible assignment is final.
	total.Optimal = err == nil && !m.hasObj
	if err == nil && m.hasObj && !opts.FirstSolution {
		rows := len(m.cons)
		for {
			m.AddLe(m.obj, best.Objective-1)
			sol, st, ferr := m.feasible(opts)
			total.add(st)
			if ferr != nil {
				err = ferr
				break
			}
			best = sol
		}
		m.dropRowsFrom(rows)
		// Proven optimal, or out of budget with best still standing: only a
		// cancelled context discards it.
		total.Optimal = err == ErrInfeasible
		if total.Optimal || err == ErrTimeout {
			err = nil
		}
	}
	total.Duration = time.Since(start)
	if err != nil {
		best = &Solution{}
	}
	best.Stats = total
	return best, err
}

// dropRowsFrom removes the constraints with index ≥ n. They must be the
// most recently posted ones, so each sits at the tail of its variables'
// varCons lists.
func (m *Model) dropRowsFrom(n int) {
	for _, c := range m.cons[n:] {
		for _, t := range c.terms {
			vc := m.varCons[t.Var]
			m.varCons[t.Var] = vc[:len(vc)-1]
		}
	}
	m.cons = m.cons[:n]
}

// feasible runs one feasibility search with randomized geometric restarts:
// attempt k is capped at restartBaseNodes·2^k nodes, and from the second
// attempt on the branch order is reshuffled deterministically, which tames
// the heavy-tailed runtime of chronological backtracking. The returned
// Stats charge every attempt, failed ones included, on every return. The
// error is nil, ErrInfeasible, ErrTimeout or the context's, each bare.
func (m *Model) feasible(opts Options) (*Solution, Stats, error) {
	// Seed the restart RNG from a structural fingerprint of the model, not
	// just the constraint count: two different models with equal len(cons)
	// must not share branch-order shuffles, while identical models keep
	// identical (deterministic) restart sequences.
	rng := rand.New(rand.NewPCG(0x9e3779b97f4a7c15, m.Fingerprint()))
	var total Stats
	for k, grant := 0, int64(restartBaseNodes); ; k, grant = k+1, 2*grant {
		inner, maxNodes := opts, grant
		if opts.NodeLimit > 0 {
			// Charge the nodes attempts actually explored, not the caps
			// they were granted: an attempt that returns early must not
			// exhaust NodeLimit on paper while the search barely ran.
			remaining := opts.NodeLimit - total.Nodes
			if remaining <= 0 {
				return nil, total, ErrTimeout
			}
			maxNodes = min(maxNodes, remaining)
		}
		if k > 0 {
			// Diversify: reshuffle the branch order deterministically and
			// alternate the value-ordering preference, so successive
			// attempts explore genuinely different parts of the tree.
			inner.BranchOrder = append([]VarID(nil), opts.BranchOrder...)
			rng.Shuffle(len(inner.BranchOrder), func(i, j int) {
				inner.BranchOrder[i], inner.BranchOrder[j] = inner.BranchOrder[j], inner.BranchOrder[i]
			})
			if k%2 == 1 {
				inner.PreferHigh = nil
			}
		}
		sol, st, err := m.attempt(inner, maxNodes)
		total.add(st)
		if err != errLimit {
			return sol, total, err
		}
	}
}

// errLimit is attempt's "node cap reached, nothing decided" — feasible turns
// it into the next restart or ErrTimeout.
var errLimit = errors.New("milp: limit")

// attempt runs a single depth-first search of at most maxNodes nodes and
// stops at the first full assignment. Its error is nil, ErrInfeasible, the
// context's error, or errLimit.
func (m *Model) attempt(opts Options, maxNodes int64) (*Solution, Stats, error) {
	s := &searcher{
		m:        m,
		lo:       append([]int64(nil), m.lo...),
		hi:       append([]int64(nil), m.hi...),
		inQ:      make([]bool, len(m.cons)),
		maxNodes: maxNodes,
		opts:     opts,
	}
	if opts.UseLPBound && opts.LPBoundEvery == 0 {
		s.opts.LPBoundEvery = 512
	}
	s.preferHigh = make([]bool, len(m.lo))
	for _, v := range opts.PreferHigh {
		s.preferHigh[v] = true
	}
	// Branch order: explicit list first, then remaining variables.
	seen := make([]bool, len(m.lo))
	for _, v := range opts.BranchOrder {
		if !seen[v] {
			s.order = append(s.order, v)
			seen[v] = true
		}
	}
	for v := range m.lo {
		if !seen[v] {
			s.order = append(s.order, VarID(v))
		}
	}
	// Constant infeasible rows (posted by addLe with empty terms).
	for _, c := range m.cons {
		if len(c.terms) == 0 && c.rhs < 0 {
			return nil, s.stats, ErrInfeasible
		}
	}
	// Root propagation.
	for i := range m.cons {
		s.enqueue(int32(i))
	}
	if !s.propagate() {
		return nil, s.stats, ErrInfeasible
	}
	stopped := s.search()
	switch {
	case s.ctxErr != nil:
		return nil, s.stats, s.ctxErr
	case s.values != nil:
		sol := &Solution{Values: s.values}
		if m.hasObj {
			sol.Objective = Eval(m.obj, s.values)
		}
		return sol, s.stats, nil
	case stopped:
		return nil, s.stats, errLimit
	}
	return nil, s.stats, ErrInfeasible
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

func (s *searcher) enqueue(ci int32) {
	if !s.inQ[ci] {
		s.inQ[ci] = true
		s.queue = append(s.queue, ci)
	}
}

func (s *searcher) setLo(v VarID, nv int64) bool {
	if nv <= s.lo[v] {
		return true
	}
	if nv > s.hi[v] {
		return false
	}
	s.trail = append(s.trail, change{v, s.lo[v], s.hi[v]})
	s.lo[v] = nv
	for _, ci := range s.m.varCons[v] {
		s.enqueue(ci)
	}
	return true
}

func (s *searcher) setHi(v VarID, nv int64) bool {
	if nv >= s.hi[v] {
		return true
	}
	if nv < s.lo[v] {
		return false
	}
	s.trail = append(s.trail, change{v, s.lo[v], s.hi[v]})
	s.hi[v] = nv
	for _, ci := range s.m.varCons[v] {
		s.enqueue(ci)
	}
	return true
}

func (s *searcher) undoTo(mark int) {
	for len(s.trail) > mark {
		c := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		s.lo[c.v] = c.oldLo
		s.hi[c.v] = c.oldHi
	}
}

// divFloor computes floor(p/q) for q > 0.
func divFloor(p, q int64) int64 {
	d := p / q
	if p%q != 0 && (p < 0) != (q < 0) {
		d--
	}
	return d
}

// divCeil computes ceil(p/q).
func divCeil(p, q int64) int64 {
	d := p / q
	if p%q != 0 && (p < 0) == (q < 0) {
		d++
	}
	return d
}

// propagate runs bounds-consistency to fixpoint; false means conflict.
func (s *searcher) propagate() bool {
	for len(s.queue) > 0 {
		ci := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		s.inQ[ci] = false
		s.stats.Propagations++
		c := &s.m.cons[ci]
		// minSum = Σ min(a_i·x_i).
		var minSum int64
		for _, t := range c.terms {
			if t.Coeff > 0 {
				minSum += t.Coeff * s.lo[t.Var]
			} else {
				minSum += t.Coeff * s.hi[t.Var]
			}
		}
		if minSum > c.rhs {
			s.clearQueue()
			return false
		}
		for _, t := range c.terms {
			var tMin int64
			if t.Coeff > 0 {
				tMin = t.Coeff * s.lo[t.Var]
			} else {
				tMin = t.Coeff * s.hi[t.Var]
			}
			slack := c.rhs - (minSum - tMin)
			if t.Coeff > 0 {
				// x ≤ floor(slack / coeff)
				if ub := divFloor(slack, t.Coeff); ub < s.hi[t.Var] {
					if !s.setHi(t.Var, ub) {
						s.clearQueue()
						return false
					}
				}
			} else {
				// coeff < 0: x ≥ ceil(slack / coeff)
				if lb := divCeil(slack, t.Coeff); lb > s.lo[t.Var] {
					if !s.setLo(t.Var, lb) {
						s.clearQueue()
						return false
					}
				}
			}
		}
	}
	return true
}

func (s *searcher) clearQueue() {
	for _, ci := range s.queue {
		s.inQ[ci] = false
	}
	s.queue = s.queue[:0]
}

// lpBound solves the LP relaxation under current domains; returns false if
// the node can be pruned.
func (s *searcher) lpBound() bool {
	s.stats.LPBounds++
	n := len(s.lo)
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
		p.AddLe(row, float64(s.hi[v]))
		if s.lo[v] > 0 {
			neg := make([]float64, n)
			neg[v] = -1
			p.AddLe(neg, -float64(s.lo[v]))
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return !errors.Is(err, lp.ErrInfeasible)
	}
	s.stats.LPPivots += int64(sol.Pivots)
	return true
}

// search explores the subtree under the current domains depth-first. It
// returns true when the whole search must stop: the first full assignment
// was stored in s.values, or limitExceeded fired. False means the subtree is
// exhausted without a solution.
func (s *searcher) search() bool {
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
	var pick VarID = -1
	for _, v := range s.order {
		if s.lo[v] != s.hi[v] {
			pick = v
			break
		}
	}
	if pick == -1 {
		// All fixed: feasibility is all an attempt looks for.
		s.values = append([]int64(nil), s.lo...)
		return true
	}
	// Binary split: left branch fixes the preferred bound (lower bound by
	// default, upper bound for PreferHigh variables), right branch
	// excludes it; re-picking the still-unfixed variable keeps the
	// enumeration complete.
	var fixLeft func() bool
	var shrinkRight func() bool
	if s.preferHigh[pick] {
		hi := s.hi[pick]
		fixLeft = func() bool { return s.setLo(pick, hi) }
		shrinkRight = func() bool { return s.setHi(pick, hi-1) }
	} else {
		lo := s.lo[pick]
		fixLeft = func() bool { return s.setHi(pick, lo) }
		shrinkRight = func() bool { return s.setLo(pick, lo+1) }
	}
	mark := len(s.trail)
	if fixLeft() && s.propagate() {
		if s.search() {
			s.undoTo(mark)
			return true
		}
	} else {
		s.clearQueue()
	}
	s.undoTo(mark)
	if s.lo[pick] == s.hi[pick] {
		return false // the excluded value was the last one
	}
	mark = len(s.trail)
	stop := false
	if shrinkRight() && s.propagate() {
		stop = s.search()
	} else {
		s.clearQueue()
	}
	s.undoTo(mark)
	return stop
}
