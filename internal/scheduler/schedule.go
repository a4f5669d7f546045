// Package scheduler implements Chameleon's second stage (§4): it encodes
// the happens-before relations, concurrent-update independence, forwarding
// loop-freedom, and the LTL specification as an integer linear program, and
// searches for the node schedule with the fewest rounds (primary objective)
// and fewest temporary BGP sessions (secondary objective).
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"chameleon/internal/analyzer"
	"chameleon/internal/fwd"
	"chameleon/internal/milp"
	"chameleon/internal/obs"
	"chameleon/internal/spec"
	"chameleon/internal/topology"
)

// Tuple is the schedule (r_old, r_nh, r_new) of one node (§4.1, Eq. 1):
// the node receives its old route until round Old, changes its next hop in
// round NH, and receives its new route from round New on.
type Tuple struct {
	Old, NH, New int
}

// NodeSchedule is the scheduler's output: a round count and a tuple per
// switching node, plus the providers chosen to pin during setup.
type NodeSchedule struct {
	// R is the number of update-phase rounds.
	R int
	// Tuples holds the (r_old, r_nh, r_new) of every switching node.
	Tuples map[topology.NodeID]Tuple
	// MOld[n] is the neighbor whose old route n is pinned to during
	// setup; topology.None when the old route arrives over eBGP.
	MOld map[topology.NodeID]topology.NodeID
	// MNew[n] is the neighbor n's new route is learned from in round
	// r_new; topology.None when the new route arrives over eBGP.
	MNew map[topology.NodeID]topology.NodeID
	// TempOldSessions and TempNewSessions count required temporary
	// sessions towards e(Pold(n)) and e(Pnew(n)).
	TempOldSessions, TempNewSessions int

	Stats Stats
}

// Stats aggregates solve effort across the round-minimization loop.
type Stats struct {
	RoundsTried  int
	SolverNodes  int64
	Propagations int64
	LPPivots     int64 // always 0: LP bounding is deleted; the frozen benchmark/plan.go reads it
	Duration     time.Duration
	Variables    int
	Constraints  int
	ObjectiveOpt bool
	// RProven is true when every round count below R (up to MaxRounds, when
	// the scan finds no schedule) was proven infeasible, false when some
	// attempt at one ended undecided.
	RProven      bool
	TempSessions int
}

// TempOld reports whether node n needs a temporary session to its old
// egress (r_old < r_nh).
func (s *NodeSchedule) TempOld(n topology.NodeID) bool {
	t, ok := s.Tuples[n]
	return ok && t.Old < t.NH
}

// TempNew reports whether node n needs a temporary session to its new
// egress (r_nh < r_new).
func (s *NodeSchedule) TempNew(n topology.NodeID) bool {
	t, ok := s.Tuples[n]
	return ok && t.NH < t.New
}

// Options tune the scheduler.
type Options struct {
	// MaxRounds caps the round-minimization loop (default 16).
	MaxRounds int
	// SolverNodeBudget is the deterministic unit every solver budget is a
	// multiple of (0: DeterministicNodeBudget): scan attempts get
	// SolverNodeBudget nodes each, retry attempts retryBudgetFactor× that,
	// and the temp-session minimization half as many nodes per improvement
	// iteration as the attempt it follows. No clock bounds a solve, so the
	// schedule for a given analysis and spec is machine- and
	// load-independent — which the parallel evaluation sweeps rely on to
	// merge byte-identical results at any worker count. The cost is that an
	// under-budgeted search is truncated at the same point everywhere
	// rather than stretching on a fast idle machine.
	SolverNodeBudget int64
	// ExplicitLoopConstraints adds the Eq. 3 cycle constraints (§4.4).
	// They are implied by the concurrency constraints (App. D) but reduce
	// solving variance; default true, disabled for the Fig. 13 ablation.
	ExplicitLoopConstraints bool
}

// DeterministicNodeBudget is the default SolverNodeBudget. The scan pass
// decides every scenario of the 5-60-router Zoo corpus within it, so it binds
// only on the search that closes a minimization. That one proves the minimum
// on 84 of the 101 Fig. 7 scenarios, 31 of them (Sprint is one) only thanks
// to the solver's disjoint-core lower bound, which ends the closing search
// long before its budget; on the other 17 it spends its 2¹⁴ nodes, and what
// the bound spent beside them, finding nothing. An improvement iteration gets
// half the budget because it branches toward the incumbent: so guided, 4 038
// of the 4 039 improvements found under the full 2¹⁵ on four corpora (Fig. 7,
// plan-zoo, plan-hard, seed 11) land within 2¹⁴ nodes of their iteration's
// start.
const DeterministicNodeBudget = 1 << 15

// The budget policy: the scan pass over R = 1..MaxRounds gives each round
// count SolverNodeBudget nodes; retryBudgetFactor scales the second look at
// each round count the scan left undecided, which runs only when the scan
// found nothing.
const retryBudgetFactor = 8

// DefaultOptions mirror the paper's configuration with one deliberate
// departure: solver budgets are deterministic node counts rather than the
// paper's wall-clock limits, so the same inputs yield the same schedule on
// any machine under any load.
func DefaultOptions() Options {
	return Options{
		MaxRounds:               16,
		SolverNodeBudget:        DeterministicNodeBudget,
		ExplicitLoopConstraints: true,
	}
}

// SplitNodeBudget divides a global deterministic solver node budget across
// prefix equivalence classes proportionally to weights (member counts):
// class i gets ⌊total·wᵢ/Σw⌋ nodes, the rounding remainder is handed out
// one node at a time in index order, and no class gets less than one node.
// The split is a pure function of (total, weights), so decomposed planning
// stays deterministic at any parallelism. A non-positive total yields all
// zeros.
func SplitNodeBudget(total int64, weights []int) []int64 {
	out := make([]int64, len(weights))
	if total <= 0 || len(weights) == 0 {
		return out
	}
	ws := make([]int64, len(weights))
	var sum int64
	for i, w := range weights {
		ws[i] = int64(w)
		if ws[i] < 1 {
			ws[i] = 1
		}
		sum += ws[i]
	}
	var given int64
	for i := range ws {
		out[i] = total * ws[i] / sum
		if out[i] < 1 {
			out[i] = 1
		}
		given += out[i]
	}
	for i := 0; given < total; i = (i + 1) % len(out) {
		out[i]++
		given++
	}
	return out
}

// ErrUnschedulable is returned when no schedule satisfying the
// specification exists within MaxRounds — the paper's "Chameleon notifies
// the user that it cannot perform the reconfiguration safely" case (§8).
var ErrUnschedulable = errors.New("scheduler: no safe schedule exists within the round limit")

// ScanError is the error of a round scan that found no schedule: Err is
// ErrUnschedulable, or the last undecided attempt's error wrapping
// milp.ErrTimeout, and Stats the effort the scan spent. errors.Is sees
// through it to either.
type ScanError struct {
	Err   error
	Stats Stats
}

func (e *ScanError) Error() string { return e.Err.Error() }
func (e *ScanError) Unwrap() error { return e.Err }

// ScheduleCtx searches for the minimum-round schedule satisfying sp. The
// specification must hold in the initial and final states (checked against
// rounds 0 and R of the induced trace). Cancellation propagates into the
// MILP branch-and-bound (polled sparsely, so aborts are prompt but cheap),
// and when ctx carries an *obs.Recorder the search records a "schedule"
// span with one "solve" child per attempted round count, counting solver
// effort (nodes, propagations) per attempt.
func ScheduleCtx(ctx context.Context, a *analyzer.Analysis, sp *spec.Spec, opts Options) (*NodeSchedule, error) {
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 16
	}
	if opts.SolverNodeBudget == 0 {
		opts.SolverNodeBudget = DeterministicNodeBudget
	}
	ctx, span := obs.StartSpan(ctx, "schedule")
	defer span.End()
	start := time.Now()
	agg := Stats{RProven: true}
	if len(a.Switching) == 0 {
		// Nothing changes announcements; the whole reconfiguration is
		// setup/cleanup only.
		return &NodeSchedule{R: 0, Tuples: map[topology.NodeID]Tuple{},
			MOld: map[topology.NodeID]topology.NodeID{},
			MNew: map[topology.NodeID]topology.NodeID{}, Stats: agg}, nil
	}
	// One encoder, and its one model, hold every round count's encoding in
	// turn: each keeps its storage, and the model its searcher's buffers,
	// for the next, and the scan hands all of it to the next scan.
	enc := getEncoder(a, sp, opts)
	defer putEncoder(enc)
	attempt := func(r int, nodes int64) (*NodeSchedule, error) {
		agg.RoundsTried++
		span.Add(obs.CtrSchedRoundsTried, 1)
		_, solveSpan := obs.StartSpan(ctx, "solve", obs.Int("R", int64(r)))
		enc.encode(r)
		sched, stats, err := enc.solve(ctx, nodes)
		agg.SolverNodes += stats.Nodes
		agg.Propagations += stats.Propagations
		agg.Variables = enc.model.NumVars()
		agg.Constraints = enc.model.NumConstraints()
		solveSpan.Add(obs.CtrMILPNodes, stats.Nodes)
		solveSpan.Add(obs.CtrMILPPropagations, stats.Propagations)
		switch {
		case err == nil:
			agg.ObjectiveOpt = stats.Optimal
			span.Add(obs.CtrSchedSolvesOK, 1)
		case errors.Is(err, milp.ErrInfeasible):
			span.Add(obs.CtrSchedSolvesInfeas, 1)
		}
		solveSpan.End()
		return sched, err
	}
	finish := func(sched *NodeSchedule, rProven bool) (*NodeSchedule, error) {
		agg.Duration = time.Since(start)
		agg.RProven = rProven
		sched.Stats = agg
		sched.Stats.TempSessions = sched.TempOldSessions + sched.TempNewSessions
		return sched, nil
	}

	// Scan pass: cheap budget per round count; skip past infeasible and
	// undecided rounds alike (larger round counts are usually easier).
	var undecided []int
	for r := 1; r <= opts.MaxRounds; r++ {
		sched, err := attempt(r, opts.SolverNodeBudget)
		if err == nil {
			return finish(sched, len(undecided) == 0)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !errors.Is(err, milp.ErrInfeasible) {
			undecided = append(undecided, r)
		}
	}
	// Retry pass: a larger budget for the undecided round counts (ascending,
	// so the returned R stays as small as the budget allows). Its one known
	// customer is Kdl (754 routers, `evalharness -fig 7 -full`): R = 1..7 are
	// proven infeasible, 8..16 undecided in the scan, and the retry finds
	// R = 8. No ≤ 200-router scenario of the corpus gets here.
	var lastErr error
	for _, r := range undecided {
		sched, err := attempt(r, retryBudgetFactor*opts.SolverNodeBudget)
		if err == nil {
			return finish(sched, lastErr == nil)
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !errors.Is(err, milp.ErrInfeasible) {
			lastErr = fmt.Errorf("scheduler: solving with R=%d: %w", r, err)
		}
	}
	agg.Duration = time.Since(start)
	agg.RProven = lastErr == nil
	if lastErr == nil {
		lastErr = ErrUnschedulable
	}
	return nil, &ScanError{Err: lastErr, Stats: agg}
}

// Validate checks a schedule against the §4 constraints independently of
// the solver: Eq. 1 ordering, happens-before feasibility (signaling level),
// temporary-session egress coupling, per-round forwarding-path independence
// (Eq. 2), loop-freedom of every intermediate state, and the specification
// over the induced forwarding trace.
func Validate(a *analyzer.Analysis, sp *spec.Spec, s *NodeSchedule) error {
	// Happens-before: the provider pinned at setup must outlive the node's
	// old-route horizon, and the new provider must precede r_new. A node
	// with r_old = 0 lives on its temporary old-egress session from setup;
	// one with r_new = R+1 receives its final route during cleanup.
	for _, n := range a.Switching {
		t := s.Tuples[n]
		if !a.ExtProviderOld[n] && t.Old >= 1 {
			ok := false
			for _, m := range a.DOld[n] {
				if hOld(a, s, m) > t.Old {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("node %d: no provider outlives r_old=%d", n, t.Old)
			}
		}
		if !a.ExtProviderNew[n] && t.New <= s.R {
			ok := false
			for _, m := range a.DNew[n] {
				if hNew(a, s, m) < t.New {
					ok = true
				}
			}
			if !ok {
				return fmt.Errorf("node %d: no provider precedes r_new=%d", n, t.New)
			}
		}
		// Temporary sessions only carry routes while the egress selects
		// them (§3 technique 1).
		if t.Old < t.NH {
			if eo := a.POld[n].Egress; eo != n {
				if te, ok := s.Tuples[eo]; ok && t.NH > te.NH {
					return fmt.Errorf("node %d uses a temp old session beyond the old egress's switch (%d > %d)", n, t.NH, te.NH)
				}
			}
		}
		if t.NH < t.New {
			if en := a.PNew[n].Egress; en != n {
				if te, ok := s.Tuples[en]; ok && t.NH < te.NH {
					return fmt.Errorf("node %d uses a temp new session before the new egress's switch (%d < %d)", n, t.NH, te.NH)
				}
			}
		}
	}
	return ValidateForwarding(a, sp, s)
}

// ValidateForwarding checks only the forwarding-level guarantees of a
// schedule: Eq. 1 ordering, per-round independence, loop-freedom, and the
// specification over the induced trace. The constructive App. B scheduler
// is validated at this level (Theorem 1 concerns forwarding only).
func ValidateForwarding(a *analyzer.Analysis, sp *spec.Spec, s *NodeSchedule) error {
	for n, t := range s.Tuples {
		if !(0 <= t.Old && t.Old <= t.NH && 1 <= t.NH && t.NH <= s.R && t.NH <= t.New && t.New <= s.R+1) {
			return fmt.Errorf("node %d tuple %+v violates 0 ≤ r_old ≤ r_nh ≤ r_new ≤ R+1", n, t)
		}
	}
	// Per-round independence and loop freedom over the induced trace.
	trace := InducedTrace(a, s)
	for k := 1; k <= s.R; k++ {
		if trace[k].HasLoop() {
			return fmt.Errorf("round %d has a forwarding loop", k)
		}
		// Every node whose nh changes in round k must not have another
		// change on its old or new forwarding path.
		for _, n := range changersAt(a, s, k) {
			for _, st := range []fwd.State{trace[k-1], trace[k]} {
				path, _ := st.Path(n)
				for _, p := range path[1:] {
					if t, ok := s.Tuples[p]; ok && t.NH == k && a.ChangesNextHop(p) {
						return fmt.Errorf("round %d: dependent concurrent updates %d and %d", k, n, p)
					}
				}
			}
		}
	}
	if sp != nil {
		// The encoder asserts the specification root at round 1 (§4.3);
		// validate against the same semantics. With R = 0 the trace is the
		// one state, and the specification holds or fails on it.
		if !sp.Eval(trace[min(1, s.R):]) {
			return fmt.Errorf("specification violated by the induced trace")
		}
	}
	return nil
}

// hOld returns the round horizon until which m announces its old route:
// R+1 if m never switches announcement, its r_old otherwise.
func hOld(a *analyzer.Analysis, s *NodeSchedule, m topology.NodeID) int {
	if t, ok := s.Tuples[m]; ok {
		return t.Old
	}
	return s.R + 1
}

// hNew returns the first round from which m announces its new route: 0 if
// m never switches announcement, its r_new otherwise.
func hNew(a *analyzer.Analysis, s *NodeSchedule, m topology.NodeID) int {
	if t, ok := s.Tuples[m]; ok {
		return t.New
	}
	return 0
}

func changersAt(a *analyzer.Analysis, s *NodeSchedule, k int) []topology.NodeID {
	var out []topology.NodeID
	for n, t := range s.Tuples {
		if t.NH == k && a.ChangesNextHop(n) {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InducedTrace returns the forwarding states [round 0 .. round R] induced
// by the schedule: in round k, nodes with r_nh ≤ k use their new next hop.
func InducedTrace(a *analyzer.Analysis, s *NodeSchedule) []fwd.State {
	trace := make([]fwd.State, s.R+1)
	for k := 0; k <= s.R; k++ {
		st := a.NHOld.Clone()
		for n, t := range s.Tuples {
			if t.NH <= k {
				st[n] = a.NHNew[n]
			}
		}
		trace[k] = st
	}
	return trace
}
