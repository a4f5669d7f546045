package milp

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// subsetSum posts Σ aᵢxᵢ = T over n binary xᵢ with weights up to 2¹⁶, which
// few subsets reach and bounds propagation barely prunes, so a search from
// scratch backtracks a long way; and z ∈ [0, 5], which no row reads.
func subsetSum(n int) (*Model, Options, VarID) {
	rng := rand.New(rand.NewPCG(47, 1))
	m := NewModel()
	z := m.NewInt(0, 5)
	opts := Options{BranchOrder: []VarID{z}}
	var sum LinExpr
	var target int64
	for i := 0; i < n; i++ {
		x, a := m.NewBool(), int64(1+rng.IntN(1<<16))
		sum.Terms = append(sum.Terms, Term{x, a})
		if rng.IntN(2) == 0 {
			target += a
		}
		opts.BranchOrder = append(opts.BranchOrder, x)
	}
	m.AddEq(sum, target)
	return m, opts, z
}

// TestGuidedImprovementFollowsIncumbent: an improvement iteration branches
// toward the incumbent, so an improvement one variable away from it is found
// on a path that never backtracks, within depth + 1 nodes: at most one per
// variable and the root. Here the incumbent is the subset sum's solution with
// z = 5 and the cutoff z ≤ 4; an unguided search would solve the subset sum
// again from scratch, as the first search did.
func TestGuidedImprovementFollowsIncumbent(t *testing.T) {
	m, opts, z := subsetSum(16)
	s := m.searcher(opts)
	if err := s.feasible(noCutoff); err != nil {
		t.Fatal(err)
	}
	first := s.stats.Nodes
	incumbent := slices.Clone(s.values)
	incumbent[z] = 5
	copy(s.values, incumbent)
	m.AddLe(VarExpr(z), 4)
	if err := s.feasible(4); err != nil {
		t.Fatalf("the improvement search: %v", err)
	}
	improve, depth := s.stats.Nodes-first, int64(m.NumVars())
	t.Logf("first search %d nodes, the improvement %d", first, improve)
	incumbent[z] = 4
	if !slices.Equal(s.values, incumbent) {
		t.Errorf("the improvement search found %v, want %v: the incumbent with z = 4", s.values, incumbent)
	}
	if improve > depth+1 {
		t.Errorf("the improvement search took %d nodes, want ≤ %d", improve, depth+1)
	}
	if first <= 10*(depth+1) {
		t.Errorf("the first search took %d nodes: the subset sum is too easy to tell a guided search from one that starts afresh", first)
	}
}

// TestGuidedSearchComplete: branching toward the incumbent only reorders
// the tree. Given no node limit, a guided and an unguided search agree on
// whether a cutoff row leaves the model feasible, and both agree with brute
// force over the box, whatever the incumbent. Cutoffs are tight, so few
// points or none are left to find, as in the iterations that close a
// minimization.
func TestGuidedSearchComplete(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 2))
	// Coefficients past ±1 leave integer gaps that bounds propagation does
	// not see, so searches backtrack.
	widths, coeffs := []int64{1, 1, 2, 3}, []int64{1, -1, 2, -2, 3, -3}
	for i := 0; i < 10000; i++ {
		m, ref := NewModel(), &refPropagator{}
		n := 3 + rng.IntN(5)
		lo, hi := make([]int64, n), make([]int64, n)
		var opts Options
		for v := range n {
			lo[v] = int64(rng.IntN(6)) - 3
			hi[v] = lo[v] + widths[rng.IntN(len(widths))]
			m.NewInt(lo[v], hi[v])
			switch rng.IntN(3) {
			case 0:
				opts.BranchOrder = append(opts.BranchOrder, VarID(v))
			case 1:
				opts.BranchOrder = append(opts.BranchOrder, VarID(v))
				opts.PreferHigh = append(opts.PreferHigh, VarID(v))
			}
		}
		ref.varRows = make([][]int, n)
		randomExpr := func() LinExpr {
			var e LinExpr
			for k := 2 + rng.IntN(4); k > 0; k-- {
				e.Terms = append(e.Terms, Term{VarID(rng.IntN(n)), coeffs[rng.IntN(len(coeffs))]})
			}
			return e
		}
		// Every row holds at a hidden point, so the model is feasible and a
		// cutoff below its minimum must be refuted by a search.
		hidden := make([]int64, n)
		for v := range n {
			hidden[v] = lo[v] + rng.Int64N(hi[v]-lo[v]+1)
		}
		for rows := 2 + rng.IntN(4); rows > 0; rows-- {
			e, op := randomExpr(), Op(rng.IntN(3))
			rhs := Eval(e, hidden)
			if op == OpLe {
				rhs += int64(rng.IntN(3))
			} else if op == OpGe {
				rhs -= int64(rng.IntN(3))
			}
			m.Add(e, op, rhs)
			ref.add(e.Terms, op, rhs)
		}
		obj, best := randomExpr(), int64(0)
		sols := ref.solutions(lo, hi)
		for k, x := range sols {
			if v := Eval(obj, x); k == 0 || v < best {
				best = v
			}
		}
		// Half the time the incumbent is a solution and the cutoff excludes
		// it alone, as in Solve; otherwise the incumbent is any point of the
		// box or beside it.
		incumbent := make([]int64, n)
		for v := range n {
			incumbent[v] = lo[v] - 1 + rng.Int64N(hi[v]-lo[v]+3)
		}
		cutoff := best + int64(rng.IntN(3)) - 1
		if len(sols) > 0 && rng.IntN(2) == 0 {
			copy(incumbent, sols[rng.IntN(len(sols))])
			cutoff = Eval(obj, incumbent) - 1
		}
		m.AddLe(obj, cutoff)
		ref.add(obj.Terms, OpLe, cutoff)
		sols = ref.solutions(lo, hi)
		want := len(sols) > 0

		s := m.searcher(opts)
		copy(s.values, incumbent)
		guided := s.feasible(cutoff)
		got := slices.Clone(s.values)
		// The same rows, the cutoff row among them, searched as a first
		// search: no incumbent, the declared value preferences.
		s = m.searcher(opts)
		unguided := s.feasible(noCutoff)
		if guided != unguided || (guided == nil) != want {
			t.Fatalf("model %d: guided search %v, unguided %v, brute force feasible = %v", i, guided, unguided, want)
		}
		if guided == nil && !slices.ContainsFunc(sols, func(x []int64) bool { return slices.Equal(x, got) }) {
			t.Fatalf("model %d: the guided search's assignment %v is none of the brute-force solutions %v", i, got, sols)
		}
	}
}

// TestFirstSearchNeverGuided: only an improvement iteration follows an
// incumbent. A model's searcher outlives its Solves, the values of the last
// one included, yet a FirstSolution solve and a solve without an objective
// return what they return on a new model — here not the optimum the earlier
// Solve left behind.
func TestFirstSearchNeverGuided(t *testing.T) {
	// max 10a+6b+4c s.t. a+b+c ≤ 2: the first solution is a = b = c = 0, the
	// optimum a = b = 1.
	build := func(m *Model, objective bool) {
		a, b, c := m.NewBool(), m.NewBool(), m.NewBool()
		m.AddLe(Sum(a, b, c), 2)
		if objective {
			m.Minimize(lin(Term{a, -10}, Term{b, -6}, Term{c, -4}))
		}
	}
	for _, c := range []struct {
		name      string
		objective bool
	}{{"FirstSolution", true}, {"no objective", false}} {
		opts := Options{FirstSolution: c.objective}
		fresh := NewModel()
		build(fresh, c.objective)
		want := solve(t, fresh, opts)

		m := NewModel()
		build(m, true)
		optimum := solve(t, m, Options{})
		if slices.Equal(want.Values, optimum.Values) {
			t.Fatalf("%s: the first solution is the optimum; the test needs one that is not", c.name)
		}
		m.Reset()
		build(m, c.objective)
		got := solve(t, m, opts)
		got.Stats.Duration, want.Stats.Duration = 0, 0
		if got.Stats != want.Stats || !slices.Equal(got.Values, want.Values) {
			t.Errorf("%s after a minimizing Solve: %+v %v, on a new model %+v %v", c.name, got.Stats, got.Values, want.Stats, want.Values)
		}
	}
}
