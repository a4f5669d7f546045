package milp

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// Tables the byte-string decoder of checkCoreBound draws from: coefficients
// past ±1 leave integer gaps that bounds propagation does not see.
var (
	boundCoeffs = []int64{1, -1, 2, -2, 3, -3, 5, -4}
	boundLimits = []int64{1000, 2000, 6000, 20000}
)

// checkCoreBound decodes data into a 0/1 model of independent blocks, whose
// objective sums 0/1 terms in groups, as the scheduler's does, and solves it
// twice: as Solve runs, and with the lower bound held off (noCoreBound). The
// blocks share no variable, so brute force over each block's small box gives
// the minimum, while the search, which does not know the blocks apart, must
// refute their combinations: its improvement iterations outlast their first
// restart cap, where the bound runs. It checks the bound against brute force:
// a Solve that reports Optimal returns the minimum, and the cores never count
// more than the minimum. It checks that the bound changes nothing but the
// effort: both Solves return the same error, Values and Objective; when the
// bound closed the last iteration the bounded Solve is Optimal, at no more
// nodes than the unbounded one's and the bound's, and otherwise it is
// Optimal as the unbounded one is, at exactly those nodes. It reports whether
// the bound ran and whether it closed the last iteration.
//
//	byte 0            10 + 4·(b%3) blocks; group size 1 + (b/3)%3
//	byte 1            NodeLimit boundLimits[b%4]; objective constant (b/4)%3
//	per block         1 byte: 5 + b%6 variables, all 0/1, of which the
//	                  first 1 + (b/6)%n are objective terms;
//	                  1 byte/variable: the hidden point, bit 0;
//	                  per group of its terms, 1 byte: a cover row, the
//	                  group and b%3 of its other variables ≥ 1, posted
//	                  when the hidden point satisfies it;
//	                  1 byte: 1 + b%4 rows, each
//	                  1 byte: operator b%3 (≤ ≥ =), 2 + (b/3)%4 terms;
//	                  1 byte/term: variable b%n, boundCoeffs[(b/16)%8];
//	                  1 byte (≤ and ≥ only): slack b%3 past the hidden
//	                  point's value
//
// Every row holds at the hidden point, so every model is feasible. A short
// string reads as zero bytes at its end.
func checkCoreBound(t *testing.T, data []byte) (ran, closed bool) {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	head, tail := next(), next()
	group := 1 + head/3%3
	m, opts := NewModel(), Options{NodeLimit: boundLimits[tail%len(boundLimits)]}
	obj := LinExpr{Const: int64(tail / 4 % 3)}
	minimum := obj.Const
	for blocks := 10 + head%3*4; blocks > 0; blocks-- {
		b := next()
		n, first := 5+b%6, VarID(m.NumVars())
		terms := 1 + b/6%n
		ref := &refPropagator{varRows: make([][]int, n)}
		lo, hi, hidden := make([]int64, n), make([]int64, n), make([]int64, n)
		for v := range n {
			m.NewBool()
			hi[v], hidden[v] = 1, int64(next()&1)
			opts.BranchOrder = append(opts.BranchOrder, first+VarID(v))
		}
		// post adds a row over the block's variables to the model, at their
		// model ids, and to the block's reference.
		post := func(e LinExpr, op Op, rhs int64) {
			ref.add(e.Terms, op, rhs)
			at := make([]Term, len(e.Terms))
			for i, t := range e.Terms {
				at[i] = Term{first + t.Var, t.Coeff}
			}
			m.Add(LinExpr{Terms: at}, op, rhs)
		}
		local := LinExpr{}
		for v := range terms {
			local.Terms = append(local.Terms, Term{VarID(v), 1})
		}
		for at := 0; at < terms; at += group {
			e := LinExpr{Terms: slices.Clone(local.Terms[at:min(at+group, terms)])}
			for k := next() % 3; k > 0 && terms < n; k-- {
				e.Terms = append(e.Terms, Term{VarID(terms + next()%(n-terms)), 1})
			}
			if Eval(e, hidden) >= 1 {
				post(e, OpGe, 1)
			}
		}
		for rows := 1 + next()%4; rows > 0; rows-- {
			head := next()
			var e LinExpr
			for k := 2 + head/3%4; k > 0; k-- {
				b := next()
				e.Terms = append(e.Terms, Term{VarID(b % n), boundCoeffs[b/16%len(boundCoeffs)]})
			}
			op, rhs := Op(head%3), Eval(e, hidden)
			switch op {
			case OpLe:
				rhs += int64(next() % 3)
			case OpGe:
				rhs -= int64(next() % 3)
			}
			post(e, op, rhs)
		}
		best := int64(-1)
		for _, x := range ref.solutions(lo, hi) {
			if v := Eval(local, x); best < 0 || v < best {
				best = v
			}
		}
		minimum += best
		for _, t := range local.Terms {
			obj.Terms = append(obj.Terms, Term{first + t.Var, 1})
		}
	}
	m.MinimizeGroups(obj, group)

	got, err := m.Solve(opts)
	cores, boundNodes := m.s.cores, m.s.boundNodes
	if err != nil {
		t.Fatalf("Solve: %v on a feasible model", err)
	}
	if msg := m.Check(got.Values); msg != "" {
		t.Fatalf("the solution violates the model: %s", msg)
	}
	if got.Stats.Optimal && got.Objective != minimum {
		t.Fatalf("Solve claims the optimum %d; brute force finds %d", got.Objective, minimum)
	}
	if bound := cores + obj.Const; bound > minimum {
		t.Fatalf("%d disjoint cores and constant %d bound the objective at %d; brute force finds %d", cores, obj.Const, bound, minimum)
	}

	noCoreBound = true
	want, werr := m.Solve(opts)
	noCoreBound = false
	if err != werr || got.Objective != want.Objective || !slices.Equal(got.Values, want.Values) {
		t.Fatalf("bounded: %v objective %d %v; unbounded: %v objective %d %v", err, got.Objective, got.Values, werr, want.Objective, want.Values)
	}
	// The bound closed the last iteration when its cores leave no objective
	// below the one returned; every other iteration ran as without it.
	closed = cores+obj.Const >= got.Objective
	switch {
	case closed && (!got.Stats.Optimal || got.Stats.Nodes > want.Stats.Nodes+boundNodes):
		t.Fatalf("the bound closed the last iteration: optimal %v after %d nodes; want optimal within the unbounded Solve's %d and the bound's %d",
			got.Stats.Optimal, got.Stats.Nodes, want.Stats.Nodes, boundNodes)
	case !closed && (got.Stats.Optimal != want.Stats.Optimal || got.Stats.Nodes != want.Stats.Nodes+boundNodes):
		t.Fatalf("the bound closed no iteration: optimal %v after %d nodes; want the unbounded Solve's %v after %d and the bound's %d nodes",
			got.Stats.Optimal, got.Stats.Nodes, want.Stats.Optimal, want.Stats.Nodes, boundNodes)
	}
	return boundNodes > 0, closed
}

// TestCoreBoundSound runs checkCoreBound on seeded random strings, and
// checks that they exercise the bound: it must run on some models and close
// an iteration on some.
func TestCoreBoundSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 1))
	var ran, closed int
	for range 600 {
		data := make([]byte, 200+rng.IntN(300))
		for j := range data {
			data[j] = byte(rng.UintN(256))
		}
		r, c := checkCoreBound(t, data)
		if r {
			ran++
		}
		if c {
			closed++
		}
	}
	t.Logf("the bound ran in %d Solves and closed %d", ran, closed)
	if ran < 50 || closed < 25 {
		t.Errorf("the bound ran in %d Solves and closed %d of 600; the models are too easy to test it", ran, closed)
	}
}

// FuzzCoreBound feeds arbitrary strings to the same check.
func FuzzCoreBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkCoreBound(t, data) })
}

// TestCappedCheckIsNoCore: a check that its restartBaseNodes cap stops proves
// nothing. Minimizing t, where t = 0 only if a 16-item subset sum is met
// (guided_test.go's, which a search from scratch needs hundreds of nodes
// for): the first search prefers t = 1, the improvement iteration cannot
// meet the sum within its first attempt, and the bound's one check, {t},
// cannot within its cap. Counted as a core, that check would close the
// iteration and prove the wrong optimum, 1.
func TestCappedCheckIsNoCore(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 1))
	m := NewModel()
	tv, met := m.NewBool(), m.NewBool()
	m.AddBoolNot(met, tv)
	opts := Options{BranchOrder: []VarID{tv}, PreferHigh: []VarID{tv}}
	var sum LinExpr
	var target int64
	for range 16 {
		x, a := m.NewBool(), int64(1+rng.IntN(1<<16))
		sum.Terms = append(sum.Terms, Term{x, a})
		if rng.IntN(2) == 0 {
			target += a
		}
		opts.BranchOrder = append(opts.BranchOrder, x)
	}
	m.AddImpliesEq(met, sum, target)
	m.Minimize(VarExpr(tv))
	got := solve(t, m, opts)
	if got.Objective != 0 || !got.Stats.Optimal {
		t.Fatalf("objective %d, optimal %v; want the proven optimum 0", got.Objective, got.Stats.Optimal)
	}
	if m.s.boundNodes < restartBaseNodes {
		t.Fatalf("the bound spent %d nodes; the test needs a check it caps", m.s.boundNodes)
	}
}
