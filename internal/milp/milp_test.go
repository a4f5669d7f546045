package milp

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func solve(t *testing.T, m *Model, opts Options) *Solution {
	t.Helper()
	s, err := m.Solve(opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if msg := m.Check(s.Values); msg != "" {
		t.Fatalf("solution violates model: %s", msg)
	}
	return s
}

func TestFeasibilitySimple(t *testing.T) {
	m := NewModel()
	x := m.NewInt(0, 10)
	y := m.NewInt(0, 10)
	m.AddLe(Sum(x, y), 7)
	m.AddGe(VarExpr(x), 3)
	m.AddGe(VarExpr(y), 2)
	s := solve(t, m, Options{})
	if s.Values[x] < 3 || s.Values[y] < 2 || s.Values[x]+s.Values[y] > 7 {
		t.Errorf("bad solution: %v", s.Values)
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.NewInt(0, 5)
	m.AddGe(VarExpr(x), 3)
	m.AddLe(VarExpr(x), 2)
	if _, err := m.Solve(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// knapsack builds max 10a+6b+4c s.t. a+b+c ≤ 2 over booleans into m.
func knapsack(m *Model) Options {
	a, b, c := m.NewBool(), m.NewBool(), m.NewBool()
	m.AddLe(Sum(a, b, c), 2)
	m.Minimize(lin(Term{a, -10}, Term{b, -6}, Term{c, -4})) // maximize 10a+6b+4c
	return Options{}
}

func TestOptimizationKnapsack(t *testing.T) {
	m := NewModel()
	s := solve(t, m, knapsack(m))
	if got := 10*s.Values[0] + 6*s.Values[1] + 4*s.Values[2]; got != 16 {
		t.Errorf("objective value = %d, want 16", got)
	}
	if !s.Stats.Optimal {
		t.Error("search should complete")
	}
}

func TestMinimize(t *testing.T) {
	m := NewModel()
	x := m.NewInt(0, 100)
	y := m.NewInt(0, 100)
	m.AddGe(lin(Term{x, 2}, Term{y, 3}), 12)
	m.Minimize(Sum(x, y))
	s := solve(t, m, Options{})
	if got := Eval(Sum(x, y), s.Values); got != 4 {
		t.Errorf("min x+y = %d, want 4 (x=0,y=4)", got)
	}
}

func TestImplications(t *testing.T) {
	m := NewModel()
	b := m.NewBool()
	x := m.NewInt(0, 10)
	m.AddImpliesLe(b, VarExpr(x), 3)
	m.AddImpliesGe(b, VarExpr(x), 2)
	m.AddEq(VarExpr(b), 1)
	m.AddEq(lin(Term{x, 1}, Term{b, 0}), 3) // x = 3 is admissible
	s := solve(t, m, Options{})
	if s.Values[x] < 2 || s.Values[x] > 3 {
		t.Errorf("x = %d, want in [2,3]", s.Values[x])
	}
}

func TestImplicationInactiveWhenFalse(t *testing.T) {
	m := NewModel()
	b := m.NewBool()
	x := m.NewInt(0, 10)
	m.AddImpliesLe(b, VarExpr(x), 3)
	m.AddEq(VarExpr(b), 0)
	m.AddGe(VarExpr(x), 8) // only possible because b=0 disables the cap
	s := solve(t, m, Options{})
	if s.Values[x] < 8 {
		t.Errorf("x = %d, want >= 8", s.Values[x])
	}
}

func TestReifyLe(t *testing.T) {
	for _, fix := range []int64{0, 1} {
		m := NewModel()
		x := m.NewInt(0, 10)
		b := m.ReifyLe(VarExpr(x), 5)
		m.AddEq(VarExpr(b), fix)
		s := solve(t, m, Options{})
		if fix == 1 && s.Values[x] > 5 {
			t.Errorf("b=1 but x=%d > 5", s.Values[x])
		}
		if fix == 0 && s.Values[x] <= 5 {
			t.Errorf("b=0 but x=%d <= 5", s.Values[x])
		}
	}
}

func TestBoolLogic(t *testing.T) {
	m := NewModel()
	a, b := m.NewBool(), m.NewBool()
	or := m.NewBool()
	and := m.NewBool()
	not := m.NewBool()
	m.AddBoolOr(or, a, b)
	m.AddBoolAnd(and, a, b)
	m.AddBoolNot(not, a)
	// Enumerate all assignments of (a, b) by solving with fixed values.
	for _, av := range []int64{0, 1} {
		for _, bv := range []int64{0, 1} {
			m2 := NewModel()
			a2, b2 := m2.NewBool(), m2.NewBool()
			or2, and2, not2 := m2.NewBool(), m2.NewBool(), m2.NewBool()
			m2.AddBoolOr(or2, a2, b2)
			m2.AddBoolAnd(and2, a2, b2)
			m2.AddBoolNot(not2, a2)
			m2.AddEq(VarExpr(a2), av)
			m2.AddEq(VarExpr(b2), bv)
			s := solve(t, m2, Options{})
			wantOr, wantAnd, wantNot := int64(0), int64(0), 1-av
			if av == 1 || bv == 1 {
				wantOr = 1
			}
			if av == 1 && bv == 1 {
				wantAnd = 1
			}
			if s.Values[or2] != wantOr || s.Values[and2] != wantAnd || s.Values[not2] != wantNot {
				t.Errorf("a=%d b=%d: or=%d and=%d not=%d", av, bv,
					s.Values[or2], s.Values[and2], s.Values[not2])
			}
		}
	}
	_ = or
	_ = and
	_ = not
}

// TestExactlyOneAndAtLeastOne: the fewest booleans AtLeastOne admits is
// exactly one, and none at all is infeasible.
func TestExactlyOneAndAtLeastOne(t *testing.T) {
	m := NewModel()
	var bs []VarID
	for i := 0; i < 5; i++ {
		bs = append(bs, m.NewBool())
	}
	m.AtLeastOne(bs...)
	m.Minimize(Sum(bs...))
	s := solve(t, m, Options{})
	if got := Eval(Sum(bs...), s.Values); got != 1 {
		t.Errorf("minimum under AtLeastOne: sum=%d, want 1", got)
	}
	m.AddLe(Sum(bs...), 0)
	if _, err := m.Solve(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("AtLeastOne with every boolean 0: err = %v, want ErrInfeasible", err)
	}
}

func TestNodeLimit(t *testing.T) {
	// A model with a huge search space and no solution; the node limit must
	// fire, as ErrTimeout.
	m := NewModel()
	var vars []VarID
	for i := 0; i < 40; i++ {
		vars = append(vars, m.NewInt(0, 1000))
	}
	// Σ 2·x_i = 39999: even = odd is infeasible, but bounds propagation
	// sees only bounds and cannot refute it.
	var e LinExpr
	for _, v := range vars {
		e.Terms = append(e.Terms, Term{v, 2})
	}
	m.AddEq(e, 39999)
	s, err := m.Solve(Options{NodeLimit: 10000})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if s.Values != nil || s.Stats.Nodes != 10000 {
		t.Errorf("failed solve: Values = %v, Stats.Nodes = %d; want no values and all 10000 nodes charged", s.Values, s.Stats.Nodes)
	}
}

func TestBranchOrderRespected(t *testing.T) {
	m := NewModel()
	x := m.NewInt(0, 5)
	y := m.NewInt(0, 5)
	m.AddGe(Sum(x, y), 1)
	s := solve(t, m, Options{BranchOrder: []VarID{y, x}})
	// Ascending enumeration with y branched first gives y=0... then x
	// must be >= 1; but y=0,x=0 fails, so first feasible is x=1,y=0.
	if s.Values[x] != 1 || s.Values[y] != 0 {
		t.Errorf("got x=%d y=%d, want x=1 y=0", s.Values[x], s.Values[y])
	}
}

// naiveRow is one row as the helpers are documented to post it, before
// normalization: sign·(Σ terms) ≤ rhs.
type naiveRow struct {
	terms     []Term
	sign, rhs int64
}

// naiveRange is the minimum and maximum of e at m's declared bounds.
func naiveRange(m *Model, e LinExpr) (lo, hi int64) {
	lo, hi = e.Const, e.Const
	for _, t := range e.Terms {
		a, b := t.Coeff*m.lo[t.Var], t.Coeff*m.hi[t.Var]
		lo, hi = lo+min(a, b), hi+max(a, b)
	}
	return lo, hi
}

// naiveNormal merges r's duplicate variables in first-occurrence order,
// multiplies by the sign (flipping a ≥ row), drops zero coefficients and
// takes the span from m's declared bounds; ok is false for a row with no
// term left that holds anyway.
func naiveNormal(m *Model, r naiveRow) (terms []Term, rhs, span int64, ok bool) {
	for _, t := range r.terms {
		i := slices.IndexFunc(terms, func(u Term) bool { return u.Var == t.Var })
		if i < 0 {
			terms = append(terms, Term{t.Var, 0})
			i = len(terms) - 1
		}
		terms[i].Coeff += r.sign * t.Coeff
	}
	terms = slices.DeleteFunc(terms, func(t Term) bool { return t.Coeff == 0 })
	for _, t := range terms {
		span = max(span, max(t.Coeff, -t.Coeff)*(m.hi[t.Var]-m.lo[t.Var]))
	}
	return terms, r.rhs, span, len(terms) > 0 || r.rhs < 0
}

// TestDuplicateTermsMerged posts random expressions — duplicate variables,
// zero coefficients, constants — through every helper into a model that
// already holds rows, and compares the rows posted with the naive normal
// form of what the helper documents. The caller's terms are overwritten
// right after each post, which must move nothing the model kept.
func TestDuplicateTermsMerged(t *testing.T) {
	m := NewModel()
	x := m.NewInt(0, 10)
	m.AddLe(lin(Term{x, 1}, Term{x, 1}), 6) // 2x <= 6
	obj := negateForTest(VarExpr(x))
	m.Minimize(obj)
	clear(obj.Terms) // Minimize keeps a copy
	if s := solve(t, m, Options{}); s.Values[x] != 3 {
		t.Errorf("x = %d, want 3", s.Values[x])
	}

	rng := rand.New(rand.NewPCG(7, 38))
	randExpr := func(vars []VarID) LinExpr {
		e := LinExpr{Const: int64(rng.IntN(7) - 3)}
		for k := rng.IntN(6); k > 0; k-- {
			e.Terms = append(e.Terms, Term{vars[rng.IntN(len(vars))], int64(rng.IntN(7) - 3)})
		}
		return e
	}
	pick := func(vars []VarID) []VarID {
		bs := make([]VarID, 1+rng.IntN(4))
		for i := range bs {
			bs[i] = vars[rng.IntN(len(vars))]
		}
		return bs
	}
	with := func(e LinExpr, ts ...Term) []Term { return append(slices.Clone(e.Terms), ts...) }
	termsOf := func(c int64, vs ...VarID) []Term {
		ts := make([]Term, len(vs))
		for i, v := range vs {
			ts[i] = Term{v, c}
		}
		return ts
	}
	type post func(m *Model, ints, bools []VarID) (want []naiveRow, scribble func())
	for _, tc := range []struct {
		name string
		post post
	}{
		{"Add", func(m *Model, ints, _ []VarID) ([]naiveRow, func()) {
			e, op, r := randExpr(ints), Op(rng.IntN(3)), int64(rng.IntN(21)-10)
			m.Add(e, op, r)
			var want []naiveRow
			if op != OpGe {
				want = append(want, naiveRow{e.Terms, 1, r - e.Const})
			}
			if op != OpLe {
				want = append(want, naiveRow{e.Terms, -1, e.Const - r})
			}
			return want, func() { clear(e.Terms) }
		}},
		{"AddLe", func(m *Model, ints, _ []VarID) ([]naiveRow, func()) {
			e, r := randExpr(ints), int64(rng.IntN(21)-10)
			m.AddLe(e, r)
			return []naiveRow{{e.Terms, 1, r - e.Const}}, func() { clear(e.Terms) }
		}},
		{"AddGe", func(m *Model, ints, _ []VarID) ([]naiveRow, func()) {
			e, r := randExpr(ints), int64(rng.IntN(21)-10)
			m.AddGe(e, r)
			return []naiveRow{{e.Terms, -1, e.Const - r}}, func() { clear(e.Terms) }
		}},
		{"AddEq", func(m *Model, ints, _ []VarID) ([]naiveRow, func()) {
			e, r := randExpr(ints), int64(rng.IntN(21)-10)
			m.AddEq(e, r)
			return []naiveRow{{e.Terms, 1, r - e.Const}, {e.Terms, -1, e.Const - r}}, func() { clear(e.Terms) }
		}},
		{"AddImpliesLe", func(m *Model, ints, bools []VarID) ([]naiveRow, func()) {
			b, e, r := bools[rng.IntN(len(bools))], randExpr(ints), int64(rng.IntN(21)-10)
			var want []naiveRow
			if _, hi := naiveRange(m, e); hi > r {
				want = append(want, naiveRow{with(e, Term{b, hi - r}), 1, hi - e.Const})
			}
			m.AddImpliesLe(b, e, r)
			return want, func() { clear(e.Terms) }
		}},
		{"AddImpliesGe", func(m *Model, ints, bools []VarID) ([]naiveRow, func()) {
			b, e, r := bools[rng.IntN(len(bools))], randExpr(ints), int64(rng.IntN(21)-10)
			var want []naiveRow
			if lo, _ := naiveRange(m, e); lo < r {
				want = append(want, naiveRow{with(e, Term{b, lo - r}), -1, e.Const - lo})
			}
			m.AddImpliesGe(b, e, r)
			return want, func() { clear(e.Terms) }
		}},
		{"AddImpliesEq", func(m *Model, ints, bools []VarID) ([]naiveRow, func()) {
			b, e, r := bools[rng.IntN(len(bools))], randExpr(ints), int64(rng.IntN(21)-10)
			var want []naiveRow
			lo, hi := naiveRange(m, e)
			if hi > r {
				want = append(want, naiveRow{with(e, Term{b, hi - r}), 1, hi - e.Const})
			}
			if lo < r {
				want = append(want, naiveRow{with(e, Term{b, lo - r}), -1, e.Const - lo})
			}
			m.AddImpliesEq(b, e, r)
			return want, func() { clear(e.Terms) }
		}},
		{"ReifyLe", func(m *Model, ints, _ []VarID) ([]naiveRow, func()) {
			e, r := randExpr(ints), int64(rng.IntN(21)-10)
			lo, hi := naiveRange(m, e)
			b := m.ReifyLe(e, r)
			var want []naiveRow
			if hi > r {
				want = append(want, naiveRow{with(e, Term{b, hi - r}), 1, hi - e.Const})
			}
			if lo <= r {
				want = append(want, naiveRow{with(e, Term{b, r + 1 - lo}), -1, e.Const - r - 1})
			} else {
				want = append(want, naiveRow{[]Term{{b, 1}}, 1, 0}, naiveRow{[]Term{{b, 1}}, -1, 0})
			}
			return want, func() { clear(e.Terms) }
		}},
		{"AtLeastOne", func(m *Model, _, bools []VarID) ([]naiveRow, func()) {
			bs := pick(bools)
			m.AtLeastOne(bs...)
			return []naiveRow{{termsOf(1, bs...), -1, -1}}, func() { clear(bs) }
		}},
		{"AddBoolOr", func(m *Model, _, bools []VarID) ([]naiveRow, func()) {
			target, bs := bools[rng.IntN(len(bools))], pick(bools)
			m.AddBoolOr(target, bs...)
			var want []naiveRow
			for _, b := range bs {
				want = append(want, naiveRow{[]Term{{b, 1}, {target, -1}}, 1, 0})
			}
			want = append(want, naiveRow{append([]Term{{target, 1}}, termsOf(-1, bs...)...), 1, 0})
			return want, func() { clear(bs) }
		}},
		{"AddBoolAnd", func(m *Model, _, bools []VarID) ([]naiveRow, func()) {
			target, bs := bools[rng.IntN(len(bools))], pick(bools)
			m.AddBoolAnd(target, bs...)
			var want []naiveRow
			for _, b := range bs {
				want = append(want, naiveRow{[]Term{{target, 1}, {b, -1}}, 1, 0})
			}
			want = append(want, naiveRow{append([]Term{{target, 1}}, termsOf(-1, bs...)...), -1, int64(len(bs)) - 1})
			return want, func() { clear(bs) }
		}},
		{"AddBoolNot", func(m *Model, _, bools []VarID) ([]naiveRow, func()) {
			target, b := bools[rng.IntN(len(bools))], bools[rng.IntN(len(bools))]
			m.AddBoolNot(target, b)
			ts := []Term{{target, 1}, {b, 1}}
			return []naiveRow{{ts, 1, 1}, {ts, -1, -1}}, func() {}
		}},
	} {
		for iter := 0; iter < 200; iter++ {
			m := NewModel()
			var ints, bools []VarID
			for range 4 {
				lo := int64(rng.IntN(9) - 4)
				ints = append(ints, m.NewInt(lo, lo+int64(rng.IntN(6))))
				bools = append(bools, m.NewBool())
			}
			ints = append(ints, bools...)
			// Rows already in the model: the helper posts after them.
			for k := rng.IntN(3); k > 0; k-- {
				m.AddLe(randExpr(ints), int64(rng.IntN(21)-10))
			}
			before := m.NumConstraints()
			var kept [][]Term
			for ci := range before {
				kept = append(kept, slices.Clone(m.row(ci)))
			}
			want, scribble := tc.post(m, ints, bools)
			// The expected rows are computed before the caller's terms go.
			type normal struct {
				terms     []Term
				rhs, span int64
			}
			var exp []normal
			for _, r := range want {
				if ts, rhs, span, ok := naiveNormal(m, r); ok {
					exp = append(exp, normal{ts, rhs, span})
				}
			}
			scribble()
			if got := m.NumConstraints() - before; got != len(exp) {
				t.Fatalf("%s #%d: posted %d rows, want %d", tc.name, iter, got, len(exp))
			}
			for i, w := range exp {
				ci := before + i
				if !slices.Equal(m.row(ci), w.terms) || m.rhs[ci] != w.rhs || m.span[ci] != w.span {
					t.Fatalf("%s #%d row %d: %v ≤ %d (span %d), want %v ≤ %d (span %d)", tc.name, iter, i,
						m.row(ci), m.rhs[ci], m.span[ci], w.terms, w.rhs, w.span)
				}
			}
			for ci, ts := range kept {
				if !slices.Equal(m.row(ci), ts) {
					t.Fatalf("%s #%d: earlier row %d moved: %v, was %v", tc.name, iter, ci, m.row(ci), ts)
				}
			}
			for v, i := range m.at {
				if i != 0 {
					t.Fatalf("%s #%d: merge scratch of var %d left at %d", tc.name, iter, v, i)
				}
			}
		}
	}
}

// TestPostRowAllocFree: a model with spare capacity posts rows through every
// helper, and takes an objective, without allocating; the short expressions
// a caller builds inline stay on its stack.
func TestPostRowAllocFree(t *testing.T) {
	m := NewModel()
	build := func() {
		m.Reset()
		x, y := m.NewInt(0, 9), m.NewInt(-3, 3)
		b, c, d := m.NewBool(), m.NewBool(), m.NewBool()
		m.Add(lin(Term{x, 1}, Term{y, 2}, Term{x, -1}), OpEq, 4)
		m.AddLe(lin(Term{x, 1}, Term{y, -1}), 5)
		m.AddGe(VarExpr(y), -2)
		m.AddEq(LinExpr{}, 0)
		m.AddImpliesLe(b, lin(Term{x, 1}, Term{y, 1}), 4)
		m.AddImpliesGe(c, lin(Term{x, 2}, Term{c, 1}), 3)
		m.AddImpliesEq(d, VarExpr(x), 7)
		m.AddBoolNot(d, m.ReifyLe(VarExpr(x), 3))
		m.AtLeastOne(b, c, d)
		m.AddBoolOr(b, c, d, c)
		m.AddBoolAnd(c, b, d)
		m.Minimize(lin(Term{b, 1}, Term{c, 1}, Term{d, 1}))
	}
	build()
	if n := testing.AllocsPerRun(10, build); n != 0 {
		t.Errorf("posting into a model with spare capacity allocates %.0f times per model; want 0", n)
	}
}

// TestBruteForceCrossCheck compares optimal objectives against exhaustive
// enumeration on random small models.
func TestBruteForceCrossCheck(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 41))
		n := rng.IntN(4) + 2
		hi := int64(rng.IntN(3) + 1)
		m := NewModel()
		var vars []VarID
		for i := 0; i < n; i++ {
			vars = append(vars, m.NewInt(0, hi))
		}
		type row struct {
			coeffs []int64
			rhs    int64
		}
		var rows []row
		nc := rng.IntN(4) + 1
		for i := 0; i < nc; i++ {
			r := row{coeffs: make([]int64, n), rhs: int64(rng.IntN(13) - 3)}
			var e LinExpr
			for j := 0; j < n; j++ {
				r.coeffs[j] = int64(rng.IntN(7) - 3)
				e.Terms = append(e.Terms, Term{vars[j], r.coeffs[j]})
			}
			rows = append(rows, r)
			m.AddLe(e, r.rhs)
		}
		objC := make([]int64, n)
		var obj LinExpr
		for j := 0; j < n; j++ {
			objC[j] = int64(rng.IntN(9) - 4)
			obj.Terms = append(obj.Terms, Term{vars[j], objC[j]})
		}
		m.Minimize(obj)

		// Brute force.
		bestBF := int64(1 << 60)
		feasible := false
		assign := make([]int64, n)
		var walk func(i int)
		walk = func(i int) {
			if i == n {
				for _, r := range rows {
					s := int64(0)
					for j := 0; j < n; j++ {
						s += r.coeffs[j] * assign[j]
					}
					if s > r.rhs {
						return
					}
				}
				feasible = true
				v := int64(0)
				for j := 0; j < n; j++ {
					v += objC[j] * assign[j]
				}
				if v < bestBF {
					bestBF = v
				}
				return
			}
			for v := int64(0); v <= hi; v++ {
				assign[i] = v
				walk(i + 1)
			}
		}
		walk(0)

		sol, err := m.Solve(Options{})
		if !feasible {
			return errors.Is(err, ErrInfeasible)
		}
		if err != nil {
			return false
		}
		return sol.Objective == bestBF && m.Check(sol.Values) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyDomainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := NewModel()
	m.NewInt(3, 2)
}

func TestFirstSolutionStopsEarly(t *testing.T) {
	m := NewModel()
	x := m.NewInt(0, 1000)
	m.Minimize(negateForTest(VarExpr(x))) // maximize x
	m.AddLe(VarExpr(x), 900)
	s, err := m.Solve(Options{FirstSolution: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.Optimal {
		t.Error("first-solution mode must not claim optimality")
	}
}

// lin returns Σ ts.
func lin(ts ...Term) LinExpr { return LinExpr{Terms: ts} }

func negateForTest(e LinExpr) LinExpr {
	out := LinExpr{Const: -e.Const}
	for _, t := range e.Terms {
		out.Terms = append(out.Terms, Term{t.Var, -t.Coeff})
	}
	return out
}

func TestRestartsSolveAdversarialOrder(t *testing.T) {
	// A model whose given branch order is pathological: restarts reshuffle
	// and find the solution quickly anyway.
	m := NewModel()
	var vars []VarID
	for i := 0; i < 30; i++ {
		vars = append(vars, m.NewInt(0, 8))
	}
	// Chain x_{i+1} >= x_i; and x_29 = 8 forces all high... branch order
	// given ascending values on x_0 first explores 0..8 fruitlessly.
	for i := 0; i+1 < len(vars); i++ {
		m.AddGe(lin(Term{vars[i+1], 1}, Term{vars[i], -1}), 0)
	}
	m.AddEq(VarExpr(vars[len(vars)-1]), 8)
	m.AddGe(VarExpr(vars[0]), 8) // forces everything to 8
	s, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vars {
		if s.Values[v] != 8 {
			t.Fatalf("var = %d, want 8", s.Values[v])
		}
	}
}

func TestNegativeBoundsVariables(t *testing.T) {
	// Negative domains and negative coefficients exercise the gap-based
	// tightening: with gap = rhs − act ≥ 0 the new bound is gap/a past
	// the bound the term reads, and the truncating division must land on
	// the floor for a > 0 and on the ceiling for a < 0.
	m := NewModel()
	x := m.NewInt(-10, 10)
	y := m.NewInt(-10, 10)
	m.AddLe(lin(Term{x, -3}), 7)  // -3x <= 7  ->  x >= -2 (ceil(-7/3))
	m.AddGe(lin(Term{y, -2}), -6) // -2y >= -6 ->  y <= 3
	m.Minimize(Sum(x, y))
	s := solve(t, m, Options{})
	if s.Values[x] != -2 {
		t.Errorf("x = %d, want -2", s.Values[x])
	}
	if s.Values[y] != -10 {
		t.Errorf("y = %d, want -10", s.Values[y])
	}
}

func TestSolutionStatsPopulated(t *testing.T) {
	m := NewModel()
	x := m.NewInt(0, 3)
	m.AddGe(VarExpr(x), 1)
	s := solve(t, m, Options{})
	if s.Stats.Nodes == 0 || s.Stats.Propagations == 0 {
		t.Errorf("stats empty: %+v", s.Stats)
	}
	if lo, hi := m.lo[x], m.hi[x]; lo != 0 || hi != 3 {
		t.Errorf("bounds = %d, %d", lo, hi)
	}
	if m.NumVars() != 1 || m.NumConstraints() == 0 {
		t.Errorf("counts: vars=%d cons=%d", m.NumVars(), m.NumConstraints())
	}
}

// pigeonholeGated builds a model with a gate boolean g: g = 1 activates an
// infeasible pigeonhole subproblem (more pigeons than holes), g = 0 leaves
// every placement variable free. Branching g high first therefore burns the
// whole node budget refuting the pigeonhole, while branching it low first
// finds a solution almost immediately — exactly the shape restarts exist
// for.
func pigeonholeGated(pigeons, holes int) (*Model, Options) {
	m := NewModel()
	return m, pigeonholeInto(m, pigeons, holes)
}

// pigeonholeInto builds pigeonholeGated's model into m.
func pigeonholeInto(m *Model, pigeons, holes int) Options {
	g := m.NewBool()
	p := make([][]VarID, pigeons)
	order := []VarID{g}
	for i := range p {
		p[i] = make([]VarID, holes)
		for j := range p[i] {
			p[i][j] = m.NewBool()
			order = append(order, p[i][j])
		}
	}
	for i := 0; i < pigeons; i++ {
		m.AddImpliesGe(g, Sum(p[i]...), 1) // g = 1: every pigeon needs a hole
	}
	for j := 0; j < holes; j++ {
		col := make([]VarID, pigeons)
		for i := range col {
			col[i] = p[i][j]
		}
		m.AddLe(Sum(col...), 1) // each hole fits at most one pigeon
	}
	return Options{BranchOrder: order, PreferHigh: []VarID{g}}
}

func TestRestartBudgetAccounting(t *testing.T) {
	const base = restartBaseNodes
	// Sanity: a search limited to the first attempt's cap must fail — the
	// gate branches high into the pigeonhole subtree and the cap is reached
	// long before the subtree is refuted.
	m, opts := pigeonholeGated(8, 7)
	opts.NodeLimit = base
	if _, err := m.Solve(opts); err != ErrTimeout {
		t.Fatalf("err = %v under the first attempt's cap, want ErrTimeout; grow the pigeonhole", err)
	}
	// Under restarts the first attempt exhausts its cap and the second
	// (value preference flipped) solves quickly. The solution's stats must
	// charge the failed attempt's nodes too.
	m, opts = pigeonholeGated(8, 7)
	s, err := m.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	if msg := m.Check(s.Values); msg != "" {
		t.Fatalf("solution violates model: %s", msg)
	}
	if s.Stats.Nodes <= base {
		t.Fatalf("Stats.Nodes = %d, want > %d: failed restart attempts must be charged at their actual node count", s.Stats.Nodes, base)
	}
	if s.Stats.Nodes > 2*base {
		t.Fatalf("Stats.Nodes = %d, want ≤ %d: charge actual nodes, not granted budgets", s.Stats.Nodes, 2*base)
	}
	// A NodeLimit covering the failed attempt plus a generous remainder
	// must still admit the solve: with grant-based charging the second
	// attempt would be starved of budget it never consumed.
	m, opts = pigeonholeGated(8, 7)
	opts.NodeLimit = 2 * base
	if _, err := m.Solve(opts); err != nil {
		t.Fatalf("Solve under NodeLimit=%d: %v", 2*base, err)
	}
}

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1, 1, 2}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
	if got := luby(1<<20 - 1); got != 1<<19 {
		t.Errorf("luby(2^20 − 1) = %d, want 2^19", got)
	}
}

// TestConflictFreeSearchWalksBranchOrder: with every weight at zero and every
// domain equally wide the tie-break decides alone. Under Σ v ≤ c with all
// variables preferring 1, the variables set are the first c decided, so the
// prefixes over every c spell out the order the search walked.
func TestConflictFreeSearchWalksBranchOrder(t *testing.T) {
	const n = 7
	order := []VarID{4, 1, 6, 0, 3, 5, 2}
	for c := 1; c < n; c++ {
		m := NewModel()
		var vars []VarID
		for i := 0; i < n; i++ {
			vars = append(vars, m.NewBool())
		}
		m.AddLe(Sum(vars...), int64(c))
		s := m.searcher(Options{BranchOrder: order, PreferHigh: vars})
		if err := s.feasible(noCutoff); err != nil {
			t.Fatal(err)
		}
		for i, v := range order {
			if (i < c) != (s.values[v] == 1) {
				t.Errorf("c = %d: variable %d, at position %d in the order, is %d", c, v, i, s.values[v])
			}
		}
		// One node per decision and one to find everything fixed.
		if s.stats.Nodes != int64(c)+1 {
			t.Errorf("c = %d: %d nodes, want %d", c, s.stats.Nodes, c+1)
		}
		for v, w := range s.weight {
			if w != 0 {
				t.Errorf("c = %d: variable %d has weight %d after a search without conflict", c, v, w)
			}
		}
	}
}

// thrashing builds 14 free booleans declared, and ordered, ahead of an
// infeasible 5-into-4 pigeonhole. A search that holds on to that order refutes
// the pigeonhole again under every assignment of the free ones.
func thrashing() (*Model, []VarID) {
	m := NewModel()
	var order []VarID
	for i := 0; i < 14; i++ {
		order = append(order, m.NewBool())
	}
	var p [5][4]VarID
	for i := range p {
		for j := range p[i] {
			p[i][j] = m.NewBool()
			order = append(order, p[i][j])
		}
		m.AtLeastOne(p[i][:]...)
	}
	for j := range p[0] {
		m.AddLe(Sum(p[0][j], p[1][j], p[2][j], p[3][j], p[4][j]), 1)
	}
	return m, order
}

// TestConflictWeightsEscapeThrashing: as non-decision variables the model's
// variables are walked in declaration order, attempt after attempt, and 2·10⁴
// nodes decide nothing. As decision variables the pigeonhole's gain weight
// with every branch that fails, the attempt after the first restart branches
// on them first, and the refutation no longer multiplies with the free
// variables.
func TestConflictWeightsEscapeThrashing(t *testing.T) {
	m, order := thrashing()
	if s, err := m.Solve(Options{NodeLimit: 20000}); err != ErrTimeout {
		t.Fatalf("static order: err = %v after %d nodes, want ErrTimeout", err, s.Stats.Nodes)
	}
	s, err := m.Solve(Options{BranchOrder: order})
	if err != ErrInfeasible {
		t.Fatalf("weighted search: err = %v, want ErrInfeasible", err)
	}
	if s.Stats.Nodes != 285 {
		t.Errorf("weighted search refuted the model in %d nodes, pinned 285 (one lost attempt and a proof of 29)", s.Stats.Nodes)
	}
}

// TestSolveDeterministic: a Solve is a pure function of (model, options) —
// restarts, shuffles, weights, improvement iterations and the lower bound
// included.
func TestSolveDeterministic(t *testing.T) {
	// As few pigeons left unhoused as possible: the gate's pigeonhole costs
	// the first attempt, every pigeon housed is one improvement, and the
	// proof that seven holes house no eighth pigeon outlasts both the bound
	// (no set of the indicators proves a core within a check) and the budget.
	m, opts := pigeonholeGated(8, 7)
	m.Minimize(Sum(unhoused(m, opts, 8, 7)...))
	opts.NodeLimit = 3000
	a := solve(t, m, opts)
	bound := m.s.boundNodes
	b := solve(t, m, opts)
	a.Stats.Duration, b.Stats.Duration = 0, 0
	if a.Stats != b.Stats || a.Objective != b.Objective || !slices.Equal(a.Values, b.Values) {
		t.Fatalf("two solves of one model differ: %+v (objective %d) vs %+v (objective %d)", a.Stats, a.Objective, b.Stats, b.Objective)
	}
	// The last improvement search runs out of its NodeLimit/2, several
	// restart caps, on top of what the bound spent; every node beyond them
	// and the first search is an improvement found on the way.
	first := firstSearch(t, m, opts)
	if a.Stats.Optimal || a.Objective != 1 || bound == 0 || a.Stats.Nodes <= first+opts.NodeLimit/2+bound {
		t.Fatalf("%d nodes (first search %d, bound %d, optimal %v, objective %d): the solve was meant to span several searches, restarts and bounds",
			a.Stats.Nodes, first, bound, a.Stats.Optimal, a.Objective)
	}
}

// unhoused adds to pigeonholeGated's model one 0/1 indicator per pigeon that
// must be 1 when the pigeon has no hole, and returns them.
func unhoused(m *Model, opts Options, pigeons, holes int) []VarID {
	u := make([]VarID, pigeons)
	for i := range u {
		u[i] = m.NewBool()
		row := Sum(opts.BranchOrder[1+i*holes : 1+(i+1)*holes]...)
		row.Terms = append(row.Terms, Term{u[i], 1})
		m.AddGe(row, 1)
	}
	return u
}

// firstSearch returns the nodes of opts' first feasibility search on m: a
// FirstSolution solve runs that search alone.
func firstSearch(t *testing.T, m *Model, opts Options) int64 {
	t.Helper()
	opts.FirstSolution = true
	return solve(t, m, opts).Stats.Nodes
}

// TestWeightsOutliveSearches: what one search learns steers the next, so no
// restart, cutoff row or new search resets a weight.
func TestWeightsOutliveSearches(t *testing.T) {
	m, opts := pigeonholeGated(8, 7)
	m.Minimize(lin(Term{opts.BranchOrder[0], -1}))
	opts.NodeLimit = 4 * restartBaseNodes
	s := m.searcher(opts)
	total := func() (sum int64) {
		for _, w := range s.weight {
			sum += w
		}
		return sum
	}
	// The first attempt branches the gate high and loses its cap to the
	// pigeonhole; the second finds the gate low.
	if err := s.feasible(noCutoff); err != nil {
		t.Fatal(err)
	}
	before, learnt := slices.Clone(s.weight), total()
	if learnt == 0 {
		t.Fatal("the first search met no conflict; the test needs one that does")
	}
	rows := m.NumConstraints()
	m.AddLe(m.obj, -1) // gate high: the pigeonhole
	if err := s.feasible(-1); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	m.dropRowsFrom(rows)
	for v, w := range s.weight {
		if w < before[v] {
			t.Errorf("weight of variable %d fell from %d to %d", v, before[v], w)
		}
	}
	if total() <= learnt {
		t.Errorf("total weight stayed at %d through a search full of conflicts", learnt)
	}
}

// pollCtx is cancelled by its own cancelAt-th poll, too late for that poll to
// see it.
type pollCtx struct {
	context.Context
	cancel          func()
	polls, cancelAt int
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls++; c.polls == c.cancelAt {
		c.cancel()
		return nil
	}
	return c.Context.Done()
}

// TestCancellationLatency: however short the restart attempts, a cancelled
// context stops a solve within 256 nodes.
func TestCancellationLatency(t *testing.T) {
	// Gate shut: an infeasible pigeonhole no budget here refutes.
	m, opts := pigeonholeGated(9, 8)
	m.AddEq(VarExpr(opts.BranchOrder[0]), 1)
	opts.NodeLimit = 1 << 20 // a search that never polls ends all the same
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	var s *searcher
	var atCancel int64
	ctx := &pollCtx{Context: inner, cancelAt: 40, cancel: func() { atCancel = s.stats.Nodes; cancel() }}
	opts.Ctx = ctx
	s = m.searcher(opts)
	if err := s.feasible(noCutoff); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if after := s.stats.Nodes - atCancel; atCancel == 0 || after > 256 {
		t.Errorf("cancelled at node %d, stopped %d nodes later; want within 256", atCancel, after)
	}
	// The same through Solve, which must hand back no values.
	ctx.polls = 0
	sol, err := m.Solve(opts)
	if err != context.Canceled || sol.Values != nil {
		t.Fatalf("Solve: err = %v, values %v; want context.Canceled and none", err, sol.Values)
	}
}

func TestRestartDeterminism(t *testing.T) {
	// Identical models must produce identical restart sequences (the RNG is
	// seeded from the model fingerprint) and hence identical solutions and
	// effort counts.
	run := func() *Solution {
		m, opts := pigeonholeGated(8, 7)
		s, err := m.Solve(opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a.Stats.Nodes != b.Stats.Nodes || a.Stats.Propagations != b.Stats.Propagations {
		t.Fatalf("effort differs across identical solves: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("value %d differs: %d vs %d", i, a.Values[i], b.Values[i])
		}
	}
}

// TestSolveLeavesModelUntouched: minimizing posts cutoff rows while it
// runs; none may survive the call.
func TestSolveLeavesModelUntouched(t *testing.T) {
	m := NewModel()
	var vars []VarID
	for i := 0; i < 6; i++ {
		vars = append(vars, m.NewInt(0, 3))
	}
	for i := 0; i+1 < len(vars); i++ {
		m.AddGe(lin(Term{vars[i], 1}, Term{vars[i+1], 2}), 3)
	}
	m.Minimize(Sum(vars...))
	rows, fp := m.NumConstraints(), m.Fingerprint()
	first := solve(t, m, Options{})
	if !first.Stats.Optimal {
		t.Fatal("unbudgeted minimization must prove optimality")
	}
	if m.NumConstraints() != rows || m.Fingerprint() != fp {
		t.Fatalf("Solve mutated the model: %d rows (fingerprint %#x), was %d (%#x)",
			m.NumConstraints(), m.Fingerprint(), rows, fp)
	}
	// Nothing of the cutoff rows is left, so a second solve of the same
	// model repeats the first one exactly.
	again := solve(t, m, Options{})
	if again.Objective != first.Objective || again.Stats.Nodes != first.Stats.Nodes ||
		again.Stats.Propagations != first.Stats.Propagations {
		t.Fatalf("second solve differs: %+v (obj %d) vs %+v (obj %d)",
			again.Stats, again.Objective, first.Stats, first.Objective)
	}
}

// TestResetIsFreshModel: a model that was Reset and rebuilt with the same
// rows solves exactly like a new one — values, objective, nodes and
// propagations — whatever it held before, also right after a Solve whose
// cutoff loop posted and dropped rows.
func TestResetIsFreshModel(t *testing.T) {
	builds := []struct {
		name  string
		build func(*Model) Options
	}{
		{"pigeonhole", func(m *Model) Options {
			// As many pigeons housed as possible, under a budget the proof
			// of the optimum outlasts (see TestSolveDeterministic).
			opts := pigeonholeInto(m, 8, 7)
			m.Minimize(negateForTest(Sum(opts.BranchOrder[1:]...)))
			opts.NodeLimit = 3000
			return opts
		}},
		{"knapsack", knapsack},
	}
	reused := NewModel()
	solve(t, reused, knapsack(reused))
	for _, b := range builds {
		fresh := NewModel()
		want := solve(t, fresh, b.build(fresh))
		for round := 1; round <= 2; round++ {
			reused.Reset()
			got := solve(t, reused, b.build(reused))
			if reused.NumConstraints() != fresh.NumConstraints() || reused.Fingerprint() != fresh.Fingerprint() {
				t.Fatalf("%s, round %d: the rebuilt model differs from a new one", b.name, round)
			}
			got.Stats.Duration, want.Stats.Duration = 0, 0
			if got.Stats != want.Stats || got.Objective != want.Objective || !slices.Equal(got.Values, want.Values) {
				t.Errorf("%s, round %d: %+v (objective %d, values %v), a new model %+v (objective %d, values %v)",
					b.name, round, got.Stats, got.Objective, got.Values, want.Stats, want.Objective, want.Values)
			}
		}
	}
	// Reset drops the objective too, and the caller owns the values: a
	// later Solve of the model does not rewrite them.
	m := NewModel()
	sol := solve(t, m, knapsack(m))
	values := slices.Clone(sol.Values)
	m.Reset()
	x := m.NewInt(0, 5)
	m.AddGe(VarExpr(x), 4)
	m.AddEq(Sum(m.NewBool(), m.NewBool()), 0)
	if s := solve(t, m, Options{}); s.Values[x] != 4 || s.Objective != 0 {
		t.Errorf("x = %d, objective %d after Reset; want the first solution, 4, and no objective", s.Values[x], s.Objective)
	}
	if !slices.Equal(sol.Values, values) {
		t.Errorf("a Solve after Reset rewrote an earlier solution's values: %v, were %v", sol.Values, values)
	}
}

// TestSolveReusesSearcher: one Solve sizes its search buffers once, so what
// it allocates grows neither with the restart attempts nor with the nodes,
// and a Solve after Reset reuses the last one's.
func TestSolveReusesSearcher(t *testing.T) {
	// Gate shut: an infeasible pigeonhole that no attempt below refutes
	// within its cap, so a budget of the first k caps buys exactly k attempts.
	m := NewModel()
	var opts Options
	build := func() {
		m.Reset()
		opts = pigeonholeInto(m, 9, 8)
		m.AddEq(VarExpr(opts.BranchOrder[0]), 1)
	}
	build()
	allocs := func(attempts int) float64 {
		opts.NodeLimit = 0
		for k := 1; k <= attempts; k++ {
			opts.NodeLimit += restartBaseNodes * luby(k)
		}
		return testing.AllocsPerRun(2, func() {
			if s, err := m.Solve(opts); err != ErrTimeout || s.Stats.Nodes != opts.NodeLimit {
				t.Fatalf("%d attempts: %d nodes, err %v; want ErrTimeout after all %d", attempts, s.Stats.Nodes, err, opts.NodeLimit)
			}
		})
	}
	one, many := allocs(1), allocs(31)
	t.Logf("allocations per Solve: %.0f with one attempt, %.0f with 31 (%d nodes)", one, many, opts.NodeLimit)
	if one > 32 || many > one+2 {
		t.Errorf("Solve allocates %.0f times with one attempt and %.0f with 31; want a small constant", one, many)
	}
	// Reset and the same rows again: the Solve itself allocates its Solution
	// and nothing else.
	limit := opts.NodeLimit
	rebuild := testing.AllocsPerRun(2, build)
	both := testing.AllocsPerRun(2, func() {
		build()
		opts.NodeLimit = limit
		if _, err := m.Solve(opts); err != ErrTimeout {
			t.Fatalf("err = %v after Reset, want ErrTimeout", err)
		}
	})
	t.Logf("allocations after Reset: %.0f to rebuild, %.0f to rebuild and solve", rebuild, both)
	if both-rebuild > 1 {
		t.Errorf("a Solve after Reset allocates %.0f times; want 1, its Solution", both-rebuild)
	}
}

// TestImprovementOutOfBudget: when an improvement iteration runs out of its
// NodeLimit/2 nodes, Solve answers the best solution so far, unproven — not
// an error. The lower bound it ran at its first restart spent nodes of its
// own, beside the iteration's NodeLimit/2.
func TestImprovementOutOfBudget(t *testing.T) {
	// Minimizing h = ¬g: h = 1 is found at once, and the only improvement,
	// g = 1, means refuting the pigeonhole — as does the bound's one check,
	// {h} a core, which its restartBaseNodes cannot.
	m, opts := pigeonholeGated(8, 7)
	g, h := opts.BranchOrder[0], m.NewBool()
	m.AddBoolNot(h, g)
	m.Minimize(VarExpr(h))
	opts.PreferHigh = nil
	opts.NodeLimit = 2000
	s := solve(t, m, opts)
	bound := m.s.boundNodes
	if s.Values[g] != 0 || s.Objective != 1 {
		t.Fatalf("g = %d, objective %d; want the g = 0 solution", s.Values[g], s.Objective)
	}
	if s.Stats.Optimal {
		t.Error("an improvement search cut short by NodeLimit must not claim optimality")
	}
	if want := firstSearch(t, m, opts) + opts.NodeLimit/2 + restartBaseNodes; s.Stats.Nodes != want || bound != restartBaseNodes {
		t.Errorf("Stats.Nodes = %d, the bound's %d; want %d: the first search's nodes, the bound's one capped check and the failed improvement search's whole NodeLimit/2",
			s.Stats.Nodes, bound, want)
	}
}

func TestFingerprintDistinguishesModels(t *testing.T) {
	build := func(coeff, rhs, hi int64) *Model {
		m := NewModel()
		x := m.NewInt(0, hi)
		y := m.NewInt(0, hi)
		m.AddLe(lin(Term{x, coeff}, Term{y, 1}), rhs)
		return m
	}
	base := build(2, 7, 10)
	if got := build(2, 7, 10).Fingerprint(); got != base.Fingerprint() {
		t.Fatalf("identical models disagree: %#x vs %#x", got, base.Fingerprint())
	}
	// All of these share the base model's variable and constraint counts —
	// the old constraint-count seed could not tell them apart.
	variants := map[string]*Model{
		"coefficient": build(3, 7, 10),
		"rhs":         build(2, 8, 10),
		"bounds":      build(2, 7, 11),
	}
	for name, m := range variants {
		if m.NumConstraints() != base.NumConstraints() {
			t.Fatalf("%s variant changed the constraint count; fix the test", name)
		}
		if m.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s-differing model shares the base fingerprint", name)
		}
	}
}
