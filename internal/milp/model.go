// Package milp is an exact integer linear program solver: a model builder
// with big-M linearization helpers (implication, reification, boolean
// logic) and a branch-and-bound search with bounds-consistency propagation
// over linear constraints.
//
// It replaces COIN-OR CBC used by the paper: the scheduler's model (§4) is
// encoded through this package unchanged — the same variables, big-M
// constraints and objective — only the solving engine differs.
package milp

import (
	"fmt"
)

// VarID identifies a model variable.
type VarID int

// Term is coeff·var.
type Term struct {
	Var   VarID
	Coeff int64
}

// slotOf is the bound slot whose value gives t its minimum, numbering a
// variable's lower bound 2·Var and its upper bound 2·Var+1: the lower bound
// under a positive coefficient, the upper bound under a negative one.
func slotOf(t Term) int { return int(t.Var)<<1 | int(uint64(t.Coeff)>>63) }

// LinExpr is Σ terms + Const. The model never keeps a caller's Terms: every
// helper copies them into its own arrays, so a caller may build them in a
// buffer it reuses, or on its stack.
type LinExpr struct {
	Terms []Term
	Const int64
}

// VarExpr returns the expression 1·v.
func VarExpr(v VarID) LinExpr { return LinExpr{Terms: []Term{{v, 1}}} }

// Sum returns Σ 1·v over vs.
func Sum(vs ...VarID) LinExpr {
	e := LinExpr{Terms: make([]Term, len(vs))}
	for i, v := range vs {
		e.Terms[i] = Term{v, 1}
	}
	return e
}

// Op is a constraint operator.
type Op int

// Constraint operators.
const (
	OpLe Op = iota
	OpGe
	OpEq
)

// Model is a mixed-integer linear model. Build it with NewInt/NewBool and
// the Add* helpers, then call Solve.
type Model struct {
	lo, hi []int64
	// The rows, each normalized to Σ terms ≤ rhs: row i is
	// terms[start[i]:start[i+1]] ≤ rhs[i], and span[i] is the largest
	// |a|·(hi − lo) of its terms at the declared bounds.
	start  []int
	terms  []Term
	rhs    []int64
	span   []int64
	at     []int32 // post's scratch: at[v]−1 is v's index in the row being merged
	obj    LinExpr // the model's own copy of the objective's terms
	hasObj bool
	group  int       // the objective's terms come in consecutive groups of this size
	s      *searcher // the last Solve's: the next one reuses its buffers
}

// push appends vs to b, doubling b's array when it is full: every array of
// a model grows by the policy the searcher's resize uses.
func push[T any](b []T, vs ...T) []T {
	if n := len(b) + len(vs); n > cap(b) {
		nb := make([]T, len(b), max(n, 2*cap(b)))
		copy(nb, b)
		b = nb
	}
	return append(b, vs...)
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{start: []int{0}} }

// Reset empties the model, keeping the storage of its variables, its rows,
// its objective and its searcher for the next model built in it. It drops the
// last Solve's options, so a kept model does not pin the caller's Ctx.
func (m *Model) Reset() {
	if m.s != nil {
		m.s.opts, m.s.ctxErr = Options{}, nil
	}
	m.lo, m.hi, m.at = m.lo[:0], m.hi[:0], m.at[:0]
	m.start, m.terms, m.rhs, m.span = m.start[:1], m.terms[:0], m.rhs[:0], m.span[:0]
	m.obj, m.hasObj = LinExpr{Terms: m.obj.Terms[:0]}, false
}

// NewInt declares an integer variable with inclusive bounds [lo, hi].
func (m *Model) NewInt(lo, hi int64) VarID {
	id := VarID(len(m.lo))
	if lo > hi {
		panic(fmt.Sprintf("milp: variable %d has empty domain [%d,%d]", id, lo, hi))
	}
	m.lo = push(m.lo, lo)
	m.hi = push(m.hi, hi)
	m.at = push(m.at, 0)
	return id
}

// NewBool declares a 0/1 variable.
func (m *Model) NewBool() VarID { return m.NewInt(0, 1) }

// NumVars returns the number of declared variables.
func (m *Model) NumVars() int { return len(m.lo) }

// NumConstraints returns the number of normalized ≤ rows.
func (m *Model) NumConstraints() int { return len(m.rhs) }

// row returns the terms of row i.
func (m *Model) row(i int) []Term { return m.terms[m.start[i]:m.start[i+1]] }

// Add posts the constraint e (op) rhs.
func (m *Model) Add(e LinExpr, op Op, rhs int64) {
	if op != OpGe {
		m.post(push(m.terms, e.Terms...), 1, rhs-e.Const)
	}
	if op != OpLe {
		m.post(push(m.terms, e.Terms...), -1, e.Const-rhs)
	}
}

// AddLe posts e ≤ rhs.
func (m *Model) AddLe(e LinExpr, rhs int64) { m.Add(e, OpLe, rhs) }

// AddGe posts e ≥ rhs.
func (m *Model) AddGe(e LinExpr, rhs int64) { m.Add(e, OpGe, rhs) }

// AddEq posts e = rhs.
func (m *Model) AddEq(e LinExpr, rhs int64) { m.Add(e, OpEq, rhs) }

// post files sign·Σ raw ≤ rhs, sign being ±1, where raw is m.terms with the
// row's unmerged terms appended after the last row's. It merges duplicate
// variables in first-occurrence order and drops zero coefficients, in place.
func (m *Model) post(raw []Term, sign, rhs int64) {
	first, n := len(m.terms), len(m.terms)
	for _, t := range raw[first:] {
		if i := m.at[t.Var]; i > 0 {
			raw[first+int(i)-1].Coeff += sign * t.Coeff
			continue
		}
		raw[n] = Term{t.Var, sign * t.Coeff}
		n++
		m.at[t.Var] = int32(n - first)
	}
	end, span := first, int64(0)
	for _, t := range raw[first:n] {
		m.at[t.Var] = 0
		if t.Coeff != 0 {
			raw[end] = t
			end++
			span = max(span, max(t.Coeff, -t.Coeff)*(m.hi[t.Var]-m.lo[t.Var]))
		}
	}
	m.terms = raw[:end]
	if end == first && rhs >= 0 {
		return // 0 ≤ rhs holds; 0 ≤ rhs < 0 stays, as a row no search survives
	}
	m.start = push(m.start, end)
	m.rhs = push(m.rhs, rhs)
	m.span = push(m.span, span)
}

// exprRange returns the minimum and maximum value of e under the declared
// bounds.
func (m *Model) exprRange(e LinExpr) (lo, hi int64) {
	lo, hi = e.Const, e.Const
	for _, t := range e.Terms {
		a, b := t.Coeff*m.lo[t.Var], t.Coeff*m.hi[t.Var]
		lo, hi = lo+min(a, b), hi+max(a, b)
	}
	return lo, hi
}

// AddImpliesLe posts b = 1 ⇒ e ≤ rhs using an automatically tightened
// big-M derived from variable bounds; nothing when e ≤ rhs always holds.
func (m *Model) AddImpliesLe(b VarID, e LinExpr, rhs int64) {
	if _, hi := m.exprRange(e); hi > rhs {
		// e + M·b ≤ rhs + M, M = hi − rhs
		m.post(push(push(m.terms, e.Terms...), Term{b, hi - rhs}), 1, hi-e.Const)
	}
}

// AddImpliesGe posts b = 1 ⇒ e ≥ rhs.
func (m *Model) AddImpliesGe(b VarID, e LinExpr, rhs int64) {
	if lo, _ := m.exprRange(e); lo < rhs {
		// e − M·b ≥ rhs − M, M = rhs − lo
		m.post(push(push(m.terms, e.Terms...), Term{b, lo - rhs}), -1, e.Const-lo)
	}
}

// AddImpliesEq posts b = 1 ⇒ e = rhs.
func (m *Model) AddImpliesEq(b VarID, e LinExpr, rhs int64) {
	m.AddImpliesLe(b, e, rhs)
	m.AddImpliesGe(b, e, rhs)
}

// ReifyLe creates a fresh boolean b with b = 1 ⇔ e ≤ rhs.
func (m *Model) ReifyLe(e LinExpr, rhs int64) VarID {
	b := m.NewBool()
	m.AddImpliesLe(b, e, rhs) // b ⇒ e ≤ rhs
	// ¬b ⇒ e ≥ rhs+1: e ≥ rhs+1 − M·b, M = rhs+1 − lo; if M ≤ 0, e ≤ rhs
	// never holds and b is 0.
	if lo, _ := m.exprRange(e); lo <= rhs {
		m.post(push(push(m.terms, e.Terms...), Term{b, rhs + 1 - lo}), -1, e.Const-rhs-1)
	} else {
		m.AddEq(VarExpr(b), 0)
	}
	return b
}

// AtLeastOne posts Σ bs ≥ 1.
func (m *Model) AtLeastOne(bs ...VarID) {
	raw := m.terms
	for _, b := range bs {
		raw = push(raw, Term{b, 1})
	}
	m.post(raw, -1, -1)
}

// AddBoolOr posts target = OR(bs).
func (m *Model) AddBoolOr(target VarID, bs ...VarID) {
	for _, b := range bs {
		m.post(push(m.terms, Term{b, 1}, Term{target, -1}), 1, 0) // b ≤ target
	}
	// target ≤ Σ bs
	raw := push(m.terms, Term{target, 1})
	for _, b := range bs {
		raw = push(raw, Term{b, -1})
	}
	m.post(raw, 1, 0)
}

// AddBoolAnd posts target = AND(bs).
func (m *Model) AddBoolAnd(target VarID, bs ...VarID) {
	for _, b := range bs {
		m.post(push(m.terms, Term{target, 1}, Term{b, -1}), 1, 0) // target ≤ b
	}
	// target ≥ Σ bs − (n−1)
	raw := push(m.terms, Term{target, 1})
	for _, b := range bs {
		raw = push(raw, Term{b, -1})
	}
	m.post(raw, -1, int64(len(bs))-1)
}

// AddBoolNot posts target = ¬b.
func (m *Model) AddBoolNot(target, b VarID) {
	m.post(push(m.terms, Term{target, 1}, Term{b, 1}), 1, 1)
	m.post(push(m.terms, Term{target, 1}, Term{b, 1}), -1, -1)
}

// Minimize sets the objective to minimize e.
func (m *Model) Minimize(e LinExpr) { m.MinimizeGroups(e, 1) }

// MinimizeGroups sets the objective to minimize e, whose terms come in
// consecutive groups of size terms (the last may be shorter): indicators of
// one underlying choice, such as the two temporary sessions of one node, of
// which a solution tends to need at least one. Solve's lower bound first
// tries each term together with the other terms of its group; the groups
// change nothing else.
func (m *Model) MinimizeGroups(e LinExpr, size int) {
	if size < 1 {
		panic(fmt.Sprintf("milp: objective group size %d", size))
	}
	m.obj = LinExpr{Terms: push(m.obj.Terms[:0], e.Terms...), Const: e.Const}
	m.hasObj, m.group = true, size
}

// Eval computes the value of e under an assignment.
func Eval(e LinExpr, values []int64) int64 {
	v := e.Const
	for _, t := range e.Terms {
		v += t.Coeff * values[t.Var]
	}
	return v
}

// Check verifies an assignment against every constraint, returning the
// first violated row description, or "" if feasible. Intended for tests.
func (m *Model) Check(values []int64) string {
	for i, v := range values {
		if v < m.lo[i] || v > m.hi[i] {
			return fmt.Sprintf("var %d=%d outside [%d,%d]", i, v, m.lo[i], m.hi[i])
		}
	}
	for ci, rhs := range m.rhs {
		s := int64(0)
		for _, t := range m.row(ci) {
			s += t.Coeff * values[t.Var]
		}
		if s > rhs {
			return fmt.Sprintf("constraint %d: %d > %d", ci, s, rhs)
		}
	}
	return ""
}

// Fingerprint returns a structural FNV-1a hash of the model: variable
// count and bounds, every normalized constraint row (variables,
// coefficients, right-hand side) and the objective. Identical models hash
// identically, so anything seeded from the fingerprint (the restart RNG)
// stays deterministic; models differing in structure almost surely hash
// apart even when their constraint counts coincide.
func (m *Model) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(len(m.lo)))
	for i := range m.lo {
		mix(uint64(m.lo[i]))
		mix(uint64(m.hi[i]))
	}
	mix(uint64(len(m.rhs)))
	for ci, rhs := range m.rhs {
		mix(uint64(len(m.row(ci))))
		for _, t := range m.row(ci) {
			mix(uint64(t.Var))
			mix(uint64(t.Coeff))
		}
		mix(uint64(rhs))
	}
	if m.hasObj {
		mix(uint64(len(m.obj.Terms)) + 1)
		for _, t := range m.obj.Terms {
			mix(uint64(t.Var))
			mix(uint64(t.Coeff))
		}
		mix(uint64(m.obj.Const))
	}
	return h
}
