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

// LinExpr is Σ terms + Const.
type LinExpr struct {
	Terms []Term
	Const int64
}

// Lin builds an empty linear expression.
func Lin() LinExpr { return LinExpr{} }

// Add returns e + coeff·v.
func (e LinExpr) Add(v VarID, coeff int64) LinExpr {
	e.Terms = append(e.Terms[:len(e.Terms):len(e.Terms)], Term{v, coeff})
	return e
}

// Plus returns e + c.
func (e LinExpr) Plus(c int64) LinExpr {
	e.Const += c
	return e
}

// VarExpr returns the expression 1·v.
func VarExpr(v VarID) LinExpr { return Lin().Add(v, 1) }

// Sum returns Σ 1·v over vs.
func Sum(vs ...VarID) LinExpr {
	e := Lin()
	for _, v := range vs {
		e = e.Add(v, 1)
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

// constraint is the normalized internal form Σ terms ≤ rhs.
type constraint struct {
	terms []Term
	rhs   int64
}

// Model is a mixed-integer linear model. Build it with NewInt/NewBool and
// the Add* helpers, then call Solve.
type Model struct {
	lo, hi []int64
	names  []string
	cons   []constraint
	// wake[slot] lists, in posting order, the rows with a term that reads
	// that bound slot (slotOf): wake[2v] those where v's coefficient is
	// positive, wake[2v+1] those where it is negative. They are the rows
	// whose minSum rises when the slot tightens.
	wake   [][]int32
	at     []int32 // addLe scratch: at[v]−1 is v's index in the row being merged
	obj    LinExpr
	hasObj bool
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NewInt declares an integer variable with inclusive bounds [lo, hi].
func (m *Model) NewInt(name string, lo, hi int64) VarID {
	if lo > hi {
		panic(fmt.Sprintf("milp: variable %s has empty domain [%d,%d]", name, lo, hi))
	}
	id := VarID(len(m.lo))
	m.lo = append(m.lo, lo)
	m.hi = append(m.hi, hi)
	m.names = append(m.names, name)
	m.wake = append(m.wake, nil, nil)
	m.at = append(m.at, 0)
	return id
}

// NewBool declares a 0/1 variable.
func (m *Model) NewBool(name string) VarID { return m.NewInt(name, 0, 1) }

// NumVars returns the number of declared variables.
func (m *Model) NumVars() int { return len(m.lo) }

// NumConstraints returns the number of normalized ≤ rows.
func (m *Model) NumConstraints() int { return len(m.cons) }

// Name returns the variable's name.
func (m *Model) Name(v VarID) string { return m.names[v] }

// Bounds returns the declared bounds of v.
func (m *Model) Bounds(v VarID) (lo, hi int64) { return m.lo[v], m.hi[v] }

// Add posts the constraint e (op) rhs.
func (m *Model) Add(e LinExpr, op Op, rhs int64) {
	if op != OpGe {
		m.addLe(e.Terms, 1, rhs-e.Const)
	}
	if op != OpLe {
		m.addLe(e.Terms, -1, e.Const-rhs)
	}
}

// AddLe posts e ≤ rhs.
func (m *Model) AddLe(e LinExpr, rhs int64) { m.Add(e, OpLe, rhs) }

// AddGe posts e ≥ rhs.
func (m *Model) AddGe(e LinExpr, rhs int64) { m.Add(e, OpGe, rhs) }

// AddEq posts e = rhs.
func (m *Model) AddEq(e LinExpr, rhs int64) { m.Add(e, OpEq, rhs) }

// addLe posts sign·Σ terms ≤ rhs, sign being ±1.
func (m *Model) addLe(terms []Term, sign, rhs int64) {
	// Merge duplicate variables in first-occurrence order.
	norm := make([]Term, 0, len(terms))
	for _, t := range terms {
		if i := m.at[t.Var]; i > 0 {
			norm[i-1].Coeff += sign * t.Coeff
			continue
		}
		norm = append(norm, Term{t.Var, sign * t.Coeff})
		m.at[t.Var] = int32(len(norm))
	}
	// Drop zero coefficients.
	n := 0
	for _, t := range norm {
		m.at[t.Var] = 0
		if t.Coeff != 0 {
			norm[n] = t
			n++
		}
	}
	norm = norm[:n]
	if n == 0 && rhs >= 0 {
		return // 0 ≤ rhs holds; 0 ≤ rhs < 0 stays, as a row no search survives
	}
	idx := int32(len(m.cons))
	m.cons = append(m.cons, constraint{norm, rhs})
	for _, t := range norm {
		m.wake[slotOf(t)] = append(m.wake[slotOf(t)], idx)
	}
}

// exprMax returns the maximum value of e under the declared bounds.
func (m *Model) exprMax(e LinExpr) int64 {
	v := e.Const
	for _, t := range e.Terms {
		if t.Coeff > 0 {
			v += t.Coeff * m.hi[t.Var]
		} else {
			v += t.Coeff * m.lo[t.Var]
		}
	}
	return v
}

// exprMin returns the minimum value of e under the declared bounds.
func (m *Model) exprMin(e LinExpr) int64 {
	v := e.Const
	for _, t := range e.Terms {
		if t.Coeff > 0 {
			v += t.Coeff * m.lo[t.Var]
		} else {
			v += t.Coeff * m.hi[t.Var]
		}
	}
	return v
}

// AddImpliesLe posts b = 1 ⇒ e ≤ rhs using an automatically tightened
// big-M derived from variable bounds.
func (m *Model) AddImpliesLe(b VarID, e LinExpr, rhs int64) {
	bigM := m.exprMax(e) - rhs
	if bigM <= 0 {
		return // already always true
	}
	// e + M·b ≤ rhs + M.
	m.AddLe(e.Add(b, bigM), rhs+bigM)
}

// AddImpliesGe posts b = 1 ⇒ e ≥ rhs.
func (m *Model) AddImpliesGe(b VarID, e LinExpr, rhs int64) {
	bigM := rhs - m.exprMin(e)
	if bigM <= 0 {
		return
	}
	// e - M·b ≥ rhs - M.
	m.AddGe(e.Add(b, -bigM), rhs-bigM)
}

// AddImpliesNotLe posts b = 0 ⇒ e ≤ rhs.
func (m *Model) AddImpliesNotLe(b VarID, e LinExpr, rhs int64) {
	bigM := m.exprMax(e) - rhs
	if bigM <= 0 {
		return
	}
	// e - M·b ≤ rhs
	m.AddLe(e.Add(b, -bigM), rhs)
}

// AddImpliesNotGe posts b = 0 ⇒ e ≥ rhs.
func (m *Model) AddImpliesNotGe(b VarID, e LinExpr, rhs int64) {
	bigM := rhs - m.exprMin(e)
	if bigM <= 0 {
		return
	}
	// e + M·b ≥ rhs
	m.AddGe(e.Add(b, bigM), rhs)
}

// AddImpliesNotEq posts b = 0 ⇒ e = rhs.
func (m *Model) AddImpliesNotEq(b VarID, e LinExpr, rhs int64) {
	m.AddImpliesNotLe(b, e, rhs)
	m.AddImpliesNotGe(b, e, rhs)
}

// AddImpliesEq posts b = 1 ⇒ e = rhs.
func (m *Model) AddImpliesEq(b VarID, e LinExpr, rhs int64) {
	m.AddImpliesLe(b, e, rhs)
	m.AddImpliesGe(b, e, rhs)
}

// ReifyLe creates a fresh boolean b with b = 1 ⇔ e ≤ rhs.
func (m *Model) ReifyLe(name string, e LinExpr, rhs int64) VarID {
	b := m.NewBool(name)
	m.AddImpliesLe(b, e, rhs) // b ⇒ e ≤ rhs
	// ¬b ⇒ e ≥ rhs+1: e ≥ rhs+1 - M·b.
	bigM := rhs + 1 - m.exprMin(e)
	if bigM > 0 {
		m.AddGe(e.Add(b, bigM), rhs+1)
	} else {
		// e ≥ rhs+1 always: b is forced... e ≤ rhs never holds.
		m.AddEq(VarExpr(b), 0)
	}
	return b
}

// ReifyEq creates a fresh boolean b with b = 1 ⇔ e = rhs.
func (m *Model) ReifyEq(name string, e LinExpr, rhs int64) VarID {
	le := m.ReifyLe(name+"/le", e, rhs)
	ge := m.ReifyLe(name+"/ge", negate(e), -rhs)
	b := m.NewBool(name)
	m.AddBoolAnd(b, le, ge)
	return b
}

func negate(e LinExpr) LinExpr {
	out := LinExpr{Const: -e.Const, Terms: make([]Term, len(e.Terms))}
	for i, t := range e.Terms {
		out.Terms[i] = Term{t.Var, -t.Coeff}
	}
	return out
}

// AtLeastOne posts Σ bs ≥ 1.
func (m *Model) AtLeastOne(bs ...VarID) { m.AddGe(Sum(bs...), 1) }

// ExactlyOne posts Σ bs = 1.
func (m *Model) ExactlyOne(bs ...VarID) { m.AddEq(Sum(bs...), 1) }

// AddBoolOr posts target = OR(bs).
func (m *Model) AddBoolOr(target VarID, bs ...VarID) {
	for _, b := range bs {
		// b ≤ target
		m.AddLe(VarExpr(b).Add(target, -1), 0)
	}
	// target ≤ Σ bs
	e := VarExpr(target)
	for _, b := range bs {
		e = e.Add(b, -1)
	}
	m.AddLe(e, 0)
}

// AddBoolAnd posts target = AND(bs).
func (m *Model) AddBoolAnd(target VarID, bs ...VarID) {
	for _, b := range bs {
		// target ≤ b
		m.AddLe(VarExpr(target).Add(b, -1), 0)
	}
	// target ≥ Σ bs - (n-1)
	e := VarExpr(target)
	for _, b := range bs {
		e = e.Add(b, -1)
	}
	m.AddGe(e, 1-int64(len(bs)))
}

// AddBoolNot posts target = ¬b.
func (m *Model) AddBoolNot(target, b VarID) {
	m.AddEq(VarExpr(target).Add(b, 1), 1)
}

// Minimize sets the objective to minimize e.
func (m *Model) Minimize(e LinExpr) {
	m.obj = e
	m.hasObj = true
}

// Maximize sets the objective to maximize e.
func (m *Model) Maximize(e LinExpr) {
	m.Minimize(negate(e))
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
			return fmt.Sprintf("var %s=%d outside [%d,%d]", m.names[i], v, m.lo[i], m.hi[i])
		}
	}
	for ci, c := range m.cons {
		s := int64(0)
		for _, t := range c.terms {
			s += t.Coeff * values[t.Var]
		}
		if s > c.rhs {
			return fmt.Sprintf("constraint %d: %d > %d", ci, s, c.rhs)
		}
	}
	return ""
}

// Fingerprint returns a structural FNV-1a hash of the model: variable
// count and bounds, every normalized constraint row (variables,
// coefficients, right-hand side) and the objective. Identical models hash
// identically, so anything seeded from the fingerprint (the restart RNG)
// stays deterministic; models differing in structure — not just name
// strings — almost surely hash apart even when their constraint counts
// coincide.
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
	mix(uint64(len(m.cons)))
	for _, c := range m.cons {
		mix(uint64(len(c.terms)))
		for _, t := range c.terms {
			mix(uint64(t.Var))
			mix(uint64(t.Coeff))
		}
		mix(uint64(c.rhs))
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

// objRange returns the min/max of the objective under declared bounds.
func (m *Model) objRange() (int64, int64) {
	if !m.hasObj {
		return 0, 0
	}
	return m.exprMin(m.obj), m.exprMax(m.obj)
}
