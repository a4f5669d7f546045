package milp

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// refPropagator is the bounds-consistency kernel as it stood before the
// division-free, direction-aware one: a bound change wakes every row holding
// the variable, whichever its sign and the changing row included, and a
// visit divides once per term. It normalizes rows on its own (a map per
// row) and shares no code with solve.go, which makes it the oracle of
// TestPropagateMatchesReference and FuzzPropagateModel.
type refPropagator struct {
	rows    []refRow
	varRows [][]int // var → rows holding it
	lo, hi  []int64
	queue   []int
	inQ     []bool
}

type refRow struct {
	terms []Term
	rhs   int64
}

// add posts Σ terms (op) rhs as one or two ≤ rows.
func (r *refPropagator) add(terms []Term, op Op, rhs int64) {
	for _, sign := range []int64{1, -1} {
		if sign == 1 && op == OpGe || sign == -1 && op == OpLe {
			continue
		}
		merged := make(map[VarID]int64)
		for _, t := range terms {
			merged[t.Var] += sign * t.Coeff
		}
		var row refRow
		for _, t := range terms {
			if c := merged[t.Var]; c != 0 {
				row.terms = append(row.terms, Term{t.Var, c})
				r.varRows[t.Var] = append(r.varRows[t.Var], len(r.rows))
			}
			delete(merged, t.Var)
		}
		row.rhs = sign * rhs
		r.rows = append(r.rows, row)
		r.inQ = append(r.inQ, false)
	}
}

// solutions enumerates every integer point of the box lo..hi and returns
// those that satisfy every row: the brute-force answer to what a complete
// search must decide. The box must be small.
func (r *refPropagator) solutions(lo, hi []int64) [][]int64 {
	var out [][]int64
	x := slices.Clone(lo)
	for {
		ok := true
		for _, row := range r.rows {
			var sum int64
			for _, t := range row.terms {
				sum += t.Coeff * x[t.Var]
			}
			if sum > row.rhs {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, slices.Clone(x))
		}
		v := 0
		for ; v < len(x) && x[v] == hi[v]; v++ {
			x[v] = lo[v]
		}
		if v == len(x) {
			return out
		}
		x[v]++
	}
}

func (r *refPropagator) wake(v VarID) {
	for _, ci := range r.varRows[v] {
		if !r.inQ[ci] {
			r.inQ[ci] = true
			r.queue = append(r.queue, ci)
		}
	}
}

func (r *refPropagator) setLo(v VarID, nv int64) bool {
	if nv <= r.lo[v] {
		return true
	}
	if nv > r.hi[v] {
		return false
	}
	r.lo[v] = nv
	r.wake(v)
	return true
}

func (r *refPropagator) setHi(v VarID, nv int64) bool {
	if nv >= r.hi[v] {
		return true
	}
	if nv < r.lo[v] {
		return false
	}
	r.hi[v] = nv
	r.wake(v)
	return true
}

// divFloor computes floor(p/q).
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

// propagate runs the queue to fixpoint; false means conflict, after which
// lo/hi are garbage and the queue is empty.
func (r *refPropagator) propagate() bool {
	for len(r.queue) > 0 {
		ci := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.inQ[ci] = false
		c := r.rows[ci]
		var minSum int64
		for _, t := range c.terms {
			minSum += min(t.Coeff*r.lo[t.Var], t.Coeff*r.hi[t.Var])
		}
		ok := minSum <= c.rhs
		for i := 0; ok && i < len(c.terms); i++ {
			t := c.terms[i]
			slack := c.rhs - (minSum - min(t.Coeff*r.lo[t.Var], t.Coeff*r.hi[t.Var]))
			if t.Coeff > 0 {
				ok = r.setHi(t.Var, divFloor(slack, t.Coeff)) // x ≤ ⌊slack/a⌋
			} else {
				ok = r.setLo(t.Var, divCeil(slack, t.Coeff)) // x ≥ ⌈slack/a⌉
			}
		}
		if !ok {
			clear(r.inQ)
			r.queue = r.queue[:0]
			return false
		}
	}
	return true
}

// Tables the byte-string decoder of checkPropagate draws from.
var (
	fuzzWidths = []int64{0, 1, 2, 5, 20}
	fuzzCoeffs = []int64{1, -1, 2, -2, 40, -40, 0} // ±1, ±2, ±big-M, dropped
)

// checkPropagate decodes data into a model and a sequence of bound changes
// and drives the kernel and the reference through both in lockstep: after
// the root propagation and after every change the two must agree on
// conflict or on every variable's bounds, and a conflicting change is taken
// back on both sides (the kernel's by its trail) before the next. Changes
// that held are stacked, and an undo op takes the kernel back to the trail
// mark before one of them and the reference to the bounds it saved there.
// After every propagation and every undo each row's kept activity must
// equal its sum recomputed from the bounds.
//
//	byte 0            2 + b%11 variables
//	2 bytes/variable  lo = b%9 − 4, hi = lo + fuzzWidths[b%5]
//	1 byte            b%9 rows
//	per row           1 byte: operator b%3 (≤ ≥ =), (b/3)%6 terms;
//	                  2 bytes/term: variable b%n, fuzzCoeffs[b%7];
//	                  1 byte: rhs = b%41 − 20
//	rest, 2 bytes/op  a first byte b ≥ 192 is an undo to before the stacked
//	                  change b'%depth, b' being the second byte (none when
//	                  the stack is empty); otherwise variable b%n, b'&1
//	                  picks hi over lo, the new bound is declared
//	                  lo − 1 + (b'>>1)%(width+3)
//
// A short string reads as zero bytes at its end.
func checkPropagate(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	m, ref := NewModel(), &refPropagator{}
	n := 2 + next()%11
	for v := 0; v < n; v++ {
		lo := int64(next()%9) - 4
		hi := lo + fuzzWidths[next()%len(fuzzWidths)]
		m.NewInt(lo, hi)
		ref.lo, ref.hi = append(ref.lo, lo), append(ref.hi, hi)
	}
	ref.varRows = make([][]int, n)
	for rows := next() % 9; rows > 0; rows-- {
		head := next()
		var e LinExpr
		for k := head / 3 % 6; k > 0; k-- {
			e.Terms = append(e.Terms, Term{VarID(next() % n), fuzzCoeffs[next()%len(fuzzCoeffs)]})
		}
		rhs := int64(next()%41) - 20
		m.Add(e, Op(head%3), rhs)
		ref.add(e.Terms, Op(head%3), rhs)
	}

	s := m.searcher(Options{})
	sameBounds := func(step string) {
		t.Helper()
		for v := 0; v < n; v++ {
			if s.bnd[2*v] != ref.lo[v] || s.bnd[2*v+1] != ref.hi[v] {
				t.Fatalf("%s: variable %d is [%d,%d], reference [%d,%d]", step, v,
					s.bnd[2*v], s.bnd[2*v+1], ref.lo[v], ref.hi[v])
			}
		}
	}
	sameActivity := func(step string) {
		t.Helper()
		for ci := range m.rhs {
			var sum int64
			for _, t := range m.row(ci) {
				sum += t.Coeff * s.bnd[slotOf(t)]
			}
			if s.act[ci] != sum {
				t.Fatalf("%s: row %d keeps activity %d, its terms sum to %d", step, ci, s.act[ci], sum)
			}
		}
	}
	for i := range ref.rows {
		ref.inQ[i] = true
		ref.queue = append(ref.queue, i)
	}
	feasible, want := s.root(), ref.propagate()
	if feasible != want {
		t.Fatalf("root: kernel feasible = %v, reference %v", feasible, want)
	}
	sameActivity("root")
	if feasible {
		sameBounds("root")
	}
	type held struct {
		mark             int
		savedLo, savedHi []int64
	}
	var stack []held
	for feasible && len(data) > 0 {
		v, b := next(), next()
		if v >= 192 {
			if len(stack) > 0 {
				h := stack[b%len(stack)]
				stack = stack[:b%len(stack)]
				s.undoTo(h.mark)
				ref.lo, ref.hi = h.savedLo, h.savedHi
				sameActivity("after an undo")
				sameBounds("after an undo")
			}
			continue
		}
		v %= n
		slot := 2*v + b&1
		nv := m.lo[v] - 1 + int64(b>>1)%(m.hi[v]-m.lo[v]+3)
		h := held{len(s.trail), slices.Clone(ref.lo), slices.Clone(ref.hi)}
		// The kernel's set takes strict, non-emptying tightenings only; the
		// guards its callers do not need are spelled out here.
		got := true
		if slot&1 == 0 && nv > s.bnd[slot] || slot&1 == 1 && nv < s.bnd[slot] {
			if got = s.bnd[2*v] <= nv && nv <= s.bnd[2*v+1]; got {
				s.set(slot, nv)
				got = s.propagate()
				sameActivity("after a propagation")
			}
		}
		if slot&1 == 0 {
			want = ref.setLo(VarID(v), nv)
		} else {
			want = ref.setHi(VarID(v), nv)
		}
		want = ref.propagate() && want
		if got != want {
			t.Fatalf("bound %d of variable %d to %d: kernel feasible = %v, reference %v", slot&1, v, nv, got, want)
		}
		if got {
			stack = append(stack, h)
		} else {
			s.undoTo(h.mark)
			ref.lo, ref.hi = h.savedLo, h.savedHi
			sameActivity("after a conflict's undo")
		}
		sameBounds("after a bound change")
	}
}

// TestPropagateMatchesReference runs checkPropagate on seeded random strings,
// long enough for full-size models and a few dozen bound changes.
func TestPropagateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(14, 1))
	for i := 0; i < 4000; i++ {
		data := make([]byte, 40+rng.IntN(200))
		for j := range data {
			data[j] = byte(rng.UintN(256))
		}
		checkPropagate(t, data)
	}
}

// FuzzPropagateModel feeds arbitrary strings to the same check. The seed
// corpus under testdata/fuzz holds a negative-domain model, a big-M
// implication, a row whose own tightenings used to re-wake it, and a big-M
// tightening taken back by an undo.
func FuzzPropagateModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkPropagate(t, data) })
}
