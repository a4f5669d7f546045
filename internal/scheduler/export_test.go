package scheduler

import (
	"chameleon/internal/analyzer"
	"chameleon/internal/milp"
	"chameleon/internal/spec"
)

// EncodeRounds encodes R = 1..maxR in turn with one encoder, as a round scan
// does, and hands f each round count's model before the next replaces it.
func EncodeRounds(a *analyzer.Analysis, sp *spec.Spec, opts Options, maxR int, f func(R int, m *milp.Model)) {
	e := newEncoder(a, sp, opts)
	for r := 1; r <= maxR; r++ {
		e.encode(r)
		f(r, e.model)
	}
}
