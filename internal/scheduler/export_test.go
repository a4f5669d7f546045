package scheduler

import (
	"fmt"

	"chameleon/internal/analyzer"
	"chameleon/internal/milp"
	"chameleon/internal/spec"
)

// EncodeRounds encodes R = 1..maxR in turn with one encoder from the free
// list, as a round scan does, and hands f each round count's model before the
// next replaces it.
func EncodeRounds(a *analyzer.Analysis, sp *spec.Spec, opts Options, maxR int, f func(R int, m *milp.Model)) {
	e := getEncoder(a, sp, opts)
	defer putEncoder(e)
	for r := 1; r <= maxR; r++ {
		e.encode(r)
		f(r, e.model)
	}
}

// DrainEncoders empties the encoder free list and reports how many encoders
// it held, so that a test starts from a fresh encoder whatever earlier tests
// left there.
func DrainEncoders() int {
	for n := 0; ; n++ {
		select {
		case <-encoders:
		default:
			return n
		}
	}
}

// FreeEncoders describes every encoder on the free list, in list order, by
// the number of entries in each of its maps and the model's size, and leaves
// the list as it was.
func FreeEncoders() []string {
	var es []*encoder
	for len(encoders) > 0 {
		es = append(es, <-encoders)
	}
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("switching=%d rOld=%d rNh=%d rNew=%d tOld=%d tNew=%d leK=%d delta=%d "+
			"eq=%d not=%d reach=%d wp=%d exits=%d spec=%d vars=%d rows=%d",
			len(e.isSwitching), len(e.rOld), len(e.rNh), len(e.rNew), len(e.tOld), len(e.tNew),
			len(e.leK), len(e.delta), len(e.eqMemo), len(e.notCache), len(e.reachMemo),
			len(e.wpMemo), len(e.exitsMemo), len(e.specMemo), e.model.NumVars(), e.model.NumConstraints())
		encoders <- e
	}
	return out
}
