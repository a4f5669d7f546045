package plan

import (
	"errors"
	"fmt"
	"sort"

	"chameleon/internal/sim"
)

// MultiPlan executes several per-destination plans in parallel (§5):
// Chameleon treats each prefix equivalence class separately, runs their
// update phases concurrently, and aligns the shared original reconfiguration
// commands across all of them.
type MultiPlan struct {
	Plans []*Plan
	// Originals are the shared original commands.
	Originals []sim.Command
	// Order is the command application order (indices into Originals),
	// consistent with every plan's placement.
	Order []int
}

// ErrNeedsSplit is returned when no single command ordering is consistent
// with every destination's schedule; the §5 fallback is to split the
// reconfiguration into per-command steps ordered by Snowcap.
var ErrNeedsSplit = errors.New("plan: original commands need different orders per destination; split the reconfiguration")

// Align builds a MultiPlan from per-destination plans compiled against the
// same original command list. It fails with ErrNeedsSplit when two
// destinations require contradictory command orders.
func Align(plans []*Plan, originals []sim.Command) (*MultiPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("plan: no plans to align")
	}
	n := len(originals)
	// Build the precedence relation: i before j if some plan places i in
	// a strictly earlier slot.
	before := make([][]bool, n)
	for i := range before {
		before[i] = make([]bool, n)
	}
	for _, p := range plans {
		if p.OriginalSlots == nil && n > 0 {
			return nil, fmt.Errorf("plan: plan for prefix %d lacks original slots", p.Prefix)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && p.OriginalSlots[i] < p.OriginalSlots[j] {
					before[i][j] = true
				}
			}
		}
	}
	// Conflict check + topological order (stable: lowest index first).
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if before[i][j] && before[j][i] {
				return nil, ErrNeedsSplit
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if before[i][j] != before[j][i] {
			return before[i][j]
		}
		return i < j
	})
	return &MultiPlan{Plans: plans, Originals: originals, Order: order}, nil
}

// Single wraps one plan as the multi-plan of one it is: Originals lists the
// commands of p.Between in slot order and Order is that order, so the
// commands of one slot stay together. The wrapped plan is a shallow copy
// whose OriginalSlots index that list — p is not modified, and a hand-built
// plan that fills only Between runs like a compiled one.
func Single(p *Plan) *MultiPlan {
	q := *p
	q.OriginalSlots = make(map[int]int)
	mp := &MultiPlan{Plans: []*Plan{&q}}
	for slot, cmds := range p.Between {
		for _, cmd := range cmds {
			q.OriginalSlots[len(mp.Order)] = slot
			mp.Order = append(mp.Order, len(mp.Order))
			mp.Originals = append(mp.Originals, cmd)
		}
	}
	return mp
}

// TempSessions returns the union of all plans' temporary sessions.
func (mp *MultiPlan) TempSessions() []Session {
	seen := make(map[Session]bool)
	var out []Session
	for _, p := range mp.Plans {
		for _, s := range p.TempSessions {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}
