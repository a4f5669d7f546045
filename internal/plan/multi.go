package plan

import (
	"errors"
	"fmt"
	"sort"

	"chameleon/internal/bgp"
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

// Phase is one stretch of a run, executed as one span: its parts in turn.
type Phase struct {
	// Name is setup, between k (the run's k-th synchronization point — for
	// one plan, its Between slot k), round k ("d7 round k" for destination
	// 7 of several) or cleanup.
	Name string
	// Sync marks a synchronization point: BGP settles there before any
	// plan's next round starts. Its one part holds a group of original
	// commands (a run of Order that every plan places in one slot, pushed as
	// one batch), or no step for an empty Between slot, and carries the
	// prefix of the destination whose steps ran last.
	Sync  bool
	Parts []Part
}

// Part is one destination's share of a phase.
type Part struct {
	Prefix bgp.Prefix
	Steps  []Step
}

// Phases returns the run in order (§5): the setup of every destination,
// then each destination's update rounds up to the Between slot the next
// group of original commands sits in, that group, and so on, and at last
// the cleanup of every destination. Every plan's empty Between slot is a
// synchronization point of its own, before the plan's next round.
func (mp *MultiPlan) Phases() []Phase {
	// Every slice is sized once: syncs are at most one per group and one
	// per Between slot, so no append below grows its array.
	rounds, maxSyncs := 0, len(mp.Order)
	for _, p := range mp.Plans {
		rounds += p.R
		maxSyncs += len(p.Between)
	}
	phases := make([]Phase, 0, 2+rounds+maxSyncs)
	parts := make([]Part, 0, 2*len(mp.Plans)+rounds+maxSyncs)
	originals := make([]Step, len(mp.Order))
	add := func(name string, sync bool, from int) {
		phases = append(phases, Phase{Name: name, Sync: sync, Parts: parts[from:len(parts):len(parts)]})
	}
	every := func(name string, steps func(*Plan) []Step) {
		from := len(parts)
		for _, p := range mp.Plans {
			parts = append(parts, Part{Prefix: p.Prefix, Steps: steps(p)})
		}
		add(name, false, from)
	}
	syncs := 0
	between := func(group []Step) {
		parts = append(parts, Part{Prefix: parts[len(parts)-1].Prefix, Steps: group})
		add(fmt.Sprintf("between %d", syncs), true, len(parts)-1)
		syncs++
	}
	// advance takes plan i through its Between slots below to: slot k is a
	// synchronization point if it holds no command (one that does is its
	// group's), then round k+1 runs.
	slot := make([]int, len(mp.Plans))
	advance := func(i, to int) {
		p := mp.Plans[i]
		for ; slot[i] < to; slot[i]++ {
			k := slot[i]
			if k < len(p.Between) && len(p.Between[k]) == 0 {
				between(nil)
			}
			if k < p.R {
				name := fmt.Sprintf("round %d", k+1)
				if len(mp.Plans) > 1 {
					name = fmt.Sprintf("d%d round %d", int(p.Prefix), k+1)
				}
				parts = append(parts, Part{Prefix: p.Prefix, Steps: p.Rounds[k]})
				add(name, false, len(parts)-1)
			}
		}
	}

	every("setup", func(p *Plan) []Step { return p.Setup })
	for next := 0; next < len(mp.Order); {
		first := mp.Order[next]
		end := next
		for end < len(mp.Order) && mp.sameSlots(first, mp.Order[end]) {
			originals[end] = Step{Command: mp.Originals[mp.Order[end]]}
			end++
		}
		for i, p := range mp.Plans {
			advance(i, p.OriginalSlots[first])
		}
		between(originals[next:end:end])
		next = end
	}
	for i, p := range mp.Plans {
		advance(i, p.R+1)
	}
	every("cleanup", func(p *Plan) []Step { return p.Cleanup })
	return phases
}

// sameSlots reports whether every plan places original commands a and b in
// the same Between slot.
func (mp *MultiPlan) sameSlots(a, b int) bool {
	for _, p := range mp.Plans {
		if p.OriginalSlots[a] != p.OriginalSlots[b] {
			return false
		}
	}
	return true
}

// R returns the largest round count among the plans.
func (mp *MultiPlan) R() int {
	r := 0
	for _, p := range mp.Plans {
		r = max(r, p.R)
	}
	return r
}

// NumSteps returns the plans' synchronized steps in total.
func (mp *MultiPlan) NumSteps() int {
	n := 0
	for _, p := range mp.Plans {
		n += p.NumSteps()
	}
	return n
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
