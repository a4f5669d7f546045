package plan

import (
	"context"
	"fmt"

	"chameleon/internal/analyzer"
	"chameleon/internal/bgp"
	"chameleon/internal/obs"
	"chameleon/internal/pool"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/spec"
)

// ClassPlan is the planning output of one prefix equivalence class: the
// analysis and schedule computed once on the representative, one compiled
// plan per member (index-aligned with Class.Members) reusing that shared
// dependency graph, and the class's member-proportional slice of the
// solver node budget.
type ClassPlan struct {
	Class      analyzer.Class
	Analysis   *analyzer.Analysis
	Schedule   *scheduler.NodeSchedule
	Plans      []*Plan
	NodeBudget int64
}

// BuildClasses plans the change of every prefix from initial to final (§5):
// it partitions the prefixes into §3 equivalence classes, runs Build on each
// class's representative under the specification specFor derives from its
// analysis and its slice of opts.SolverNodeBudget, compiles the other
// members from the shared analysis, and aligns every plan on the shared
// original commands. Classes are planned on at
// most workers goroutines (≤ 0: one per CPU), each recording into its own
// fork adopted as "class <i>" in partition order (see pool.Map), so the
// result is byte-identical at any worker count; a single class plans on the
// calling goroutine, so its spans stream as they open. The class plans come
// in partition order, one per class even on error.
func BuildClasses(ctx context.Context, initial, final *sim.Network, prefixes []bgp.Prefix, commands []sim.Command,
	specFor func(*analyzer.Analysis) *spec.Spec, opts scheduler.Options, workers int) ([]ClassPlan, *MultiPlan, error) {
	classes := analyzer.Classes(initial, final, prefixes)
	weights := make([]int, len(classes))
	for i, c := range classes {
		weights[i] = len(c.Members)
	}
	budgets := scheduler.SplitNodeBudget(opts.SolverNodeBudget, weights)
	planOne := func(ctx context.Context, i int) (ClassPlan, error) {
		co := opts
		co.SolverNodeBudget = budgets[i]
		return planClass(ctx, initial, final, classes[i], commands, specFor, co)
	}

	planned := make([]ClassPlan, 1)
	var err error
	if len(classes) == 1 {
		planned[0], err = planOne(ctx, 0)
	} else {
		planned, err = pool.Map(ctx, workers, len(classes),
			func(i int) string { return fmt.Sprintf("class %d", i) }, planOne)
	}
	if err != nil {
		return planned, nil, err
	}

	var all []*Plan
	for _, pc := range planned {
		all = append(all, pc.Plans...)
	}
	mp, err := Align(all, commands)
	if err != nil {
		return planned, nil, fmt.Errorf("align: %w", err)
	}
	return planned, mp, nil
}

// planClass runs Build on one class's representative, then compiles one
// plan per other member by retargeting the shared analysis: members differ
// only in the prefix value.
func planClass(ctx context.Context, initial, final *sim.Network, cls analyzer.Class, commands []sim.Command,
	specFor func(*analyzer.Analysis) *spec.Spec, so scheduler.Options) (ClassPlan, error) {
	// Small classes can analyze and schedule in fewer solver nodes than the
	// branch-and-bound's sparse context poll, so check once up front: a
	// cancelled plan must never hand back a completed class.
	if cerr := ctx.Err(); cerr != nil {
		return ClassPlan{}, cerr
	}
	ctx, span := obs.StartSpan(ctx, "class",
		obs.Int("members", int64(len(cls.Members))),
		obs.String("fingerprint", fmt.Sprintf("%016x", cls.Fingerprint)))
	defer span.End()
	out := ClassPlan{Class: cls, NodeBudget: so.SolverNodeBudget}
	b, err := Build(ctx, initial, final, cls.Representative, commands, specFor, so)
	if err != nil {
		return out, err
	}
	span.Add(obs.CtrClassSolverNodes, b.Schedule.Stats.SolverNodes)
	out.Analysis = b.Analysis
	out.Schedule = b.Schedule
	out.Plans = []*Plan{b.Plan}
	for _, p := range cls.Members[1:] {
		pl, err := Compile(b.Analysis.ForPrefix(p), b.Schedule, commands)
		if err != nil {
			return out, fmt.Errorf("compile: %w", err)
		}
		out.Plans = append(out.Plans, pl)
	}
	return out, nil
}
