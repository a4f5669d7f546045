package plan

import (
	"context"
	"fmt"

	"chameleon/internal/analyzer"
	"chameleon/internal/bgp"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
	"chameleon/internal/spec"
)

// Built is one prefix's reconfiguration as Build leaves it: the analysis,
// the specification the schedule satisfies, the validated schedule and the
// plan compiled from it.
type Built struct {
	Analysis *analyzer.Analysis
	Spec     *spec.Spec
	Schedule *scheduler.NodeSchedule
	Plan     *Plan
}

// Build is Chameleon's planning chain (§2.2) for prefix's change from
// initial to final: analyze it, schedule it under the specification specFor
// derives from the analysis (nil: reachability of every internal router),
// check the schedule with scheduler.Validate, and compile it against the
// original commands. Errors name the stage that failed. Cancellation and a
// recorder carried by ctx reach the analyze and schedule stages.
func Build(ctx context.Context, initial, final *sim.Network, prefix bgp.Prefix, commands []sim.Command,
	specFor func(*analyzer.Analysis) *spec.Spec, opts scheduler.Options) (*Built, error) {
	a, err := analyzer.AnalyzeCtx(ctx, initial, final, prefix)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	var sp *spec.Spec
	if specFor != nil {
		sp = specFor(a)
	} else {
		sp = spec.Reachability(a.Graph)
	}
	sched, err := scheduler.ScheduleCtx(ctx, a, sp, opts)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	if err := scheduler.Validate(a, sp, sched); err != nil {
		return nil, fmt.Errorf("schedule validation: %w", err)
	}
	p, err := Compile(a, sched, commands)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return &Built{Analysis: a, Spec: sp, Schedule: sched, Plan: p}, nil
}
