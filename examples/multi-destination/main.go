// Multi-destination: reconfigure two prefixes at once (§5). Chameleon
// plans each prefix equivalence class separately, then executes both update
// phases in parallel, aligning the shared original command across them.
//
//	go run ./examples/multi-destination
package main

import (
	"context"
	"fmt"
	"log"

	"chameleon/internal/bgp"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
)

func main() {
	ctx := context.Background()

	// Fig. 3's network announcing two prefixes with identical policy.
	s := scenario.RunningExample()
	ext1 := s.Graph.MustNode("ext1")
	ext6 := s.Graph.MustNode("ext6")
	s.Net.InjectExternalRoute(ext1, sim.Announcement{Prefix: 1, ASPathLen: 2})
	s.Net.InjectExternalRoute(ext6, sim.Announcement{Prefix: 1, ASPathLen: 2})
	s.Net.Run()

	// One plan per destination (the prefixes here are equivalent — §3
	// would collapse them into one class; planning both exercises the
	// multi-destination machinery).
	var plans []*plan.Plan
	for _, prefix := range []bgp.Prefix{0, 1} {
		b, err := plan.Build(ctx, s.Net, s.FinalNetwork(), prefix, s.Commands, nil, scheduler.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		plans = append(plans, b.Plan)
		fmt.Printf("prefix %d: R=%d rounds, %d temp sessions\n",
			prefix, b.Schedule.R, b.Schedule.TempOldSessions+b.Schedule.TempNewSessions)
	}

	// Align the shared original command and execute both in parallel.
	mp, err := plan.Align(plans, s.Commands)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aligned command order: %v; %d distinct temp sessions\n",
		mp.Order, len(mp.TempSessions()))
	ex := runtime.NewExecutor(s.Net, runtime.Options{Seed: 1})
	res, err := ex.ExecuteCtx(ctx, mp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed both destinations in %v simulated (%d phases)\n",
		res.Duration().Round(1e9), len(res.Phases))

	n6 := s.Graph.MustNode("n6")
	for _, prefix := range []bgp.Prefix{0, 1} {
		for _, n := range s.Graph.Internal() {
			best, ok := s.Net.Best(n, prefix)
			if !ok || best.Egress != n6 {
				log.Fatalf("prefix %d node %d not on the final egress", prefix, n)
			}
		}
	}
	fmt.Println("✓ both prefixes migrated safely")
}
