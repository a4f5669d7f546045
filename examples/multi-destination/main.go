// Multi-destination: reconfigure two prefixes at once (§5). Chameleon
// partitions the destinations into equivalence classes, plans each class
// once, aligns the shared original command across every destination's plan
// and executes their update phases under one supervision loop — all inside
// chameleon.PlanCtx and ExecuteCtx once the scenario lists its prefixes.
//
//	go run ./examples/multi-destination
package main

import (
	"context"
	"fmt"
	"log"

	chameleon "chameleon"
	"chameleon/internal/sim"
)

func main() {
	ctx := context.Background()

	// Fig. 3's network announcing two prefixes with identical policy: §3
	// collapses them into one class, planned once and compiled per prefix.
	s := chameleon.RunningExample()
	ext1 := s.Graph.MustNode("ext1")
	ext6 := s.Graph.MustNode("ext6")
	s.Net.InjectExternalRoute(ext1, sim.Announcement{Prefix: 1, ASPathLen: 2})
	s.Net.InjectExternalRoute(ext6, sim.Announcement{Prefix: 1, ASPathLen: 2})
	s.Net.Run()
	s.Prefixes = []chameleon.Prefix{0, 1}

	rec, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, pc := range rec.Classes {
		fmt.Printf("class of prefixes %v: R=%d rounds, %d temp sessions\n",
			pc.Class.Members, pc.Schedule.R, pc.Schedule.TempOldSessions+pc.Schedule.TempNewSessions)
	}
	fmt.Printf("aligned command order: %v; %d distinct temp sessions\n",
		rec.Multi.Order, len(rec.Multi.TempSessions()))

	res, err := rec.ExecuteCtx(ctx, chameleon.ExecOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed both destinations in %v simulated (%d phases)\n",
		res.Duration().Round(1e9), len(res.Phases))
	if err := rec.Verify(res); err != nil {
		log.Fatal(err)
	}

	n6 := s.Graph.MustNode("n6")
	for _, prefix := range s.Prefixes {
		for _, n := range s.Graph.Internal() {
			best, ok := s.Net.Best(n, prefix)
			if !ok || best.Egress != n6 {
				log.Fatalf("prefix %d node %d not on the final egress", prefix, n)
			}
		}
	}
	fmt.Println("✓ both prefixes migrated safely")
}
