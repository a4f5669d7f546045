// Quickstart: plan and execute a safe BGP reconfiguration on the Abilene
// backbone, preserving reachability through every transient state.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	chameleon "chameleon"
)

func main() {
	// Every stage takes a context; cancelling it stops the ILP search and
	// the runtime's supervision loop.
	ctx := context.Background()

	// 1. Build the paper's case-study scenario (§6): Abilene with three
	// egress routers; the reconfiguration denies the most preferred
	// egress's external route, forcing every router to re-route.
	s, err := chameleon.NewCaseStudy("Abilene", chameleon.ScenarioConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %s\n", s.Graph)
	fmt.Printf("reconfiguration: %s\n\n", s.Commands[0].Description)

	// 2. Plan: analyze happens-before relations, solve the scheduling ILP,
	// compile a reconfiguration plan. The default specification preserves
	// reachability for every router, in every transient state.
	rec, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedule: %d rounds, %d temporary sessions, T̃ ≈ %v\n",
		rec.Schedule.R,
		rec.Schedule.TempOldSessions+rec.Schedule.TempNewSessions,
		rec.EstimateReconfigurationTime())

	// 3. Execute the plan against the live (simulated) network. Router
	// command latency is modeled at 8–12 s per change, as measured on the
	// paper's Cisco Nexus testbed.
	res, err := rec.ExecuteCtx(ctx, chameleon.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, ph := range res.Phases {
		fmt.Printf("  %-10s %6.1fs → %6.1fs\n", ph.Name, ph.Start.Seconds(), ph.End.Seconds())
	}
	fmt.Printf("executed in %v simulated time\n", res.Duration().Round(1e9))

	// 4. Verify: the recorded forwarding trace must satisfy the
	// specification at every instant — including mid-convergence states.
	if err := rec.Verify(res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("✓ no packet was ever dropped during the reconfiguration")
}
