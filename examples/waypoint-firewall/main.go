// Waypoint-firewall: the paper's motivating scenario (Fig. 1) — traffic
// must keep traversing a security appliance (waypoint) while the network
// migrates between egress points, and each router may switch egress only
// once. Compares a naive direct reconfiguration against Chameleon.
//
//	go run ./examples/waypoint-firewall
package main

import (
	"context"
	"fmt"
	"log"

	chameleon "chameleon"
	"chameleon/internal/eval"
)

func main() {
	// RunCaseStudyCtx performs both runs on identical networks: the naive
	// direct application (Snowcap's behavior for a one-command change)
	// and Chameleon's coordinated plan, measuring packet-level traffic at
	// the paper's 16.5 kpkt/s aggregate rate.
	res, err := eval.RunCaseStudyCtx(context.Background(), "Abilene", 7)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Direct application (Snowcap):")
	fmt.Printf("  finished in %.1f s\n", res.SnowcapDuration.Seconds())
	fmt.Printf("  dropped packets:            %6.0f\n", res.Snowcap.TotalDropped)
	fmt.Printf("  waypoint-violating packets: %6.0f\n", res.Snowcap.TotalViolations)
	fmt.Printf("  violation window:           %6.2f s\n\n", res.Snowcap.ViolationSeconds)

	fmt.Println("Chameleon:")
	fmt.Printf("  finished in %.1f s (%d rounds, %d temp sessions)\n",
		res.ChameleonDuration.Seconds(), res.R, res.TempSessions)
	fmt.Printf("  dropped packets:            %6.0f\n", res.Chameleon.TotalDropped)
	fmt.Printf("  waypoint-violating packets: %6.0f\n", res.Chameleon.TotalViolations)

	if !res.Chameleon.Clean() {
		log.Fatal("Chameleon violated the specification — this is a bug")
	}
	fmt.Printf("\nchameleon paid a %.0fx slowdown to eliminate every transient violation\n",
		res.ChameleonDuration.Seconds()/res.SnowcapDuration.Seconds())

	// The same invariants can be written explicitly in the specification
	// language and passed to PlanCtx:
	s, err := chameleon.NewCaseStudy("Abilene", chameleon.ScenarioConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	sp, err := chameleon.ParseSpec(
		"G reach(Denver) && (wp(Denver, Seattle) || wp(Denver, NewYork) || true)", s.Graph)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexample explicit specification: %v\n", sp)
}
