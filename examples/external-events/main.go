// External-events: reproduces Fig. 11 — Chameleon's resilience to events
// that strike mid-reconfiguration. A link failure triggers only the IGP's
// own sub-second reconvergence (11a), and a strictly better BGP route
// announced at a fourth egress is ignored until the reconfiguration
// commits, after which the network adopts it (11b).
//
//	go run ./examples/external-events
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"chameleon/internal/eval"
)

func main() {
	ctx := context.Background()
	fmt.Println("— Fig. 11a: link failure 7 s into the reconfiguration —")
	a, err := eval.RunLinkFailureExperimentCtx(ctx, "Abilene", 7, 7*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconfiguration completed in %.1f s despite the failure\n",
		a.Result.Duration().Seconds())
	fmt.Printf("loss window: %.2f s (OSPF reconvergence only; paper: ≈0.5 s)\n",
		a.Measurement.ViolationSeconds)
	fmt.Printf("packets lost: %.0f\n\n", a.Measurement.TotalDropped)

	fmt.Println("— Fig. 11b: better route announced at e4 after 30 s (mid-update) —")
	b, err := eval.RunNewRouteExperimentCtx(ctx, "Abilene", 7, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reconfiguration completed in %.1f s\n", b.Result.Duration().Seconds())
	fmt.Printf("drops during the plan: %.0f (the pinned transient state ignores the new route)\n",
		b.Measurement.TotalDropped)
	fmt.Printf("network adopted the e4 route after cleanup: %v\n", b.ConvergedToE4)
	if !b.ConvergedToE4 {
		log.Fatal("expected convergence to e4 after the preferences were restored")
	}
}
