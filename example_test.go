package chameleon_test

import (
	"context"
	"fmt"

	chameleon "chameleon"
)

// ExamplePlanCtx demonstrates the full pipeline on the paper's Fig. 3
// running example: analyze, schedule, compile, execute, verify.
func ExamplePlanCtx() {
	ctx := context.Background()
	s := chameleon.RunningExample()
	rec, err := chameleon.PlanCtx(ctx, s, chameleon.PlanOptions{})
	if err != nil {
		panic(err)
	}
	res, err := rec.ExecuteCtx(ctx, chameleon.ExecOptions{})
	if err != nil {
		panic(err)
	}
	if err := rec.Verify(res); err != nil {
		panic(err)
	}
	fmt.Println("rounds:", rec.Schedule.R)
	fmt.Println("verified:", true)
	// Output:
	// rounds: 4
	// verified: true
}

// ExampleParseSpec shows the Fig. 2 specification syntax.
func ExampleParseSpec() {
	s := chameleon.RunningExample()
	sp, err := chameleon.ParseSpec("wp(n4, n1) U G wp(n4, n6)", s.Graph)
	if err != nil {
		panic(err)
	}
	fmt.Println(sp.TemporalDepth())
	// Output:
	// 2
}

// ExampleReconfiguration_EstimateReconfigurationTime shows the §7.2
// T̃ = 12 s · (2 + R) approximation.
func ExampleReconfiguration_EstimateReconfigurationTime() {
	s := chameleon.RunningExample()
	rec, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rec.EstimateReconfigurationTime())
	// Output:
	// 1m12s
}
