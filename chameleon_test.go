package chameleon_test

import (
	"context"
	"testing"
	"time"

	chameleon "chameleon"
)

func TestFacadeEndToEnd(t *testing.T) {
	s, err := chameleon.NewCaseStudy("Abilene", chameleon.ScenarioConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schedule.R < 1 {
		t.Fatalf("R = %d", rec.Schedule.R)
	}
	res, err := rec.ExecuteCtx(context.Background(), chameleon.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Verify(res); err != nil {
		t.Fatal(err)
	}
	if rec.EstimateReconfigurationTime() != time.Duration(2+rec.Schedule.R)*12*time.Second {
		t.Error("T̃ mismatch")
	}
}

// TestFacadePlansNoOpReconfiguration: a reconfiguration that changes no
// forwarding schedules no round, and validation judges the specification
// on the one state it leaves instead of refusing the plan.
func TestFacadePlansNoOpReconfiguration(t *testing.T) {
	s := chameleon.RunningExample()
	s.Commands = nil
	rec, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Schedule.R != 0 || rec.Plan.R != 0 {
		t.Fatalf("no-op reconfiguration planned R = %d", rec.Schedule.R)
	}
	res, err := rec.ExecuteCtx(context.Background(), chameleon.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Verify(res); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCustomSpec(t *testing.T) {
	s := chameleon.RunningExample()
	sp, err := chameleon.ParseSpec("G (reach(n1) && reach(n4))", s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := chameleon.PlanCtx(context.Background(), s, chameleon.PlanOptions{Spec: sp})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rec.ExecuteCtx(context.Background(), chameleon.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Verify(res); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeParseSpecErrors(t *testing.T) {
	s := chameleon.RunningExample()
	if _, err := chameleon.ParseSpec("reach(nope)", s.Graph); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestFacadeZooAccess(t *testing.T) {
	if len(chameleon.ZooNames()) < 106 {
		t.Error("corpus too small")
	}
	g, err := chameleon.ZooTopology("Cogentco")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Internal()) != 197 {
		t.Errorf("Cogentco size %d", len(g.Internal()))
	}
	if _, err := chameleon.ZooTopology("Nope"); err == nil {
		t.Error("unknown topology accepted")
	}
}

func TestFacadeGraphConstruction(t *testing.T) {
	g := chameleon.NewGraph("custom")
	a := g.AddRouter("a")
	b := g.AddRouter("b")
	g.AddLink(a, b, 1)
	net := chameleon.NewNetwork(g, 1)
	if net.Graph() != g {
		t.Error("network graph mismatch")
	}
}
