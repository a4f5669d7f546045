package config_test

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"

	"chameleon/internal/analyzer"
	"chameleon/internal/config"
	"chameleon/internal/eval"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/sim"
)

// runningExample returns testdata/running-example.conf, the Fig. 3 network
// in the configuration DSL.
func runningExample(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/running-example.conf")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func TestParseAndBuildRunningExample(t *testing.T) {
	c, err := config.Parse(runningExample(t))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "RunningExample" || len(c.Routers) != 6 || len(c.Externals) != 2 {
		t.Fatalf("parsed shape wrong: %+v", c)
	}
	g, net, cmds, err := c.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Converged() {
		t.Fatal("network did not converge")
	}
	// Everyone initially selects ρ1 via n1 (lp 200).
	n1 := g.MustNode("n1")
	for _, n := range g.Internal() {
		best, ok := net.Best(n, 0)
		if !ok || best.Egress != n1 {
			t.Errorf("node %d best = %v, want egress n1", n, best)
		}
	}
	if len(cmds) != 1 || cmds[0].DeniesOld {
		t.Fatalf("commands = %+v", cmds)
	}
	if got := c.Prefixes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("prefixes = %v", got)
	}
}

func TestConfigFullPipeline(t *testing.T) {
	c, err := config.Parse(runningExample(t))
	if err != nil {
		t.Fatal(err)
	}
	g, net, cmds, err := c.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	final := net.Clone()
	for _, cmd := range cmds {
		cmd.Apply(final)
	}
	final.Run()
	a, err := analyzer.AnalyzeCtx(context.Background(), net, final, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := eval.ReachabilitySpec(g)
	sched, err := scheduler.ScheduleCtx(context.Background(), a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(a, sched, cmds)
	if err != nil {
		t.Fatal(err)
	}
	ex := runtime.NewExecutor(net, runtime.Options{Seed: 1})
	if _, err := ex.ExecuteCtx(context.Background(), plan.Single(p)); err != nil {
		t.Fatal(err)
	}
	n6 := g.MustNode("n6")
	for _, n := range g.Internal() {
		best, ok := net.Best(n, 0)
		if !ok || best.Egress != n6 {
			t.Errorf("node %d ended on %v, want n6", n, best.Egress)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	c, err := config.Parse(runningExample(t))
	if err != nil {
		t.Fatal(err)
	}
	rendered := c.Format()
	c2, err := config.Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of Format output failed: %v\n%s", err, rendered)
	}
	if c2.Name != c.Name || len(c2.Routers) != len(c.Routers) ||
		len(c2.Links) != len(c.Links) || len(c2.Sessions) != len(c.Sessions) ||
		len(c2.RouteMaps) != len(c.RouteMaps) || len(c2.Announces) != len(c.Announces) ||
		len(c2.Commands) != len(c.Commands) {
		t.Error("round trip changed the configuration shape")
	}
	// Both must build to networks with identical forwarding.
	_, netA, _, err := c.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	_, netB, _, err := c2.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if !netA.ForwardingState(0).Equal(netB.ForwardingState(0)) {
		t.Error("round trip changed the built network")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate x",
		"router",
		"external e asn notanumber",
		"link a b nope 3",
		"link a b weight x",
		"session a sideways b",
		"route-map a from b in order x deny",
		"route-map a from b in order 1 explode",
		"announce e prefix x",
		"announce e prefix -3",
		"announce e prefix 1 aspath x",
		"command teleport a b",
		"command deny a b",
		"command deny a from b prefix -1",
		"command local-pref a from b order 1 value x",
	}
	for _, in := range bad {
		if _, err := config.Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		"router a\nrouter a",                  // duplicate
		"router a\nlink a b weight 1",         // unknown link endpoint
		"router a\nsession a peer b",          // unknown session peer
		"router a\nannounce b prefix 0",       // unknown external
		"router a\ncommand deny a from ghost", // unknown command target
		"router a\nroute-map a from ghost in order 1 deny",
	}
	for _, in := range cases {
		c, err := config.Parse(in)
		if err != nil {
			continue // parse already rejects some
		}
		if _, _, _, err := c.Build(1); err == nil {
			t.Errorf("Build(%q) succeeded, want error", in)
		}
	}
}

func TestDelayParsing(t *testing.T) {
	c, err := config.Parse("router a\nrouter b\nlink a b weight 2 delay 5ms")
	if err != nil {
		t.Fatal(err)
	}
	g, _, _, err := c.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	l := g.Links()[0]
	if l.Delay.Milliseconds() != 5 {
		t.Errorf("delay = %v, want 5ms", l.Delay)
	}
	if !strings.Contains(c.Format(), "delay 5ms") {
		t.Error("Format dropped the delay")
	}
}

func TestRemoveSessionCommand(t *testing.T) {
	dsl := strings.Replace(runningExample(t),
		"command local-pref n1 from ext1 order 10 value 50",
		"command remove-session n1 ext1", 1)
	c, err := config.Parse(dsl)
	if err != nil {
		t.Fatal(err)
	}
	g, net, cmds, err := c.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 1 || !cmds[0].DeniesOld {
		t.Fatalf("remove-session must be DeniesOld: %+v", cmds)
	}
	cmds[0].Apply(net)
	net.Run()
	n6 := g.MustNode("n6")
	for _, n := range g.Internal() {
		best, ok := net.Best(n, 0)
		if !ok || best.Egress != n6 {
			t.Errorf("node %d best %v after session removal", n, best)
		}
	}
}

// TestRunningExampleFileMatchesScenario: Fig. 3 is stated twice, as
// testdata/running-example.conf and as scenario.RunningExample. Both must
// build the same network: the same selected routes, forwarding state and
// route maps when converged, and again after their one command.
func TestRunningExampleFileMatchesScenario(t *testing.T) {
	c, err := config.Parse(runningExample(t))
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := c.Scenario(1)
	if err != nil {
		t.Fatal(err)
	}
	builtIn := scenario.RunningExample()
	nodes := builtIn.Graph.Nodes()
	if len(fromFile.Graph.Nodes()) != len(nodes) {
		t.Fatalf("%d nodes from the file, %d built in", len(fromFile.Graph.Nodes()), len(nodes))
	}
	for _, n := range nodes {
		if got := fromFile.Graph.Node(n.ID).Name; got != n.Name {
			t.Fatalf("node %d is %q from the file, %q built in", n.ID, got, n.Name)
		}
	}
	if len(fromFile.Commands) != 1 || len(builtIn.Commands) != 1 {
		t.Fatalf("%d commands from the file, %d built in; want one each", len(fromFile.Commands), len(builtIn.Commands))
	}
	same := func(when string) {
		t.Helper()
		fr, fh := fromFile.Net.RoutingState(fromFile.Prefix)
		br, bh := builtIn.Net.RoutingState(builtIn.Prefix)
		if !reflect.DeepEqual(fr, br) || !reflect.DeepEqual(fh, bh) {
			t.Errorf("%s: selected routes differ:\nfile     %v\nbuilt-in %v", when, fr, br)
		}
		if f, b := fromFile.Net.ForwardingState(fromFile.Prefix), builtIn.Net.ForwardingState(builtIn.Prefix); !reflect.DeepEqual(f, b) {
			t.Errorf("%s: forwarding state differs: file %v, built-in %v", when, f, b)
		}
		if f, b := routeMaps(t, fromFile.Net), routeMaps(t, builtIn.Net); !reflect.DeepEqual(f, b) {
			t.Errorf("%s: route maps differ:\nfile     %+v\nbuilt-in %+v", when, f, b)
		}
	}
	same("converged")
	for _, s := range []*scenario.Scenario{fromFile, builtIn} {
		s.Commands[0].Apply(s.Net)
		s.Net.Run()
	}
	same("after the command")
}

// routeMaps captures every router's route maps.
func routeMaps(t *testing.T, net *sim.Network) [][]sim.RouteMapState {
	t.Helper()
	st, err := net.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]sim.RouteMapState, len(st.Routers))
	for i, r := range st.Routers {
		out[i] = r.RouteMaps
	}
	return out
}
