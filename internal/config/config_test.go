package config_test

import (
	"strings"
	"testing"

	"chameleon/internal/analyzer"
	"chameleon/internal/config"
	"chameleon/internal/eval"
	"chameleon/internal/plan"
	"chameleon/internal/runtime"
	"chameleon/internal/scheduler"
)

// runningExampleDSL is the Fig. 3 network in the configuration DSL.
const runningExampleDSL = `
# Fig. 3 running example
network RunningExample

router n1
router n2
router n3
router n4
router n5
router n6
external ext1 asn 65101
external ext6 asn 65106

link n1 n2 weight 1
link n2 n3 weight 1
link n1 n4 weight 1
link n2 n5 weight 1
link n3 n6 weight 1
link n4 n5 weight 1
link n5 n6 weight 1
link ext1 n1 weight 1
link ext6 n6 weight 1

session n2 client n1
session n2 client n3
session n2 client n4
session n2 client n6
session n5 client n1
session n5 client n3
session n5 client n4
session n5 client n6
session n2 peer n5
session n1 ebgp ext1
session n6 ebgp ext6

route-map n1 from ext1 in order 10 set local-pref 200

announce ext1 prefix 0 aspath 2
announce ext6 prefix 0 aspath 2

command local-pref n1 from ext1 order 10 value 50
`

func TestParseAndBuildRunningExample(t *testing.T) {
	c, err := config.Parse(runningExampleDSL)
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
	c, err := config.Parse(runningExampleDSL)
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
	a, err := analyzer.Analyze(net, final, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := eval.ReachabilitySpec(g)
	sched, err := scheduler.Schedule(a, sp, scheduler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Compile(a, sched, cmds)
	if err != nil {
		t.Fatal(err)
	}
	ex := runtime.NewExecutor(net, runtime.Options{Seed: 1})
	if _, err := ex.Execute(p); err != nil {
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
	c, err := config.Parse(runningExampleDSL)
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
	dsl := strings.Replace(runningExampleDSL,
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
