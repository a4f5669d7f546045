package sim_test

import (
	"os"
	"reflect"
	"testing"

	"chameleon/internal/bgp"
	"chameleon/internal/config"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// checkCommand holds one command to the contract every configuration
// command keeps: its readback is false before the apply and true after,
// polling it allocates nothing, and applying it twice leaves the network
// exactly as applying it once. build returns a fresh converged network and
// the command to push on it.
func checkCommand(t *testing.T, build func() (*sim.Network, sim.Command)) {
	t.Helper()
	net, cmd := build()
	if cmd.Verify == nil {
		t.Errorf("%s: no readback", cmd.Description)
	} else if cmd.Verify(net) {
		t.Errorf("%s: readback holds before the apply", cmd.Description)
	}
	cmd.Apply(net)
	net.Run()
	if cmd.Verify != nil {
		if !cmd.Verify(net) {
			t.Errorf("%s: readback fails after the apply", cmd.Description)
		}
		if allocs := testing.AllocsPerRun(10, func() { cmd.Verify(net) }); allocs != 0 {
			t.Errorf("%s: readback allocates %v times per poll", cmd.Description, allocs)
		}
	}
	once := captureState(t, net)

	net, cmd = build()
	cmd.Apply(net)
	net.Run()
	cmd.Apply(net)
	net.Run()
	if twice := captureState(t, net); !reflect.DeepEqual(once, twice) {
		t.Errorf("%s: applying twice leaves another state than applying once", cmd.Description)
	}
}

func captureState(t *testing.T, net *sim.Network) *sim.NetState {
	t.Helper()
	st, err := net.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCommandConstructors runs checkCommand over each constructor on the
// Fig. 3 network (n1..n6 are nodes 0..5, ext1 is 6).
func TestCommandConstructors(t *testing.T) {
	const n1, n2, n3, n4, ext1 topology.NodeID = 0, 1, 2, 3, 6
	weight := sim.Entry{
		Order:  30,
		Match:  sim.Match{Prefix: sim.PrefixP(0), Neighbor: sim.NodeP(n1), Egress: sim.NodeP(n1)},
		Action: sim.Action{SetWeight: sim.IntP(500)},
	}
	cases := []struct {
		name string
		mk   func() sim.Command
	}{
		{"set local-pref", func() sim.Command {
			return sim.SetIngressEntry(n1, ext1,
				sim.Entry{Order: 10, Action: sim.Action{SetLocalPref: sim.U32P(50)}}, "lp 50")
		}},
		{"set weight", func() sim.Command { return sim.SetIngressEntry(n2, n1, weight, "weight") }},
		{"set deny", func() sim.Command {
			return sim.SetIngressEntry(n1, ext1, sim.Entry{Order: 5, Action: sim.Action{Deny: true}}, "deny")
		}},
		{"add deny", func() sim.Command {
			return sim.AddIngressEntry(n1, ext1, sim.Entry{Order: 10, Action: sim.Action{Deny: true}}, "add deny")
		}},
		{"remove orders", func() sim.Command { return sim.RemoveIngressOrders(n1, ext1, []int{5, 10}, "remove") }},
		{"sweep orders", func() sim.Command { return sim.SweepIngressOrders(n1, []int{10, 20}, "sweep") }},
		{"open session", func() sim.Command { return sim.OpenSession(n3, n4, bgp.IBGPPeer, "open") }},
		{"close session", func() sim.Command { return sim.CloseSession(n1, ext1, "close") }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkCommand(t, func() (*sim.Network, sim.Command) { return scenario.RunningExample().Net, c.mk() })
		})
	}

	// An entry at the right order that differs in a pointee is not the one
	// the command sets.
	net := scenario.RunningExample().Net
	sim.SetIngressEntry(n2, n1, weight, "weight").Apply(net)
	other := weight
	other.Action.SetWeight = sim.IntP(900)
	if sim.SetIngressEntry(n2, n1, other, "other weight").Verify(net) {
		t.Error("readback holds for an entry with another weight at the same order")
	}
}

// TestConfigCommandsKeepTheContract runs checkCommand over every command
// kind of the configuration language: the running example's local-pref
// command, a deny and a session removal.
func TestConfigCommandsKeepTheContract(t *testing.T) {
	src, err := os.ReadFile("../../testdata/running-example.conf")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src) + "\ncommand deny n1 from ext1 prefix 0\ncommand remove-session n6 ext6\n"
	kinds := map[config.CommandKind]bool{}
	cfg, err := config.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range cfg.Commands {
		kinds[d.Kind] = true
		t.Run(string(d.Kind), func(t *testing.T) {
			checkCommand(t, func() (*sim.Network, sim.Command) {
				_, net, cmds, err := cfg.Build(1)
				if err != nil {
					t.Fatal(err)
				}
				return net, cmds[i]
			})
		})
	}
	if len(kinds) != 3 {
		t.Errorf("ran %d command kinds, want all 3", len(kinds))
	}
}

// TestConfigDenyKeepsOtherEntries: a DSL deny is added beside the entries
// already at its order, so two prefix denies from one neighbor and a
// declared entry at the same order all stay, and pushing a deny again
// changes nothing.
func TestConfigDenyKeepsOtherEntries(t *testing.T) {
	src, err := os.ReadFile("../../testdata/running-example.conf")
	if err != nil {
		t.Fatal(err)
	}
	text := string(src) + "\nroute-map n1 from ext1 in order 5 set weight 7\n" +
		"command deny n1 from ext1 prefix 0\ncommand deny n1 from ext1 prefix 1\n"
	cfg, err := config.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	_, net, cmds, err := cfg.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("%d commands, want 3", len(cmds))
	}
	deny0, deny1 := cmds[1], cmds[2]
	for _, c := range []sim.Command{deny0, deny1, deny0} {
		c.Apply(net)
		net.Run()
	}
	const n1, ext1 topology.NodeID = 0, 6
	var weights, denies []sim.Entry
	for _, e := range net.RouteMapOf(n1, ext1, sim.In).Entries() {
		if e.Order != 5 {
			continue
		}
		if e.Action.Deny {
			denies = append(denies, e)
		} else if e.Action.SetWeight != nil && *e.Action.SetWeight == 7 {
			weights = append(weights, e)
		}
	}
	if len(weights) != 1 || len(denies) != 2 {
		t.Errorf("order 5 holds %d declared weight entries and %d denies, want 1 and 2", len(weights), len(denies))
	}
	for _, c := range []sim.Command{deny0, deny1} {
		if !c.Verify(net) {
			t.Errorf("%s: readback fails after both denies", c.Description)
		}
	}
}
