// Package config implements a textual configuration format for simulated
// networks: routers, external peers, weighted links, iBGP/eBGP sessions,
// route maps, route announcements, and the reconfiguration commands to
// perform. The cmd/chameleon and cmd/bgpsim tools accept these files, so a
// scenario can be described, versioned and shared without writing Go.
//
// Syntax (one directive per line, '#' comments):
//
//	network <name>
//	router <name>
//	external <name> asn <number>
//	link <a> <b> weight <w> [delay <duration>]
//	session <a> peer <b>          # iBGP peer
//	session <rr> client <c>       # rr reflects for c
//	session <a> ebgp <ext>
//	route-map <node> from <neighbor> in order <n> deny
//	route-map <node> from <neighbor> in order <n> set local-pref <v>
//	route-map <node> from <neighbor> in order <n> set weight <v>
//	announce <ext> prefix <p> [aspath <n>] [med <n>]
//	command deny <node> from <ext> [prefix <p>]
//	command local-pref <node> from <ext> order <n> value <v>
//	command remove-session <a> <b>
package config

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"chameleon/internal/bgp"
	"chameleon/internal/scenario"
	"chameleon/internal/sim"
	"chameleon/internal/topology"
)

// Config is a parsed scenario description.
type Config struct {
	Name      string
	Routers   []string
	Externals []ExternalDecl
	Links     []LinkDecl
	Sessions  []SessionDecl
	RouteMaps []RouteMapDecl
	Announces []AnnounceDecl
	Commands  []CommandDecl
}

// ExternalDecl declares an external network.
type ExternalDecl struct {
	Name string
	ASN  uint32
}

// LinkDecl declares a physical link.
type LinkDecl struct {
	A, B   string
	Weight float64
	Delay  time.Duration // 0: derive from weight
}

// SessionKind in the DSL.
type SessionKind string

// DSL session kinds.
const (
	SessPeer   SessionKind = "peer"
	SessClient SessionKind = "client"
	SessEBGP   SessionKind = "ebgp"
)

// SessionDecl declares a BGP session.
type SessionDecl struct {
	A, B string
	Kind SessionKind
}

// RouteMapDecl declares an ingress route-map entry.
type RouteMapDecl struct {
	Node, From string
	Order      int
	Deny       bool
	LocalPref  *uint32
	Weight     *int
}

// AnnounceDecl declares an external route announcement.
type AnnounceDecl struct {
	External  string
	Prefix    int
	ASPathLen int
	MED       uint32
}

// CommandKind enumerates reconfiguration command forms.
type CommandKind string

// DSL command kinds.
const (
	CmdDeny          CommandKind = "deny"
	CmdLocalPref     CommandKind = "local-pref"
	CmdRemoveSession CommandKind = "remove-session"
)

// CommandDecl declares one reconfiguration command.
type CommandDecl struct {
	Kind      CommandKind
	Node      string
	From      string // neighbor (deny / local-pref) or second endpoint
	Prefix    int    // -1: any
	Order     int
	LocalPref uint32
}

// Parse reads the DSL.
func Parse(input string) (*Config, error) {
	c := &Config{}
	for lineNo, raw := range strings.Split(input, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := c.directive(fields); err != nil {
			return nil, fmt.Errorf("config: line %d: %w", lineNo+1, err)
		}
	}
	if c.Name == "" {
		c.Name = "unnamed"
	}
	return c, nil
}

func (c *Config) directive(f []string) error {
	switch f[0] {
	case "network":
		if len(f) != 2 {
			return fmt.Errorf("usage: network <name>")
		}
		c.Name = f[1]
	case "router":
		if len(f) != 2 {
			return fmt.Errorf("usage: router <name>")
		}
		c.Routers = append(c.Routers, f[1])
	case "external":
		if len(f) != 4 || f[2] != "asn" {
			return fmt.Errorf("usage: external <name> asn <number>")
		}
		asn, err := strconv.ParseUint(f[3], 10, 32)
		if err != nil {
			return fmt.Errorf("bad asn %q", f[3])
		}
		c.Externals = append(c.Externals, ExternalDecl{Name: f[1], ASN: uint32(asn)})
	case "link":
		if len(f) < 5 || f[3] != "weight" {
			return fmt.Errorf("usage: link <a> <b> weight <w> [delay <dur>]")
		}
		w, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			return fmt.Errorf("bad weight %q", f[4])
		}
		l := LinkDecl{A: f[1], B: f[2], Weight: w}
		if len(f) >= 7 && f[5] == "delay" {
			d, err := time.ParseDuration(f[6])
			if err != nil {
				return fmt.Errorf("bad delay %q", f[6])
			}
			l.Delay = d
		}
		c.Links = append(c.Links, l)
	case "session":
		if len(f) != 4 {
			return fmt.Errorf("usage: session <a> peer|client|ebgp <b>")
		}
		kind := SessionKind(f[2])
		switch kind {
		case SessPeer, SessClient, SessEBGP:
		default:
			return fmt.Errorf("unknown session kind %q", f[2])
		}
		c.Sessions = append(c.Sessions, SessionDecl{A: f[1], B: f[3], Kind: kind})
	case "route-map":
		// route-map <node> from <neighbor> in order <n> (deny | set local-pref <v> | set weight <v>)
		if len(f) < 8 || f[2] != "from" || f[4] != "in" || f[5] != "order" {
			return fmt.Errorf("usage: route-map <node> from <nb> in order <n> deny|set ...")
		}
		order, err := strconv.Atoi(f[6])
		if err != nil {
			return fmt.Errorf("bad order %q", f[6])
		}
		rm := RouteMapDecl{Node: f[1], From: f[3], Order: order}
		switch {
		case f[7] == "deny":
			rm.Deny = true
		case f[7] == "set" && len(f) == 10 && f[8] == "local-pref":
			v, err := strconv.ParseUint(f[9], 10, 32)
			if err != nil {
				return fmt.Errorf("bad local-pref %q", f[9])
			}
			lp := uint32(v)
			rm.LocalPref = &lp
		case f[7] == "set" && len(f) == 10 && f[8] == "weight":
			v, err := strconv.Atoi(f[9])
			if err != nil {
				return fmt.Errorf("bad weight %q", f[9])
			}
			rm.Weight = &v
		default:
			return fmt.Errorf("unknown route-map action %q", strings.Join(f[7:], " "))
		}
		c.RouteMaps = append(c.RouteMaps, rm)
	case "announce":
		if len(f) < 4 || f[2] != "prefix" {
			return fmt.Errorf("usage: announce <ext> prefix <p> [aspath <n>] [med <n>]")
		}
		p, err := parsePrefix(f[3])
		if err != nil {
			return err
		}
		a := AnnounceDecl{External: f[1], Prefix: p, ASPathLen: 1}
		rest := f[4:]
		for len(rest) >= 2 {
			switch rest[0] {
			case "aspath":
				v, err := strconv.Atoi(rest[1])
				if err != nil {
					return fmt.Errorf("bad aspath %q", rest[1])
				}
				a.ASPathLen = v
			case "med":
				v, err := strconv.ParseUint(rest[1], 10, 32)
				if err != nil {
					return fmt.Errorf("bad med %q", rest[1])
				}
				a.MED = uint32(v)
			default:
				return fmt.Errorf("unknown announce option %q", rest[0])
			}
			rest = rest[2:]
		}
		c.Announces = append(c.Announces, a)
	case "command":
		return c.commandDirective(f)
	default:
		return fmt.Errorf("unknown directive %q", f[0])
	}
	return nil
}

func (c *Config) commandDirective(f []string) error {
	if len(f) < 2 {
		return fmt.Errorf("usage: command deny|local-pref|remove-session ...")
	}
	switch CommandKind(f[1]) {
	case CmdDeny:
		// command deny <node> from <ext> [prefix <p>]
		if len(f) < 5 || f[3] != "from" {
			return fmt.Errorf("usage: command deny <node> from <ext> [prefix <p>]")
		}
		d := CommandDecl{Kind: CmdDeny, Node: f[2], From: f[4], Prefix: -1, Order: 5}
		if len(f) >= 7 && f[5] == "prefix" {
			p, err := parsePrefix(f[6])
			if err != nil {
				return err
			}
			d.Prefix = p
		}
		c.Commands = append(c.Commands, d)
	case CmdLocalPref:
		// command local-pref <node> from <ext> order <n> value <v>
		if len(f) != 9 || f[3] != "from" || f[5] != "order" || f[7] != "value" {
			return fmt.Errorf("usage: command local-pref <node> from <ext> order <n> value <v>")
		}
		order, err := strconv.Atoi(f[6])
		if err != nil {
			return fmt.Errorf("bad order %q", f[6])
		}
		v, err := strconv.ParseUint(f[8], 10, 32)
		if err != nil {
			return fmt.Errorf("bad value %q", f[8])
		}
		c.Commands = append(c.Commands, CommandDecl{
			Kind: CmdLocalPref, Node: f[2], From: f[4], Order: order, LocalPref: uint32(v), Prefix: -1,
		})
	case CmdRemoveSession:
		if len(f) != 4 {
			return fmt.Errorf("usage: command remove-session <a> <b>")
		}
		c.Commands = append(c.Commands, CommandDecl{Kind: CmdRemoveSession, Node: f[2], From: f[3]})
	default:
		return fmt.Errorf("unknown command kind %q", f[1])
	}
	return nil
}

// parsePrefix reads a prefix index. Prefixes are non-negative: the route
// tables key on them, and CommandDecl reserves -1 for "any prefix".
func parsePrefix(s string) (int, error) {
	p, err := strconv.Atoi(s)
	if err != nil || p < 0 {
		return 0, fmt.Errorf("bad prefix %q", s)
	}
	return p, nil
}

// Build materializes the configuration: a topology, a converged network,
// and the reconfiguration commands. seed drives message jitter.
func (c *Config) Build(seed uint64) (*topology.Graph, *sim.Network, []sim.Command, error) {
	g := topology.New(c.Name)
	ids := make(map[string]topology.NodeID)
	for _, r := range c.Routers {
		if _, dup := ids[r]; dup {
			return nil, nil, nil, fmt.Errorf("config: duplicate node %q", r)
		}
		ids[r] = g.AddRouter(r)
	}
	for _, e := range c.Externals {
		if _, dup := ids[e.Name]; dup {
			return nil, nil, nil, fmt.Errorf("config: duplicate node %q", e.Name)
		}
		ids[e.Name] = g.AddExternal(e.Name, e.ASN)
	}
	lookup := func(name string) (topology.NodeID, error) {
		id, ok := ids[name]
		if !ok {
			return topology.None, fmt.Errorf("config: unknown node %q", name)
		}
		return id, nil
	}
	for _, l := range c.Links {
		a, err := lookup(l.A)
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := lookup(l.B)
		if err != nil {
			return nil, nil, nil, err
		}
		if a == b {
			return nil, nil, nil, fmt.Errorf("config: link %s %s is a self-loop", l.A, l.B)
		}
		if l.Delay > 0 {
			g.AddLinkDelay(a, b, l.Weight, l.Delay)
		} else {
			g.AddLink(a, b, l.Weight)
		}
	}

	net := sim.New(g, sim.DefaultOptions(seed))
	for _, s := range c.Sessions {
		a, err := lookup(s.A)
		if err != nil {
			return nil, nil, nil, err
		}
		b, err := lookup(s.B)
		if err != nil {
			return nil, nil, nil, err
		}
		if a == b {
			return nil, nil, nil, fmt.Errorf("config: session %s %s %s is with itself", s.A, s.Kind, s.B)
		}
		switch s.Kind {
		case SessPeer:
			net.SetSession(a, b, bgp.IBGPPeer)
		case SessClient:
			net.SetSession(a, b, bgp.IBGPClient)
		case SessEBGP:
			net.SetSession(a, b, bgp.EBGP)
		}
	}
	for _, rm := range c.RouteMaps {
		node, err := lookup(rm.Node)
		if err != nil {
			return nil, nil, nil, err
		}
		from, err := lookup(rm.From)
		if err != nil {
			return nil, nil, nil, err
		}
		entry := sim.Entry{Order: rm.Order, Match: sim.Match{Neighbor: sim.NodeP(from)}}
		if rm.Deny {
			entry.Action.Deny = true
		}
		if rm.LocalPref != nil {
			entry.Action.SetLocalPref = rm.LocalPref
		}
		if rm.Weight != nil {
			entry.Action.SetWeight = rm.Weight
		}
		net.UpdateRouteMap(node, from, sim.In, func(m *sim.RouteMap) { m.Add(entry) })
	}
	// Announcements are injected as one batch per external peer: a config
	// declaring thousands of routes converges with one message per session
	// instead of one per route.
	byExt := make(map[topology.NodeID][]sim.Announcement)
	var extOrder []topology.NodeID
	for _, a := range c.Announces {
		ext, err := lookup(a.External)
		if err != nil {
			return nil, nil, nil, err
		}
		if !g.Node(ext).External {
			return nil, nil, nil, fmt.Errorf("config: %q announces a route but is not external", a.External)
		}
		if _, seen := byExt[ext]; !seen {
			extOrder = append(extOrder, ext)
		}
		byExt[ext] = append(byExt[ext], sim.Announcement{
			Prefix: bgp.Prefix(a.Prefix), ASPathLen: a.ASPathLen, MED: a.MED,
		})
	}
	for _, ext := range extOrder {
		net.InjectExternalRoutes(ext, byExt[ext])
	}
	net.Run()

	var cmds []sim.Command
	for _, d := range c.Commands {
		cmd, err := c.buildCommand(d, lookup)
		if err != nil {
			return nil, nil, nil, err
		}
		cmds = append(cmds, cmd)
	}
	return g, net, cmds, nil
}

func (c *Config) buildCommand(d CommandDecl, lookup func(string) (topology.NodeID, error)) (sim.Command, error) {
	node, err := lookup(d.Node)
	if err != nil {
		return sim.Command{}, err
	}
	from, err := lookup(d.From)
	if err != nil {
		return sim.Command{}, err
	}
	switch d.Kind {
	case CmdDeny:
		prefix := d.Prefix
		order := d.Order
		return sim.Command{
			Node:        node,
			Description: fmt.Sprintf("%s: deny routes from %s", d.Node, d.From),
			DeniesOld:   true,
			Apply: func(net *sim.Network) {
				net.UpdateRouteMap(node, from, sim.In, func(m *sim.RouteMap) {
					e := sim.Entry{Order: order, Action: sim.Action{Deny: true}}
					if prefix >= 0 {
						e.Match.Prefix = sim.PrefixP(bgp.Prefix(prefix))
					}
					m.Add(e)
				})
			},
		}, nil
	case CmdLocalPref:
		order, lp := d.Order, d.LocalPref
		return sim.Command{
			Node:        node,
			Description: fmt.Sprintf("%s: set local-pref of routes from %s to %d", d.Node, d.From, lp),
			Apply: func(net *sim.Network) {
				net.UpdateRouteMap(node, from, sim.In, func(m *sim.RouteMap) {
					m.Remove(order)
					m.Add(sim.Entry{Order: order, Action: sim.Action{SetLocalPref: sim.U32P(lp)}})
				})
			},
		}, nil
	case CmdRemoveSession:
		return sim.Command{
			Node:        node,
			Description: fmt.Sprintf("remove session %s–%s", d.Node, d.From),
			DeniesOld:   true,
			Apply: func(net *sim.Network) {
				net.RemoveSession(node, from)
			},
		}, nil
	}
	return sim.Command{}, fmt.Errorf("config: unknown command kind %q", d.Kind)
}

// Scenario materializes the configuration as a reconfiguration scenario
// (over the first announced prefix) ready for the planning pipeline.
func (c *Config) Scenario(seed uint64) (*scenario.Scenario, error) {
	g, net, cmds, err := c.Build(seed)
	if err != nil {
		return nil, err
	}
	prefixes := c.Prefixes()
	if len(prefixes) == 0 {
		return nil, fmt.Errorf("config: no announced prefixes")
	}
	return &scenario.Scenario{
		Name: c.Name, Net: net, Graph: g,
		Prefix: prefixes[0],
		E1:     topology.None, E2: topology.None, E3: topology.None,
		Commands: cmds,
		Seed:     seed,
	}, nil
}

// Prefixes returns all announced prefixes, sorted.
func (c *Config) Prefixes() []bgp.Prefix {
	seen := make(map[int]bool)
	for _, a := range c.Announces {
		seen[a.Prefix] = true
	}
	var out []bgp.Prefix
	for p := range seen {
		out = append(out, bgp.Prefix(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Format renders the configuration back into the DSL.
func (c *Config) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s\n\n", c.Name)
	for _, r := range c.Routers {
		fmt.Fprintf(&b, "router %s\n", r)
	}
	for _, e := range c.Externals {
		fmt.Fprintf(&b, "external %s asn %d\n", e.Name, e.ASN)
	}
	b.WriteByte('\n')
	for _, l := range c.Links {
		fmt.Fprintf(&b, "link %s %s weight %g", l.A, l.B, l.Weight)
		if l.Delay > 0 {
			fmt.Fprintf(&b, " delay %s", l.Delay)
		}
		b.WriteByte('\n')
	}
	b.WriteByte('\n')
	for _, s := range c.Sessions {
		fmt.Fprintf(&b, "session %s %s %s\n", s.A, s.Kind, s.B)
	}
	for _, rm := range c.RouteMaps {
		fmt.Fprintf(&b, "route-map %s from %s in order %d ", rm.Node, rm.From, rm.Order)
		switch {
		case rm.Deny:
			b.WriteString("deny")
		case rm.LocalPref != nil:
			fmt.Fprintf(&b, "set local-pref %d", *rm.LocalPref)
		case rm.Weight != nil:
			fmt.Fprintf(&b, "set weight %d", *rm.Weight)
		}
		b.WriteByte('\n')
	}
	for _, a := range c.Announces {
		fmt.Fprintf(&b, "announce %s prefix %d aspath %d med %d\n",
			a.External, a.Prefix, a.ASPathLen, a.MED)
	}
	for _, d := range c.Commands {
		switch d.Kind {
		case CmdDeny:
			fmt.Fprintf(&b, "command deny %s from %s", d.Node, d.From)
			if d.Prefix >= 0 {
				fmt.Fprintf(&b, " prefix %d", d.Prefix)
			}
			b.WriteByte('\n')
		case CmdLocalPref:
			fmt.Fprintf(&b, "command local-pref %s from %s order %d value %d\n",
				d.Node, d.From, d.Order, d.LocalPref)
		case CmdRemoveSession:
			fmt.Fprintf(&b, "command remove-session %s %s\n", d.Node, d.From)
		}
	}
	return b.String()
}
