// Command bgpsim is a textual BGP simulator explorer — the equivalent of
// the paper's web application (App. E, https://bgpsim.github.io): it loads
// a scenario, lets you step through queued BGP events one at a time, and
// shows the control-plane (routing) and data-plane (forwarding) state after
// each step.
//
// Usage:
//
//	bgpsim -topo Abilene              # interactive REPL
//	bgpsim -example -script "run;state;routes 3"
//
// REPL commands:
//
//	step [n]      process the next n events (default 1)
//	run           process events until convergence
//	state         show the forwarding state (data-plane layer)
//	routes <id>   show a router's candidate routes and selection
//	queue         show the number of in-flight events
//	reconf        apply the scenario's reconfiguration command
//	fail <a> <b>  fail the link between routers a and b
//	trace         show the recorded forwarding-state history
//	plan          compute a Chameleon reconfiguration plan (App. E.3)
//	plan-status   show the plan's steps with live condition status
//	plan-next     apply the next step whose pre-conditions hold
//	help, quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	chameleon "chameleon"
	"chameleon/internal/config"
	"chameleon/internal/fwd"
	"chameleon/internal/plan"
	"chameleon/internal/topology"
)

var (
	topoFlag   = flag.String("topo", "Abilene", "corpus topology")
	configFlag = flag.String("config", "", "scenario configuration file (overrides -topo)")
	seedFlag   = flag.Uint64("seed", 7, "scenario seed")
	example    = flag.Bool("example", false, "use the Fig. 3 running example")
	scriptFlag = flag.String("script", "", "semicolon-separated commands to run non-interactively")
)

func main() {
	flag.Parse()
	var s *chameleon.Scenario
	var err error
	switch {
	case *configFlag != "":
		raw, rerr := os.ReadFile(*configFlag)
		if rerr == nil {
			var cfg *config.Config
			if cfg, err = config.Parse(string(raw)); err == nil {
				s, err = cfg.Scenario(*seedFlag)
			}
		} else {
			err = rerr
		}
	case *example:
		s = chameleon.RunningExample()
	default:
		s, err = chameleon.NewCaseStudy(*topoFlag, chameleon.ScenarioConfig{Seed: *seedFlag})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(1)
	}
	r := &repl{s: s}
	fmt.Printf("bgpsim: %s (converged; %d routers)\n", s.Name, len(s.Graph.Internal()))
	if *scriptFlag != "" {
		for _, cmd := range strings.Split(*scriptFlag, ";") {
			if cmd = strings.TrimSpace(cmd); cmd != "" {
				fmt.Printf("> %s\n", cmd)
				r.exec(cmd)
			}
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "quit" || line == "exit" {
			return
		}
		if line != "" {
			r.exec(line)
		}
		fmt.Print("> ")
	}
}

type repl struct {
	s *chameleon.Scenario

	// Plan-exploration state (App. E.3): the compiled plan flattened into
	// an ordered step list, with an applied marker per step.
	planSteps   []plan.Step
	stepPhase   []string
	stepApplied []bool
}

func (r *repl) exec(line string) {
	fields := strings.Fields(line)
	net := r.s.Net
	switch fields[0] {
	case "help":
		fmt.Println("commands: step [n] | run | state | routes <id> | queue | reconf | fail <a> <b> | trace | plan | plan-status | plan-next | quit")
	case "step":
		n := 1
		if len(fields) > 1 {
			n, _ = strconv.Atoi(fields[1])
		}
		done := 0
		for i := 0; i < n && net.Step(); i++ {
			done++
		}
		fmt.Printf("processed %d events, t=%v, %d pending\n", done, net.Now(), net.Pending())
	case "run":
		n := net.Run()
		fmt.Printf("converged after %d events at t=%v\n", n, net.Now())
	case "state":
		st := net.ForwardingState(r.s.Prefix)
		for _, n := range r.s.Graph.Internal() {
			fmt.Printf("  %-16s → %s\n", r.s.Graph.Node(n).Name, nhName(r.s.Graph, st[n]))
		}
	case "routes":
		if len(fields) < 2 {
			fmt.Println("usage: routes <id|name>")
			return
		}
		id, ok := parseNode(r.s.Graph, fields[1])
		if !ok {
			fmt.Println("unknown node")
			return
		}
		best, hasBest := net.Best(id, r.s.Prefix)
		for _, c := range net.Candidates(id, r.s.Prefix) {
			mark := " "
			if hasBest && c.PathEqual(best) && c.Weight == best.Weight {
				mark = "*"
			}
			fmt.Printf("  %s %v\n", mark, c)
		}
		if !hasBest {
			fmt.Println("  (no route selected)")
		}
	case "queue":
		fmt.Printf("%d events pending, t=%v\n", net.Pending(), net.Now())
	case "reconf":
		for _, cmd := range r.s.Commands {
			fmt.Printf("applying: %s\n", cmd.Description)
			cmd.Apply(net)
		}
	case "fail":
		if len(fields) < 3 {
			fmt.Println("usage: fail <a> <b>")
			return
		}
		a, okA := parseNode(r.s.Graph, fields[1])
		b, okB := parseNode(r.s.Graph, fields[2])
		if !okA || !okB || !net.FailLink(a, b) {
			fmt.Println("no such link")
			return
		}
		fmt.Println("link failed; IGP reconverged")
	case "plan":
		rec, err := chameleon.PlanCtx(context.Background(), r.s, chameleon.PlanOptions{})
		if err != nil {
			fmt.Println("planning failed:", err)
			return
		}
		r.planSteps = r.planSteps[:0]
		r.stepPhase = r.stepPhase[:0]
		for _, ph := range plan.Single(rec.Plan).Phases() {
			for _, part := range ph.Parts {
				for _, st := range part.Steps {
					r.planSteps = append(r.planSteps, st)
					r.stepPhase = append(r.stepPhase, ph.Name)
				}
			}
		}
		r.stepApplied = make([]bool, len(r.planSteps))
		fmt.Printf("plan ready: R=%d, %d steps, %d temp sessions (use plan-status / plan-next)\n",
			rec.Plan.R, len(r.planSteps), len(rec.Plan.TempSessions))
	case "plan-status":
		if len(r.planSteps) == 0 {
			fmt.Println("no plan; run `plan` first")
			return
		}
		for i, st := range r.planSteps {
			mark := " "
			if r.stepApplied[i] {
				mark = "✔"
			}
			fmt.Printf("%s [%2d] (%s) %s\n", mark, i, r.stepPhase[i], st.Command.Description)
			for _, c := range st.Pre {
				fmt.Printf("      pre:  %-50s %v\n", c, c.Check(net, r.s.Prefix))
			}
			for _, c := range st.Post {
				fmt.Printf("      post: %-50s %v\n", c, c.Check(net, r.s.Prefix))
			}
		}
	case "plan-next":
		if len(r.planSteps) == 0 {
			fmt.Println("no plan; run `plan` first")
			return
		}
		for i, st := range r.planSteps {
			if r.stepApplied[i] {
				continue
			}
			ok := true
			for _, c := range st.Pre {
				if !c.Check(net, r.s.Prefix) {
					ok = false
				}
			}
			if !ok {
				fmt.Printf("step %d blocked on pre-conditions; advance the simulation (step/run)\n", i)
				return
			}
			st.Command.Apply(net)
			r.stepApplied[i] = true
			fmt.Printf("applied [%2d] %s\n", i, st.Command.Description)
			return
		}
		fmt.Println("plan complete")
	case "trace":
		tr := net.Trace(r.s.Prefix)
		if tr == nil {
			fmt.Println("no trace")
			return
		}
		tr.Compact()
		for i, st := range tr.States {
			fmt.Printf("  t=%8.3fs  %v\n", tr.Times[i], st)
		}
	default:
		fmt.Println("unknown command; try help")
	}
}

func nhName(g *topology.Graph, nh topology.NodeID) string {
	switch nh {
	case fwd.Drop:
		return "∅ (drop)"
	case fwd.External:
		return "d (external)"
	default:
		return g.Node(nh).Name
	}
}

func parseNode(g *topology.Graph, s string) (topology.NodeID, bool) {
	if id, ok := g.NodeByName(s); ok {
		return id, true
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 || v >= g.NumNodes() {
		return topology.None, false
	}
	return topology.NodeID(v), true
}
