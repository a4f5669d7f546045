// Command chameleon plans and executes a safe BGP reconfiguration on a
// simulated network scenario, printing the compiled plan (Fig. 4 style) and
// the execution timeline (Fig. 6 style).
//
// Usage:
//
//	chameleon -topo Abilene -seed 7            # case-study scenario
//	chameleon -example                          # Fig. 3 running example
//	chameleon -topo Sprint -spec "G reach(Sprint_r03)"
//	chameleon -topo Abilene -plan-only          # print the plan, don't run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	chameleon "chameleon"
	"chameleon/internal/analyzer"
	"chameleon/internal/config"
	"chameleon/internal/eval"
)

var (
	topoFlag   = flag.String("topo", "Abilene", "corpus topology name (see -list)")
	configFlag = flag.String("config", "", "scenario configuration file (overrides -topo)")
	seedFlag   = flag.Uint64("seed", 7, "scenario seed")
	specFlag   = flag.String("spec", "", "specification (Fig. 2 syntax); default Eq. 4")
	example    = flag.Bool("example", false, "use the Fig. 3 running example instead of -topo")
	planOnly   = flag.Bool("plan-only", false, "compute and print the plan without executing")
	listFlag   = flag.Bool("list", false, "list corpus topologies and exit")
	maxR       = flag.Int("max-rounds", 16, "round-minimization cap")
)

func main() {
	flag.Parse()
	if *listFlag {
		for _, name := range chameleon.ZooNames() {
			fmt.Println(name)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chameleon:", err)
		os.Exit(1)
	}
}

func run() error {
	var s *chameleon.Scenario
	var err error
	switch {
	case *configFlag != "":
		raw, rerr := os.ReadFile(*configFlag)
		if rerr != nil {
			return rerr
		}
		cfg, cerr := config.Parse(string(raw))
		if cerr != nil {
			return cerr
		}
		s, err = cfg.Scenario(*seedFlag)
		if err != nil {
			return err
		}
	case *example:
		s = chameleon.RunningExample()
	default:
		s, err = chameleon.NewCaseStudy(*topoFlag, chameleon.ScenarioConfig{Seed: *seedFlag})
		if err != nil {
			return err
		}
	}
	fmt.Printf("scenario: %s — %s\n", s.Name, s.Graph)
	fmt.Printf("reconfiguration: %s\n", s.Commands[0].Description)

	opts := chameleon.PlanOptions{MaxRounds: *maxR}
	if *specFlag != "" {
		sp, err := chameleon.ParseSpec(*specFlag, s.Graph)
		if err != nil {
			return err
		}
		opts.Spec = sp
	} else if !*example && *configFlag == "" {
		// Default to the paper's Eq. 4 for case studies.
		a, err := analyzer.AnalyzeCtx(context.Background(), s.Net, s.FinalNetwork(), s.Prefix)
		if err != nil {
			return err
		}
		opts.Spec = eval.Eq4Spec(a, s.E1)
	}
	rec, err := chameleon.PlanCtx(context.Background(), s, opts)
	if err != nil {
		return err
	}
	return report(rec)
}

func report(rec *chameleon.Reconfiguration) error {
	fmt.Printf("specification: %v\n", rec.Spec)
	fmt.Printf("schedule: R=%d rounds, %d temp sessions, solved in %v (%d solver nodes)\n",
		rec.Schedule.R, rec.Schedule.TempOldSessions+rec.Schedule.TempNewSessions,
		rec.Schedule.Stats.Duration.Round(time.Millisecond), rec.Schedule.Stats.SolverNodes)
	fmt.Printf("estimated reconfiguration time T̃ = %v\n\n", rec.EstimateReconfigurationTime())
	fmt.Print(rec.Plan.String())
	if *planOnly {
		return nil
	}
	fmt.Println("\nexecuting…")
	res, err := rec.ExecuteCtx(context.Background(), chameleon.ExecOptions{})
	if err != nil {
		return err
	}
	for _, ph := range res.Phases {
		fmt.Printf("  %-10s %8.1f s → %8.1f s\n", ph.Name, ph.Start.Seconds(), ph.End.Seconds())
	}
	fmt.Printf("done in %v simulated; max table entries %d\n",
		res.Duration().Round(time.Millisecond), res.MaxTableEntries)
	if err := rec.Verify(res); err != nil {
		return fmt.Errorf("POST-CHECK FAILED: %w", err)
	}
	fmt.Println("post-check: specification held in every transient state ✓")
	return nil
}
