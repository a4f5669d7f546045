// Command evalharness regenerates every table and figure of the paper's
// evaluation (§6, §7, App. A/C/D) on the simulated substrate and prints the
// same rows/series the paper reports.
//
// Usage:
//
//	evalharness -fig 1          # Fig. 1  (Abilene: Snowcap vs Chameleon)
//	evalharness -fig 6          # Fig. 6  (phase/round timeline)
//	evalharness -fig 7          # Fig. 7  (scheduling time vs Cr)
//	evalharness -fig 8          # Fig. 8  (spec complexity, φn vs φt)
//	evalharness -fig 9          # Fig. 9  (reconfiguration time CDF)
//	evalharness -fig 10         # Fig. 10 (table overhead CDF vs SITN)
//	evalharness -fig 11a/-fig 11b  # Fig. 11 (external events)
//	evalharness -fig 12         # Fig. 12 (five extra topologies)
//	evalharness -fig 13         # Fig. 13 (loop-constraint ablation)
//	evalharness -table 1        # Table 1 (compilation rule classes)
//	evalharness -table 2        # Table 2 (named topologies)
//	evalharness -chaos          # fault-injection sweep (topologies × fault kinds)
//	evalharness -supervise      # supervised chaos-recovery sweep (persistent faults
//	                            # + mid-reconfiguration events under the closed-loop
//	                            # supervisor; -journal DIR keeps the execution journals)
//	evalharness -all            # everything
//	evalharness -smoke          # one traced RunningExample run + span-tree validation
//
// Observability: -trace FILE writes a structured span trace (JSONL, one
// span per line, deterministic bytes for deterministic runs) of every
// instrumented stage, closed by the final counter and histogram totals;
// -timeline FILE writes the transient-state monitor's violation timelines
// (JSONL, with per-violation root-cause records, byte-identical across
// re-runs and worker counts) for the monitored runs (-smoke, -fig 1); both
// files are validated after writing. -explain FILE (or "-") renders the
// human-readable causal chain of every monitored violation; -pprof ADDR
// serves net/http/pprof for live profiling (":0" picks an ephemeral port;
// the bound address is printed). -bundle DIR seals
// every deterministic artifact of the run (trace, timelines, compiled
// plans, chaos/recovery fingerprints, supervisor journals) into a
// content-addressed run bundle that `obsdiff` can structurally compare
// against another run's. The process exits nonzero if any sweep's
// per-scenario run errored or any artifact failed to write, so partially
// failed runs cannot look green in CI.
//
// By default the corpus sweeps are capped at -max-nodes (60) routers so a
// full run finishes on a laptop; pass -full for the entire 106-topology
// corpus including Cogentco (197) and Kdl (754), which — like the paper's
// CBC runs — can take hours.
//
// The corpus and chaos sweeps run -workers scenarios at a time (default:
// one per CPU). Results are merged in scenario order, so every CSV artifact
// and chaos fingerprint is byte-identical at any worker count; only the
// wall-clock scheduling_time_s measurements vary run to run. Pass
// -workers 1 for contention-free Fig. 7 timing measurements.
//
// Adding an experiment is one entry in the experiments table: a selector id
// ("fig 14" is what -fig 14 selects), a section title — the titles that ran
// form the bundle's scenario key — and a func(*session) error that prints
// through the session and records its CSVs (saveCSV), bundle parts (record)
// and monitor timelines on it, from which every artifact flag is served.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"chameleon"
	"chameleon/internal/chaos"
	"chameleon/internal/eval"
	"chameleon/internal/monitor"
	"chameleon/internal/obs"
	"chameleon/internal/obs/bundle"
	"chameleon/internal/plan"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/topology"
)

// experiment is one section of the evaluation.
type experiment struct {
	id, title string // selector ("fig 7" is -fig 7) and section header
	run       func(*session) error
}

// experiments is the evaluation in run order; -all runs all but the smoke gate.
var experiments = []experiment{
	{"smoke", "Smoke", (*session).smokeTest},
	{"fig 1", "Figure 1", (*session).fig1},
	{"fig 6", "Figure 6", (*session).fig6},
	{"fig 7", "Figure 7", (*session).fig7},
	{"fig 8", "Figure 8", (*session).fig8},
	{"fig 9", "Figure 9", (*session).fig9},
	{"fig 10", "Figure 10", (*session).fig10},
	{"fig 11a", "Figure 11a", (*session).fig11a},
	{"fig 11b", "Figure 11b", (*session).fig11b},
	{"fig 12", "Figure 12", (*session).fig12},
	{"fig 13", "Figure 13", (*session).fig13},
	{"table 1", "Table 1", (*session).table1},
	{"table 2", "Table 2", (*session).table2},
	{"chaos", "Chaos sweep", (*session).chaosSweep},
	{"supervise", "Recovery sweep", (*session).recoverySweep},
}

// session is one evalharness run: its command line, the recorder observing
// the experiments, and what they record for finish to write out.
type session struct {
	fig, table, topo, out, journal     string
	trace, timeline, explain           string
	pprof, bundle                      string
	all, full, smoke, chaos, supervise bool
	maxNodes, runs, workers            int
	seed                               uint64

	ctx            context.Context // carries rec
	rec            *obs.Recorder   // nil unless an artifact or -smoke needs one
	stdout, stderr io.Writer

	titles    []string            // experiments that ran: the bundle's scenario key
	timelines []*monitor.Timeline // monitored runs (-smoke, -fig 1), in execution order
	parts     []part              // plan, chaos, recovery and journal parts
	sweep     []eval.SweepOutcome // Fig. 7's corpus sweep, reused by Fig. 9
	errs      int                 // failed sweep runs and artifact writes
}

// part is one deterministic artifact of the run, as a bundle member.
type part struct {
	name, kind string
	write      func(io.Writer) error
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command. It returns the exit status: 2 for a bad command
// line, 1 if an experiment, a sweep run or an artifact write failed.
func run(args []string, stdout, stderr io.Writer) int {
	s := &session{ctx: context.Background(), stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet("evalharness", flag.ContinueOnError)
	fs.StringVar(&s.fig, "fig", "", "figure to regenerate (1, 6, 7, 8, 9, 10, 11a, 11b, 12, 13)")
	fs.StringVar(&s.table, "table", "", "table to regenerate (1, 2)")
	fs.BoolVar(&s.all, "all", false, "regenerate every figure and table")
	fs.BoolVar(&s.full, "full", false, "use the full 106-topology corpus (slow)")
	fs.IntVar(&s.maxNodes, "max-nodes", 60, "cap corpus topologies at this size unless -full")
	fs.Uint64Var(&s.seed, "seed", 7, "scenario seed")
	fs.IntVar(&s.runs, "runs", 5, "runs per point for Figs. 8/13 (paper: 20)")
	fs.StringVar(&s.topo, "topo", "", "override topology for Figs. 8/13 (default: largest within cap)")
	fs.StringVar(&s.out, "out", "", "directory to write CSV artifacts into (optional)")
	fs.BoolVar(&s.chaos, "chaos", false, "run the fault-injection sweep (topologies × fault kinds)")
	fs.BoolVar(&s.supervise, "supervise", false, "run the supervised chaos-recovery sweep (every run must end in the final or initial configuration)")
	fs.StringVar(&s.journal, "journal", "", "directory for per-case supervisor execution journals (with -supervise)")
	fs.IntVar(&s.workers, "workers", goruntime.NumCPU(), "parallel scenario runs for the corpus and chaos sweeps (1 = sequential)")
	fs.StringVar(&s.trace, "trace", "", "write a structured span trace (JSONL) of the instrumented runs to this file")
	fs.StringVar(&s.timeline, "timeline", "", "write the transient-state monitor's violation timelines (JSONL) to this file")
	fs.StringVar(&s.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; \":0\" picks an ephemeral port; the bound address is printed)")
	fs.StringVar(&s.explain, "explain", "", "write a human-readable root-cause report of every monitored violation to this file (\"-\" for stdout)")
	fs.BoolVar(&s.smoke, "smoke", false, "run one traced RunningExample reconfiguration and validate the span tree (CI gate)")
	fs.StringVar(&s.bundle, "bundle", "", "seal a content-addressed run bundle (manifest + trace/timeline/plan/chaos/journal parts) into this directory; two same-seed runs bundle byte-identically at any -workers count, which `obsdiff` checks")
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	// An unknown selector is an error even beside a valid one.
	want := map[string]bool{"smoke": s.smoke, "chaos": s.chaos, "supervise": s.supervise,
		"fig " + s.fig: s.fig != "", "table " + s.table: s.table != ""}
	var selected []experiment
	valid := "-all"
	for _, e := range experiments {
		if want[e.id] || s.all && e.id != "smoke" {
			selected = append(selected, e)
		}
		delete(want, e.id)
		valid += ", -" + e.id
	}
	for id, unknown := range want { // every id left is not in the table
		if unknown {
			fmt.Fprintf(stderr, "evalharness: no experiment -%s\n", id)
			selected = nil
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "evalharness: select experiments from %s\n", valid)
		fs.Usage()
		return 2
	}
	if s.pprof != "" {
		ln, err := net.Listen("tcp", s.pprof)
		if err != nil {
			fmt.Fprintln(stderr, "pprof server:", err)
			return 1
		}
		srv := &http.Server{} // nil Handler: net/http/pprof's DefaultServeMux
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				fmt.Fprintln(stderr, "pprof server:", err)
			}
		}()
		defer srv.Close()
		s.printf("(pprof listening on http://%s/debug/pprof/)\n", ln.Addr())
	}
	if s.trace != "" || s.smoke || s.bundle != "" {
		s.rec = obs.New()
		s.ctx = obs.WithRecorder(s.ctx, s.rec)
	}

	for _, e := range selected {
		s.titles = append(s.titles, e.title)
		s.printf("\n================ %s ================\n", e.title)
		start := time.Now()
		if err := e.run(s); err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.title, err)
			s.finish()
			return 1
		}
		s.printf("---- %s done in %v\n", e.title, time.Since(start).Round(time.Millisecond))
	}
	s.finish()
	if s.errs > 0 {
		fmt.Fprintf(stderr, "%d sweep run(s) or artifact write(s) failed\n", s.errs)
		return 1
	}
	return 0
}

func (s *session) printf(format string, a ...any) { fmt.Fprintf(s.stdout, format, a...) }
func (s *session) println(a ...any)               { fmt.Fprintln(s.stdout, a...) }

// status renders a sweep run's outcome for its progress line; a failed run
// fails the process at exit.
func (s *session) status(err error) string {
	if err != nil {
		s.errs++
		return err.Error()
	}
	return "ok"
}

// fail reports an error that does not stop the run but fails it at exit.
func (s *session) fail(what string, err error) {
	fmt.Fprintf(s.stderr, "%s: %v\n", what, err)
	s.errs++
}

// saveCSV writes one CSV artifact into the -out directory, when set.
func (s *session) saveCSV(name string, write func(io.Writer) error) {
	if s.out == "" {
		return
	}
	if err := os.MkdirAll(s.out, 0o755); err != nil {
		s.fail("saving artifacts", err)
		return
	}
	s.save(filepath.Join(s.out, name), "", write)
}

// save writes and reports one artifact file, validating the bytes of a
// trace or timeline part first; a failure fails the run.
func (s *session) save(path, part string, write func(io.Writer) error) {
	var buf bytes.Buffer
	note, err := "", write(&buf)
	if err == nil {
		note, err = validate(part, bytes.NewReader(buf.Bytes()))
	}
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o666)
	}
	if err != nil {
		s.fail("writing "+path, err)
		return
	}
	s.printf("(wrote %s%s)\n", path, note)
}

// record adds a part holding text.
func (s *session) record(name, kind, text string) {
	s.parts = append(s.parts, part{name, kind, func(w io.Writer) error {
		_, err := io.WriteString(w, text)
		return err
	}})
}

// finish writes the run's artifacts once, on every exit path after the
// experiments started, from one list of deterministic parts: -bundle seals
// it, and -timeline and -trace each write their part of it.
func (s *session) finish() {
	parts := s.parts
	if s.rec != nil {
		if err := s.rec.Validate(); err != nil {
			s.fail("trace validation", err)
		}
		parts = append(parts, part{"trace.jsonl", bundle.KindTrace, s.rec.WriteJSONL})
	}
	if len(s.timelines) > 0 {
		parts = append(parts, part{"timeline.jsonl", bundle.KindTimeline, func(w io.Writer) error {
			for _, tl := range s.timelines {
				if err := tl.WriteJSONL(w); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	for _, f := range [][2]string{{s.timeline, "timeline.jsonl"}, {s.trace, "trace.jsonl"}} {
		i := slices.IndexFunc(parts, func(p part) bool { return p.name == f[1] })
		switch {
		case f[0] == "":
		case i < 0:
			s.fail("writing "+f[1], errors.New("no selected experiment produced it (timelines come from -smoke and -fig 1)"))
		default:
			s.save(f[0], f[1], parts[i].write)
		}
	}
	// -explain renders every monitored violation with its causal chain
	// (originating command or event, phase, hop depth, blame latency), in
	// execution order.
	explain := func(w io.Writer) error { return monitor.WriteExplain(w, s.timelines...) }
	switch {
	case s.explain == "":
	case len(s.timelines) == 0:
		s.fail("writing explain report", errors.New("no monitored run produced a timeline (-explain needs -smoke or -fig 1)"))
	case s.explain == "-":
		s.println()
		if err := explain(s.stdout); err != nil {
			s.fail("writing explain report", err)
		}
	default:
		s.save(s.explain, "", explain)
	}
	if s.bundle != "" {
		if err := s.seal(parts); err != nil {
			s.fail("sealing bundle", err)
		}
	}
}

// validate checks a trace or timeline part's bytes with its
// format's checker and notes what it found.
func validate(part string, r io.Reader) (string, error) {
	switch part {
	case "trace.jsonl":
		n, err := obs.ValidateJSONL(r)
		return fmt.Sprintf(": %d spans, validated", n), err
	case "timeline.jsonl":
		recs, err := monitor.ValidateJSONL(r)
		return fmt.Sprintf(": %d records, validated", len(recs)), err
	}
	return "", nil
}

// seal writes the -bundle directory: a content-addressed manifest over
// parts. Wall-clock artifacts (the scheduling-time CSVs) are deliberately
// not parts, so two runs of the same experiments and seed seal
// byte-identical bundles at any -workers count — `obsdiff A B` exiting 0 is
// the determinism gate.
func (s *session) seal(parts []part) error {
	w, err := bundle.Create(s.bundle, strings.Join(s.titles, "+"), s.seed)
	if err != nil {
		return err
	}
	// Options record the environment without entering the content address:
	// runs at different parallelism must address identically.
	w.SetOption("workers", strconv.Itoa(s.workers))
	w.SetOption("max_nodes", strconv.Itoa(s.maxNodes))
	w.SetOption("full", strconv.FormatBool(s.full))
	w.SetOption("runs", strconv.Itoa(s.runs))
	for _, p := range parts {
		if err := w.AddPart(p.name, p.kind, p.write); err != nil {
			return err
		}
	}
	m, err := w.Close()
	if err != nil {
		return err
	}
	s.printf("(sealed bundle %s: %d parts, id %s)\n", s.bundle, len(m.Parts), m.ID)
	return nil
}

// smokeTest plans and executes the Fig. 3 running example through the traced,
// context-aware facade with the transient-state monitor attached, then
// checks the recorded span tree for well-formedness, reconciles the
// execute span's round count with the schedule, and asserts that the
// monitor saw zero transient invariant violations. It is the CI gate for
// the observability layer.
func (s *session) smokeTest() error {
	sc := chameleon.RunningExample()
	mon := chameleon.NewMonitor(chameleon.MonitorConfig{
		Name:       "smoke",
		Invariants: chameleon.DefaultInvariants(sc.Graph),
		Recorder:   s.rec,
	})
	rec, err := chameleon.PlanCtx(s.ctx, sc, chameleon.PlanOptions{Monitor: mon})
	if err != nil {
		return err
	}
	res, err := rec.ExecuteCtx(s.ctx, chameleon.ExecOptions{Monitor: mon})
	if err != nil {
		return err
	}
	if err := rec.Verify(res); err != nil {
		return err
	}
	s.record("plan/smoke.txt", bundle.KindPlan, rec.Plan.String())
	tl := mon.Timeline()
	s.timelines = append(s.timelines, tl)
	if n := len(tl.Violations); n != 0 {
		v := tl.Violations[0]
		return fmt.Errorf("monitor recorded %d transient violations (want 0); first: %s at %v on nodes %v",
			n, v.Invariant, v.Start, v.Nodes)
	}
	if err := s.rec.Validate(); err != nil {
		return fmt.Errorf("span tree ill-formed: %w", err)
	}
	rounds := 0
	for _, name := range s.rec.SpanNames() {
		var r int
		if _, err := fmt.Sscanf(name, "round %d", &r); err == nil {
			rounds++
		}
	}
	if rounds != rec.Schedule.R {
		return fmt.Errorf("trace has %d round spans, schedule has R=%d", rounds, rec.Schedule.R)
	}
	s.printf("smoke: %d spans, %d rounds traced, R=%d, sim duration %.1f s, spec verified\n",
		s.rec.NumSpans(), rounds, rec.Schedule.R, res.Duration().Seconds())
	s.printf("monitor: %d transient states checked, 0 violations\n", tl.StatesChecked)
	s.printf("%s", s.rec.FlameSummary())
	return nil
}

// corpus returns the evaluated topology set under the size cap.
func (s *session) corpus() []string {
	var names []string
	for _, name := range topology.ZooNames() {
		// Below 5 routers a topology is too small for 3 egresses + reflectors.
		if size, _ := topology.ZooSize(name); size >= 5 && (s.full || size <= s.maxNodes) {
			names = append(names, name)
		}
	}
	return names
}

func (s *session) sweepTopo() string {
	if s.topo != "" {
		return s.topo
	}
	// Default: the largest corpus topology within the cap (the paper uses
	// Cogentco, its second-largest scenario).
	best, bestSize := "Abilene", 0
	for _, name := range s.corpus() {
		if size, _ := topology.ZooSize(name); size > bestSize {
			best, bestSize = name, size
		}
	}
	return best
}

func (s *session) fig1() error {
	r, err := eval.RunCaseStudyCtx(s.ctx, "Abilene", s.seed)
	if err != nil {
		return err
	}
	s.saveCSV("fig1_snowcap.csv", func(w io.Writer) error { return eval.WriteCaseStudyCSV(w, r.Snowcap) })
	s.saveCSV("fig1_chameleon.csv", func(w io.Writer) error { return eval.WriteCaseStudyCSV(w, r.Chameleon) })
	s.saveCSV("fig6_phases.csv", func(w io.Writer) error { return eval.WritePhaseCSV(w, r) })
	s.saveCSV("fig1_timeline.csv", func(w io.Writer) error {
		return eval.WriteTimelineCSV(w, r.SnowcapTimeline, r.ChameleonTimeline)
	})
	s.timelines = append(s.timelines, r.SnowcapTimeline, r.ChameleonTimeline)
	s.record("plan/fig1-abilene.txt", bundle.KindPlan, r.PlanText)
	s.println("Abilene case study (§6): direct application (Snowcap) vs Chameleon.")
	s.println("Paper shape: Snowcap finishes in ~1.7 s but transiently drops ~15k packets")
	s.println("and violates waypointing; Chameleon takes ~30-60x longer with zero violations.")
	s.println()
	s.printf("%s\n%s", eval.FormatMeasurementSeries("Snowcap", r.SnowcapDuration, r.Snowcap),
		eval.FormatMeasurementSeries("Chameleon", r.ChameleonDuration, r.Chameleon))
	s.printf("\nslowdown: %.1fx   Chameleon clean: %v   Snowcap clean: %v\n",
		r.ChameleonDuration.Seconds()/r.SnowcapDuration.Seconds(),
		r.Chameleon.Clean(), r.Snowcap.Clean())
	s.println("\nMonitor-measured transient violation time (Fig. 9 comparison):")
	s.printf("%s", eval.FormatViolationTable(r))
	return nil
}

func (s *session) fig6() error {
	r, err := eval.RunCaseStudyCtx(s.ctx, "Abilene", s.seed)
	if err != nil {
		return err
	}
	s.println("Chameleon phase timeline (paper: rounds take 10-12 s each, dominated")
	s.println("by router route-map application latency):")
	for _, ph := range r.Phases {
		s.printf("  %-10s  %7.1f s → %7.1f s   (%.1f s)\n",
			ph.Name, ph.Start.Seconds(), ph.End.Seconds(), (ph.End - ph.Start).Seconds())
	}
	s.printf("  total: %.1f s across setup + %d rounds + cleanup, %d temp sessions\n",
		r.ChameleonDuration.Seconds(), r.R, r.TempSessions)
	return nil
}

func (s *session) schedulingSweep() ([]eval.SweepOutcome, error) {
	if s.sweep != nil {
		s.println("(reusing the scheduling sweep computed earlier in this run)")
		return s.sweep, nil
	}
	names := s.corpus()
	s.printf("sweeping %d scenarios (cap %d nodes, -full=%v, %d workers)\n",
		len(names), s.maxNodes, s.full, s.workers)
	outs, err := eval.SweepSchedulingCtx(s.ctx, names, s.seed, scheduler.DefaultOptions(), s.workers, func(o eval.SweepOutcome) {
		s.printf("  %-22s |N|=%4d  Cr=%6d  R=%2d  sched=%10v  %s\n",
			o.Name, o.Nodes, o.Cr, o.R, o.SchedulingTime.Round(time.Millisecond), s.status(o.Err))
	})
	if err != nil {
		return nil, err
	}
	s.sweep = outs
	return outs, nil
}

func (s *session) fig7() error {
	outs, err := s.schedulingSweep()
	if err != nil {
		return err
	}
	s.saveCSV("fig7_scheduling.csv", func(w io.Writer) error { return eval.WriteSweepCSV(w, outs) })
	s.saveCSV("ledger.csv", func(w io.Writer) error { return eval.WriteLedgerCSV(w, outs) })
	var crs, times []float64
	for _, o := range outs {
		if o.Err == nil {
			crs = append(crs, float64(o.Cr))
			times = append(times, o.SchedulingTime.Seconds())
		}
	}
	s.printf("\nFig. 7 statistic: log-log Pearson correlation(Cr, scheduling time) = %.3f\n",
		eval.PearsonLogLog(crs, times))
	s.println("(paper: strong correlation across >4 orders of magnitude of Cr)")
	return nil
}

func (s *session) fig8() error {
	topo := s.sweepTopo()
	fracs := []float64{0, 0.25, 0.5, 0.75, 1}
	s.printf("spec-complexity sweep on %s, %d runs per point (paper: 20)\n", topo, s.runs)
	for _, temporal := range []bool{false, true} {
		label, name := "φn (non-temporal)", "fig8_phi_n.csv"
		if temporal {
			label, name = "φt (temporal)", "fig8_phi_t.csv"
		}
		pts, err := eval.SpecComplexitySweepCtx(s.ctx, topo, temporal, true, fracs, s.runs, s.seed)
		if err != nil {
			return err
		}
		s.saveCSV(name, func(w io.Writer) error { return eval.WriteSpecSweepCSV(w, label, pts) })
		s.printf("\n%s:\n", label)
		for _, pt := range pts {
			s.printf("  |Nφ|=%4d  median=%10v  p10=%10v  p90=%10v\n",
				pt.Nphi, pt.Median.Round(time.Millisecond),
				pt.P10.Round(time.Millisecond), pt.P90.Round(time.Millisecond))
		}
	}
	s.println("\n(paper shape: φt grows much faster with |Nφ| than φn — up to ~20x)")
	return nil
}

func (s *session) fig9() error {
	outs, err := s.schedulingSweep()
	if err != nil {
		return err
	}
	var xs []float64
	for _, o := range outs {
		if o.Err == nil {
			xs = append(xs, o.EstimatedReconfTime.Seconds())
		}
	}
	s.println()
	s.printf("%s", eval.AsciiCDF("Fig. 9: approximate reconfiguration time T̃ = 12s·(2+R)", "s",
		xs, []float64{60, 120, 300}))
	s.printf("(paper: 85%% of scenarios below 2 minutes)\n")
	return nil
}

func (s *session) fig10() error {
	names := s.corpus()
	s.printf("table-overhead sweep over %d scenarios (%d workers)\n", len(names), s.workers)
	outs, err := eval.SweepTableOverheadCtx(s.ctx, names, s.seed, scheduler.DefaultOptions(), s.workers, func(o eval.OverheadOutcome) {
		s.printf("  %-22s baseline=%5d  chameleon=+%5.1f%%  sitn=+%5.1f%%  %s\n",
			o.Name, o.Baseline, 100*o.Chameleon, 100*o.SITN, s.status(o.Err))
	})
	if err != nil {
		return err
	}
	s.saveCSV("fig10_overhead.csv", func(w io.Writer) error { return eval.WriteOverheadCSV(w, outs) })
	var cham, sitnXs []float64
	for _, o := range outs {
		if o.Err == nil {
			cham = append(cham, 100*o.Chameleon)
			sitnXs = append(sitnXs, 100*o.SITN)
		}
	}
	s.println()
	s.printf("%s", eval.AsciiCDF("Chameleon additional routing table entries", "%", cham, []float64{8, 20, 43}))
	s.printf("%s", eval.AsciiCDF("SITN additional routing table entries", "%", sitnXs, []float64{43, 96, 100}))
	s.println("(paper: Chameleon median ≈ 8%, mean ≈ 11%; SITN ≈ 96%)")
	return nil
}

func (s *session) fig11a() error {
	r, err := eval.RunLinkFailureExperimentCtx(s.ctx, "Abilene", s.seed, 7*time.Second)
	if err != nil {
		return err
	}
	s.printf("link failure at 7 s: reconfiguration completed in %.1f s\n", r.Result.Duration().Seconds())
	s.printf("packet loss window: %.2f s (paper: ≈0.5 s of OSPF reconvergence)\n",
		r.Measurement.ViolationSeconds)
	s.printf("total dropped: %.0f packets\n", r.Measurement.TotalDropped)
	return nil
}

func (s *session) fig11b() error {
	const after = 30 * time.Second
	r, err := eval.RunNewRouteExperimentCtx(s.ctx, "Abilene", s.seed, after)
	if err != nil {
		return err
	}
	// The phase the announcement fell in; a Between slot has no span.
	in := "a between slot"
	for _, ph := range r.Result.Phases {
		if at := r.Result.Start + after; ph.Start < at && at <= ph.End {
			in = ph.Name
		}
	}
	s.printf("better route announced at e4 after %.0f s, delivered in %s: ignored during the update phase\n", after.Seconds(), in)
	s.printf("reconfiguration completed in %.1f s; converged to e4 afterwards: %v\n",
		r.Result.Duration().Seconds(), r.ConvergedToE4)
	s.printf("drops during plan execution: %.0f packets\n", r.Measurement.TotalDropped)
	return nil
}

func (s *session) fig12() error {
	for _, name := range []string{"Compuserve", "HiberniaCanada", "Sprint", "JGN2plus", "EEnet"} {
		r, err := eval.RunCaseStudyCtx(s.ctx, name, s.seed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		s.printf("%-16s snowcap: %5.2f s (dropped %6.0f, viol %5.0f)   chameleon: %6.1f s (dropped %3.0f, viol %3.0f, R=%d)\n",
			name,
			r.SnowcapDuration.Seconds(), r.Snowcap.TotalDropped, r.Snowcap.TotalViolations,
			r.ChameleonDuration.Seconds(), r.Chameleon.TotalDropped, r.Chameleon.TotalViolations, r.R)
	}
	s.println("(paper: Snowcap black-holes 1-2 s everywhere, violates waypoints in 4/5;")
	s.println(" Chameleon clean everywhere, < 1 min)")
	return nil
}

func (s *session) fig13() error {
	topo := s.sweepTopo()
	fracs := []float64{0, 0.5, 1}
	s.printf("loop-constraint ablation on %s (temporal spec), %d runs per point\n", topo, s.runs)
	for i, label := range []string{"explicit (with Eq. 3)", "implicit (without Eq. 3)"} {
		pts, err := eval.SpecComplexitySweepCtx(s.ctx, topo, true, i == 0, fracs, s.runs, s.seed)
		if err != nil {
			return err
		}
		s.printf("\n%s:\n", label)
		for _, pt := range pts {
			spread := float64(pt.P90-pt.P10) / float64(time.Millisecond)
			s.printf("  |Nφ|=%4d  median=%10v  p10-p90 spread=%8.0f ms\n",
				pt.Nphi, pt.Median.Round(time.Millisecond), spread)
		}
	}
	s.println("\n(paper shape: explicit loop constraints shrink the scheduling-time variance)")
	return nil
}

func (s *session) chaosSweep() error {
	cfg := chaos.DefaultSweep()
	cfg.Seeds = []uint64{s.seed}
	cfg.Workers = s.workers
	s.printf("chaos sweep: %d topologies × %d fault kinds, seed %d, %d workers\n",
		len(cfg.Topologies), len(cfg.Faults), s.seed, s.workers)
	results, sums, err := chaos.SweepCtx(s.ctx, cfg, func(r chaos.CaseResult) {
		s.printf("  %-12s %-10s → %-10s faults=%d msg=%d flaps=%d retries=%d repush=%d acks-=%d  %s\n",
			r.Topology, r.Fault, r.Outcome, r.CommandFaults, r.MessageFaults,
			r.Flaps, r.Recovery.Retries, r.Recovery.Repushes, r.Recovery.AcksLost, r.Err)
	})
	if err != nil {
		return err
	}
	s.parts = append(s.parts, part{"chaos.txt", bundle.KindChaos, func(w io.Writer) error {
		return chaos.WriteFingerprints(w, results)
	}})
	s.saveCSV("chaos_sweep.csv", func(w io.Writer) error { return eval.WriteChaosCSV(w, results) })
	s.println()
	s.printf("%s", eval.FormatChaosTable(sums))
	violations := 0
	for _, sm := range sums {
		violations += sm.Violations
	}
	s.printf("\nsilent violations: %d (must be 0 — every fault is either absorbed or visibly flagged)\n",
		violations)
	if violations > 0 {
		return fmt.Errorf("%d silent invariant violations", violations)
	}
	return nil
}

// recoverySweep runs the supervised chaos-recovery matrix: persistent
// command faults and harmful mid-reconfiguration events under the
// closed-loop supervisor. Acceptance is absolute: every run must terminate
// in the final or the initial configuration, verified by readback, with
// zero silent invariant violations — any other result fails the process.
func (s *session) recoverySweep() error {
	cfg := chaos.DefaultRecoverySweep()
	cfg.Seeds = []uint64{s.seed}
	cfg.Workers = s.workers
	if s.journal != "" {
		if err := os.MkdirAll(s.journal, 0o755); err != nil {
			return err
		}
		cfg.JournalDir = s.journal
	}
	s.printf("recovery sweep: %d topologies × %d profiles, seed %d, %d workers\n",
		len(cfg.Topologies), len(cfg.Profiles), s.seed, s.workers)
	results, err := chaos.RecoverySweep(s.ctx, cfg, func(r chaos.RecoveryResult) {
		verdict := "recovered"
		if !r.Recovered {
			verdict = "NOT RECOVERED"
		}
		s.printf("  %-16s %-22s → %-7s attempts=%d replans=%d commit=%v rollback=%v forced=%v viol=%v  %s\n",
			r.Topology, r.Profile, r.Outcome, r.Attempts, r.Replans,
			r.Committed, r.RolledBack, r.Forced, r.ViolationTime, verdict)
	})
	if err != nil {
		return err
	}
	s.parts = append(s.parts, part{"recovery.txt", bundle.KindChaos, func(w io.Writer) error {
		return chaos.WriteRecoveryFingerprints(w, results)
	}})
	if s.journal != "" {
		s.printf("(wrote %d execution journals to %s)\n", len(results), s.journal)
		// Bundling the execution journals (one JSONL WAL per supervised
		// case) lets a bundle diff name the exact recovery decision where
		// two runs parted.
		names, err := filepath.Glob(filepath.Join(s.journal, "*.jsonl"))
		for _, name := range names {
			var raw []byte
			if raw, err = os.ReadFile(name); err != nil {
				break
			}
			s.record("journal/"+filepath.Base(name), bundle.KindJournal, string(raw))
		}
		if err != nil {
			return err
		}
	}
	bad := 0
	for _, r := range results {
		if !r.Recovered {
			bad++
			fmt.Fprintf(s.stderr, "NOT RECOVERED: %s/%s/seed=%d outcome=%s verified=%v silent=%v\n",
				r.Topology, r.Profile, r.Seed, r.Outcome, r.Verified, r.SilentViolations)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d supervised run(s) did not recover to a final-or-initial configuration", bad)
	}
	s.printf("\nall %d supervised runs terminated in the final or initial configuration, zero silent violations\n",
		len(results))
	return nil
}

func (s *session) table1() error {
	// Table 1 enumerates the four compilation rule classes; show a real
	// compiled plan exercising them.
	sc, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: s.seed})
	if err != nil {
		return err
	}
	rec, err := plan.Build(s.ctx, sc.Net, sc.FinalNetwork(), sc.Prefix, sc.Commands,
		eval.Eq4For(sc.E1), scheduler.DefaultOptions())
	if err != nil {
		return err
	}
	// Rule classes in the paper's order r_old ≤ r_nh ≤ r_new, indexed by
	// (r_old = r_nh, r_nh = r_new) as two bits.
	classes := [4]string{"r_old < r_nh < r_new", "r_old < r_nh = r_new", "r_old = r_nh < r_new", "r_old = r_nh = r_new"}
	var nodes [4]int
	for _, t := range rec.Schedule.Tuples {
		i := 0
		if t.Old == t.NH {
			i += 2
		}
		if t.NH == t.New {
			i++
		}
		nodes[i]++
	}
	s.println("Table 1 rule classes exercised by the Abilene schedule:")
	for i, n := range nodes {
		if n > 0 {
			s.printf("  %-22s : %d nodes\n", classes[i], n)
		}
	}
	s.println("\nCompiled plan:")
	s.printf("%s", rec.Plan.String())
	return nil
}

func (s *session) table2() error {
	names := []string{"Deltacom", "Ion", "Pern", "TataNld", "Colt", "UsCarrier", "Cogentco"}
	if !s.full {
		s.println("note: Table 2 uses 113-197 node topologies; running them regardless of -max-nodes")
	}
	outs, err := eval.SweepSchedulingCtx(s.ctx, names, s.seed, scheduler.DefaultOptions(), s.workers, nil)
	if err != nil {
		return err
	}
	s.printf("%-12s %6s %8s %14s\n", "Topology", "|N|", "Cr", "sched time")
	for _, o := range outs {
		if o.Err != nil {
			s.printf("%-12s %6d %8s %14s (%v)\n", o.Name, o.Nodes, "-", "-", o.Err)
			s.errs++
			continue
		}
		s.printf("%-12s %6d %8d %14v\n", o.Name, o.Nodes, o.Cr, o.SchedulingTime.Round(10*time.Millisecond))
	}
	s.println("(paper: Cr correlates with scheduling time better than |N| —")
	s.println(" e.g. Pern has more nodes than Ion but ~50x lower scheduling time)")
	return nil
}
