package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"chameleon/internal/chaos"
	"chameleon/internal/milp"
	"chameleon/internal/runtime"
	"chameleon/internal/scenario"
	"chameleon/internal/scheduler"
	"chameleon/internal/topology"
)

func TestStatsPercentiles(t *testing.T) {
	d := NewDist([]float64{4, 1, 3, 2, 5})
	if m := d.Median(); m != 3 {
		t.Errorf("Median = %v, want 3", m)
	}
	if p := d.Percentile(0); p != 1 {
		t.Errorf("P0 = %v, want 1", p)
	}
	if p := d.Percentile(100); p != 5 {
		t.Errorf("P100 = %v, want 5", p)
	}
	if p := d.Percentile(25); p != 2 {
		t.Errorf("P25 = %v, want 2", p)
	}
	if NewDist(nil).Percentile(50) != 0 {
		t.Error("empty percentile should be 0")
	}
	if m := Mean([]float64{2, 4}); m != 3 {
		t.Errorf("Mean = %v", m)
	}
}

// TestCDFAndFractionBelow reads the empirical CDF off FractionBelow: at each
// distinct sample it is the share of samples at or below it.
func TestCDFAndFractionBelow(t *testing.T) {
	d := NewDist([]float64{1, 2, 2, 3})
	for _, c := range []struct{ x, want float64 }{{1, 0.25}, {2, 0.75}, {3, 1}, {0.5, 0}, {2.5, 0.75}} {
		if f := d.FractionBelow(c.x); f != c.want {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, f, c.want)
		}
	}
}

func TestPearsonLogLog(t *testing.T) {
	// y = x^2 in log-log space is perfectly linear: correlation 1.
	var xs, ys []float64
	for x := 1.0; x <= 64; x *= 2 {
		xs = append(xs, x)
		ys = append(ys, x*x)
	}
	if r := PearsonLogLog(xs, ys); math.Abs(r-1) > 1e-9 {
		t.Errorf("correlation = %v, want 1", r)
	}
	if r := PearsonLogLog(nil, nil); r != 0 {
		t.Errorf("empty correlation = %v", r)
	}
}

func TestSampleNodesDeterministic(t *testing.T) {
	g := topology.MustZoo("Aarnet")
	a := SampleNodes(g, 5, 42)
	b := SampleNodes(g, 5, 42)
	if len(a) != 5 {
		t.Fatalf("got %d nodes", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SampleNodes not deterministic")
		}
	}
	seen := map[topology.NodeID]bool{}
	for _, n := range a {
		if seen[n] {
			t.Fatal("duplicate node sampled")
		}
		seen[n] = true
	}
	if got := SampleNodes(g, 10_000, 1); len(got) != len(g.Internal()) {
		t.Errorf("oversampling returned %d nodes", len(got))
	}
}

func TestRunCaseStudyAbilene(t *testing.T) {
	res, err := RunCaseStudyCtx(context.Background(), "Abilene", 7)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 1's headline claims: Snowcap drops packets and/or violates the
	// waypoint spec transiently; Chameleon is perfectly clean and slower.
	if res.Snowcap.Clean() {
		t.Error("Snowcap run was clean — transient violations expected")
	}
	if !res.Chameleon.Clean() {
		t.Errorf("Chameleon run violated: dropped=%.0f viol=%.0f",
			res.Chameleon.TotalDropped, res.Chameleon.TotalViolations)
	}
	if res.ChameleonDuration <= res.SnowcapDuration {
		t.Errorf("Chameleon (%v) should be slower than Snowcap (%v)",
			res.ChameleonDuration, res.SnowcapDuration)
	}
	// Fig. 6's structure: setup + R rounds + cleanup phases.
	if len(res.Phases) != res.R+2 {
		t.Errorf("phases = %d, want R+2 = %d", len(res.Phases), res.R+2)
	}
}

func TestSweepSchedulingSmall(t *testing.T) {
	names := []string{"Abilene", "Basnet", "Epoch"}
	outs, err := SweepSchedulingCtx(context.Background(), names, 7, scheduler.DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes", len(outs))
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Errorf("%s: %v", o.Name, o.Err)
			continue
		}
		if o.Cr <= 0 || o.R <= 0 || o.SchedulingTime <= 0 {
			t.Errorf("%s: incomplete outcome %+v", o.Name, o)
		}
		if o.EstimatedReconfTime != time.Duration(2+o.R)*12*time.Second {
			t.Errorf("%s: T̃ mismatch", o.Name)
		}
	}
}

func TestSpecComplexitySweepSmall(t *testing.T) {
	pts, err := SpecComplexitySweepCtx(context.Background(), "Abilene", true, true, []float64{0, 1}, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Nphi != 0 || pts[1].Nphi != 11 {
		t.Errorf("Nphi = %d, %d", pts[0].Nphi, pts[1].Nphi)
	}
	for _, pt := range pts {
		if len(pt.Times) != 2 || pt.Median <= 0 {
			t.Errorf("point %+v incomplete", pt)
		}
	}
}

func TestSweepTableOverheadSmall(t *testing.T) {
	outs, err := SweepTableOverheadCtx(context.Background(), []string{"Abilene", "Sprint"}, 7, scheduler.DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Err != nil {
			t.Errorf("%s: %v", o.Name, o.Err)
			continue
		}
		// Chameleon's overhead must be far below SITN's near-doubling.
		if o.SITN < 0.5 {
			t.Errorf("%s: SITN overhead %.2f, want ≈ 1", o.Name, o.SITN)
		}
		if o.Chameleon >= o.SITN {
			t.Errorf("%s: Chameleon overhead %.2f not below SITN %.2f", o.Name, o.Chameleon, o.SITN)
		}
		if o.Chameleon < 0 || o.Chameleon > 0.6 {
			t.Errorf("%s: Chameleon overhead %.2f outside plausible range", o.Name, o.Chameleon)
		}
	}
}

// TestDualPlaneTableDuplication checks the SITN table size the Fig. 10
// sweep reads: the initial and the final plane side by side hold about
// twice the entries of one plane, and FinalNetwork leaves the initial
// network as it was.
func TestDualPlaneTableDuplication(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	oldOnly := s.Net.TableEntries()
	total := oldOnly + s.FinalNetwork().TableEntries()
	if s.Net.TableEntries() != oldOnly {
		t.Errorf("FinalNetwork changed the initial table: %d entries, was %d", s.Net.TableEntries(), oldOnly)
	}
	// SITN runs both control planes: entries ≈ double the baseline (the
	// paper reports 96% overhead in the median).
	if total < oldOnly+oldOnly/2 {
		t.Errorf("dual-plane entries %d vs single %d: duplication missing", total, oldOnly)
	}
}

// TestOverheadMetric checks that one scenario's SITN overhead is the
// dual-plane size relative to the baseline maximum, and that a scenario
// that cannot be built reports its error.
func TestOverheadMetric(t *testing.T) {
	s, err := scenario.CaseStudy("Abilene", scenario.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dual := s.Net.TableEntries() + s.FinalNetwork().TableEntries()
	o := overheadOutcome(context.Background(), "Abilene", 7, scheduler.DefaultOptions())
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Baseline <= 0 {
		t.Fatalf("baseline maximum %d entries, want > 0", o.Baseline)
	}
	if want := float64(dual-o.Baseline) / float64(o.Baseline); o.SITN != want {
		t.Errorf("SITN overhead = %v, want %v (dual plane %d, baseline %d)", o.SITN, want, dual, o.Baseline)
	}
	if o.SITN <= 0.5 {
		t.Errorf("SITN overhead = %v, want close to 1 (≈ doubling)", o.SITN)
	}
	if bad := overheadOutcome(context.Background(), "NoSuchTopology", 7, scheduler.DefaultOptions()); bad.Err == nil {
		t.Error("unknown topology yields no error")
	}
}

func TestRunLinkFailureExperiment(t *testing.T) {
	res, err := RunLinkFailureExperimentCtx(context.Background(), "Abilene", 7, 7*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The reconfiguration completes; transient loss (if any) stays small
	// (the paper reports ≈0.5 s of OSPF reconvergence loss).
	if res.Measurement.ViolationSeconds > 2.0 {
		t.Errorf("violation window %.2f s, want < 2 s", res.Measurement.ViolationSeconds)
	}
}

func TestRunNewRouteExperiment(t *testing.T) {
	res, err := RunNewRouteExperimentCtx(context.Background(), "Abilene", 7, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ConvergedToE4 {
		t.Error("network did not adopt the e4 route after cleanup")
	}
	// The announcement meets the pinned transient state: it lands inside a
	// round, not in a drain that idles up to it.
	at, in := res.Result.Start+30*time.Second, ""
	for _, ph := range res.Result.Phases {
		if ph.Start < at && at <= ph.End {
			in = ph.Name
		}
	}
	if !strings.HasPrefix(in, "round ") {
		t.Errorf("announcement at %v delivered in %q, want a round; phases %v", at, in, res.Result.Phases)
	}
}

func TestRunCaseStudyHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCaseStudyCtx(ctx, "Abilene", 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExperimentsHonourContext: the Fig. 8/13 sweep and both Fig. 11
// experiments stop on the caller's cancelled context.
func TestExperimentsHonourContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() error{
		"SpecComplexitySweepCtx": func() error {
			_, err := SpecComplexitySweepCtx(ctx, "Abilene", true, true, []float64{0}, 1, 7)
			return err
		},
		"RunLinkFailureExperimentCtx": func() error {
			_, err := RunLinkFailureExperimentCtx(ctx, "Abilene", 7, 7*time.Second)
			return err
		},
		"RunNewRouteExperimentCtx": func() error {
			_, err := RunNewRouteExperimentCtx(ctx, "Abilene", 7, 30*time.Second)
			return err
		},
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestAsciiCDF(t *testing.T) {
	out := AsciiCDF("test", "s", []float64{1, 2, 3}, []float64{2})
	if out == "" {
		t.Fatal("empty output")
	}
	if AsciiCDF("empty", "s", nil, nil) == "" {
		t.Fatal("empty-data output missing")
	}
}

func TestCSVWriters(t *testing.T) {
	res, err := RunCaseStudyCtx(context.Background(), "Abilene", 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteCaseStudyCSV(&buf, res.Chameleon); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "time_s,") {
		t.Errorf("case study CSV malformed: %q", lines[0])
	}

	buf.Reset()
	outs, err := SweepSchedulingCtx(context.Background(), []string{"Basnet"}, 7, scheduler.DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepCSV(&buf, outs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Basnet") {
		t.Error("sweep CSV missing topology row")
	}
	buf.Reset()
	if err := WriteLedgerCSV(&buf, outs); err != nil {
		t.Fatal(err)
	}
	if o := outs[0]; buf.String() != fmt.Sprintf("%sBasnet,%d,%d,%d,%d,%d,%d,%d,%v,%v,\n", ledgerHeader,
		o.Nodes, o.Switching, o.Cr, o.R, o.TempSessions, o.SolverNodes, o.Propagations, o.ObjectiveOpt, o.RProven) || o.SolverNodes == 0 {
		t.Errorf("ledger CSV:\n%s", buf.String())
	}

	buf.Reset()
	pts, err := SpecComplexitySweepCtx(context.Background(), "Basnet", false, true, []float64{0}, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSpecSweepCSV(&buf, "phi_n", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "phi_n") {
		t.Error("spec sweep CSV missing label")
	}

	buf.Reset()
	ov, err := SweepTableOverheadCtx(context.Background(), []string{"Basnet"}, 7, scheduler.DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteOverheadCSV(&buf, ov); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Basnet") {
		t.Error("overhead CSV missing row")
	}

	buf.Reset()
	if err := WritePhaseCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "phase,start_s,end_s" || len(lines) != len(res.Phases)+1 {
		t.Errorf("phase CSV malformed: %d lines for %d phases, header %q", len(lines), len(res.Phases), lines[0])
	}
}

func TestChaosReport(t *testing.T) {
	results := []chaos.CaseResult{
		{
			Topology: "Abilene", Fault: "drop", Seed: 1,
			Outcome: chaos.OutcomeRecovered, SimDuration: 90 * time.Second,
			Rounds: 3, CommandsApplied: 12, CommandFaults: 5,
			Recovery:    runtime.RecoveryStats{Retries: 5},
			Fingerprint: 0xdeadbeef,
		},
		{
			Topology: "Abilene", Fault: "flap", Seed: 1,
			Outcome: chaos.OutcomeDegraded, Flaps: 2,
			Recovery:   runtime.RecoveryStats{MonitorAlarms: 1},
			Violations: nil,
		},
	}
	var buf strings.Builder
	if err := WriteChaosCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "topology,fault,seed,outcome") {
		t.Errorf("chaos CSV malformed: %q", lines)
	}
	if !strings.Contains(lines[1], "recovered") || !strings.Contains(lines[1], "deadbeef") {
		t.Errorf("chaos CSV row missing fields: %q", lines[1])
	}

	sums := []chaos.Summary{
		{Fault: "none", Runs: 3, Clean: 3},
		{Fault: "drop", Runs: 3, Recovered: 3, CommandFaults: 46, Retries: 46},
	}
	table := FormatChaosTable(sums)
	for _, want := range []string{"fault", "drop", "46"} {
		if !strings.Contains(table, want) {
			t.Errorf("chaos table missing %q:\n%s", want, table)
		}
	}
}

const ledgerHeader = "topology,nodes,switching,cr,rounds,temp_sessions,solver_nodes,propagations,objective_proven,r_proven,error\n"

// TestFailedScanInLedger: a scan that finds no schedule still spent solver
// effort, and its ledger line shows it beside the error. Two nodes per round
// count are too few for any R on Basnet.
func TestFailedScanInLedger(t *testing.T) {
	opts := scheduler.DefaultOptions()
	opts.SolverNodeBudget = 2
	outs, err := SweepSchedulingCtx(context.Background(), []string{"Basnet"}, 7, opts, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := outs[0]
	if !errors.Is(o.Err, milp.ErrTimeout) || o.SolverNodes == 0 || o.Propagations == 0 || o.RProven {
		t.Fatalf("err %v, %d nodes, %d propagations, r_proven %v; want a timeout, its effort and R unproven", o.Err, o.SolverNodes, o.Propagations, o.RProven)
	}
	var buf strings.Builder
	if err := WriteLedgerCSV(&buf, outs); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%sBasnet,%d,%d,%d,0,0,%d,%d,false,false,%s\n", ledgerHeader,
		o.Nodes, o.Switching, o.Cr, o.SolverNodes, o.Propagations, o.Err)
	if buf.String() != want {
		t.Errorf("ledger CSV:\n%s\nwant\n%s", buf.String(), want)
	}
}
