package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"chameleon/internal/chaos"
	"chameleon/internal/monitor"
	"chameleon/internal/traffic"
)

// sortedByKey returns a copy of rows ordered by the given key, so every
// CSV writer emits rows in scenario-key order no matter how the caller
// assembled them (matrix order, completion order, …). The sort is stable:
// rows with equal keys keep their relative order.
func sortedByKey[T any](rows []T, less func(a, b T) bool) []T {
	out := append([]T(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// WriteCaseStudyCSV writes a Fig. 1/6/12-style time series: one row per
// sample with total/dropped/violating rates and per-egress throughput.
func WriteCaseStudyCSV(w io.Writer, m *traffic.Measurement) error {
	cw := csv.NewWriter(w)
	egs := m.Egresses()
	header := []string{"time_s", "delivered_pps", "dropped_pps", "waypoint_violations_pps"}
	for _, e := range egs {
		header = append(header, fmt.Sprintf("egress_n%d_pps", int(e)))
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range m.Samples {
		row := []string{
			formatF(s.Time), formatF(s.Delivered), formatF(s.Dropped),
			formatF(s.WaypointViolations),
		}
		for _, e := range egs {
			row = append(row, formatF(s.PerEgress[e]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSweepCSV writes the Fig. 7 / Fig. 9 / Table 2 sweep results, rows
// sorted by topology name.
func WriteSweepCSV(w io.Writer, outs []SweepOutcome) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"topology", "nodes", "switching", "cr", "rounds", "temp_sessions",
		"scheduling_time_s", "estimated_reconf_time_s", "error",
	}); err != nil {
		return err
	}
	outs = sortedByKey(outs, func(a, b SweepOutcome) bool { return a.Name < b.Name })
	for _, o := range outs {
		errStr := ""
		if o.Err != nil {
			errStr = o.Err.Error()
		}
		if err := cw.Write([]string{
			o.Name, strconv.Itoa(o.Nodes), strconv.Itoa(o.Switching),
			strconv.Itoa(o.Cr), strconv.Itoa(o.R), strconv.Itoa(o.TempSessions),
			formatF(o.SchedulingTime.Seconds()),
			formatF(o.EstimatedReconfTime.Seconds()), errStr,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSpecSweepCSV writes Fig. 8 / Fig. 13 points.
func WriteSpecSweepCSV(w io.Writer, label string, pts []SpecSweepPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"spec", "nphi", "median_s", "p10_s", "p90_s", "runs"}); err != nil {
		return err
	}
	for _, pt := range pts {
		if err := cw.Write([]string{
			label, strconv.Itoa(pt.Nphi),
			formatF(pt.Median.Seconds()), formatF(pt.P10.Seconds()),
			formatF(pt.P90.Seconds()), strconv.Itoa(len(pt.Times)),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteOverheadCSV writes Fig. 10 results, rows sorted by topology name.
func WriteOverheadCSV(w io.Writer, outs []OverheadOutcome) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"topology", "baseline_entries", "chameleon_overhead", "sitn_overhead", "error"}); err != nil {
		return err
	}
	outs = sortedByKey(outs, func(a, b OverheadOutcome) bool { return a.Name < b.Name })
	for _, o := range outs {
		errStr := ""
		if o.Err != nil {
			errStr = o.Err.Error()
		}
		if err := cw.Write([]string{
			o.Name, strconv.Itoa(o.Baseline),
			formatF(o.Chameleon), formatF(o.SITN), errStr,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WritePhaseCSV writes a Fig. 6-style phase timeline.
func WritePhaseCSV(w io.Writer, r *CaseStudyResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"phase", "start_s", "end_s"}); err != nil {
		return err
	}
	for _, ph := range r.Phases {
		if err := cw.Write([]string{ph.Name, formatF(ph.Start.Seconds()), formatF(ph.End.Seconds())}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTimelineCSV writes the monitors' violation timelines: one row per
// violation interval with onset, duration, blast radius, phase and
// root-cause attribution (originating command/event, BGP hop depth, blame
// latency), preceded by one summary row per run. Timelines serialize in
// the order given; violations keep their (deterministic) event order.
func WriteTimelineCSV(w io.Writer, tls ...*monitor.Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"run", "kind", "invariant", "prefix", "start_s", "end_s",
		"duration_s", "tick", "phase", "nodes", "open",
		"cause_kind", "cause", "hop_depth", "blame_s",
	}); err != nil {
		return err
	}
	for _, tl := range tls {
		if tl == nil {
			continue
		}
		if err := cw.Write([]string{
			tl.Name, "summary", "", "", "", "",
			formatF(tl.TotalViolation().Seconds()),
			strconv.Itoa(tl.StatesChecked), "",
			strconv.Itoa(len(tl.Violations)), "",
			"", "", "", "",
		}); err != nil {
			return err
		}
		for _, v := range tl.Violations {
			nodes := make([]string, len(v.Nodes))
			for i, n := range v.Nodes {
				nodes[i] = strconv.Itoa(int(n))
			}
			if err := cw.Write([]string{
				tl.Name, "violation", v.Invariant, strconv.Itoa(int(v.Prefix)),
				formatF(v.Start.Seconds()), formatF(v.End.Seconds()),
				formatF(v.Duration().Seconds()),
				strconv.FormatUint(v.StartTick, 10), v.Phase,
				strings.Join(nodes, " "), strconv.FormatBool(v.Open),
				v.Cause.Kind, v.Cause.Label,
				strconv.Itoa(v.Cause.Hops), formatF(v.Cause.Latency.Seconds()),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ViolationComparison is one row of the Fig. 9-style violation-duration
// table: for one invariant, the union transient violation time of the
// Snowcap baseline against Chameleon's.
type ViolationComparison struct {
	Invariant string
	Snowcap   time.Duration
	Chameleon time.Duration
}

// CompareViolations derives the per-invariant Fig. 9 comparison from a
// case study's two timelines, in the invariant order both monitors share,
// with a trailing "any" row for the union across invariants.
func CompareViolations(r *CaseStudyResult) []ViolationComparison {
	var names []string
	seen := make(map[string]bool)
	for _, tl := range []*monitor.Timeline{r.SnowcapTimeline, r.ChameleonTimeline} {
		if tl == nil {
			continue
		}
		for _, v := range tl.Violations {
			if !seen[v.Invariant] {
				seen[v.Invariant] = true
				names = append(names, v.Invariant)
			}
		}
	}
	sort.Strings(names)
	var out []ViolationComparison
	for _, name := range names {
		c := ViolationComparison{Invariant: name}
		if r.SnowcapTimeline != nil {
			c.Snowcap = r.SnowcapTimeline.ByInvariant(name)
		}
		if r.ChameleonTimeline != nil {
			c.Chameleon = r.ChameleonTimeline.ByInvariant(name)
		}
		out = append(out, c)
	}
	total := ViolationComparison{Invariant: "any"}
	if r.SnowcapTimeline != nil {
		total.Snowcap = r.SnowcapTimeline.TotalViolation()
	}
	if r.ChameleonTimeline != nil {
		total.Chameleon = r.ChameleonTimeline.TotalViolation()
	}
	return append(out, total)
}

// FormatViolationTable renders the Fig. 9-style transient violation
// comparison as a plain-text table.
func FormatViolationTable(r *CaseStudyResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %14s\n", "invariant", "snowcap", "chameleon")
	b.WriteString(strings.Repeat("-", 42) + "\n")
	for _, c := range CompareViolations(r) {
		fmt.Fprintf(&b, "%-12s %13.3fs %13.3fs\n",
			c.Invariant, c.Snowcap.Seconds(), c.Chameleon.Seconds())
	}
	return b.String()
}

// FormatMeasurementSeries renders one run's traffic measurement for the
// Fig. 1 printout: about a dozen samples of delivered, dropped and
// waypoint-violating packets with the per-egress split, then the totals.
func FormatMeasurementSeries(label string, d time.Duration, m *traffic.Measurement) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: duration %.1f s\n", label, d.Seconds())
	egs := m.Egresses()
	fmt.Fprintf(&b, "  %8s  %10s  %10s  %8s", "time[s]", "total", "dropped", "wayp.viol")
	for _, e := range egs {
		fmt.Fprintf(&b, "  egress-n%d", int(e))
	}
	b.WriteString("\n")
	step := len(m.Samples)/12 + 1
	for i := 0; i < len(m.Samples); i += step {
		s := m.Samples[i]
		fmt.Fprintf(&b, "  %8.2f  %10.0f  %10.0f  %8.0f", s.Time, s.Delivered, s.Dropped, s.WaypointViolations)
		for _, e := range egs {
			fmt.Fprintf(&b, "  %9.0f", s.PerEgress[e])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  totals: dropped %.0f pkt, waypoint violations %.0f pkt, violation window %.2f s\n",
		m.TotalDropped, m.TotalViolations, m.ViolationSeconds)
	return b.String()
}

// WriteChaosCSV writes one row per chaos case: the fault matrix cell, its
// outcome, and the full fault/recovery accounting. Rows are sorted by the
// (topology, fault, seed) case key, so the file is stable regardless of the
// order the sweep produced them in.
func WriteChaosCSV(w io.Writer, results []chaos.CaseResult) error {
	results = sortedByKey(results, func(a, b chaos.CaseResult) bool {
		if a.Topology != b.Topology {
			return a.Topology < b.Topology
		}
		if a.Fault != b.Fault {
			return a.Fault < b.Fault
		}
		return a.Seed < b.Seed
	})
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"topology", "fault", "seed", "outcome", "sim_duration_s", "rounds",
		"commands", "cmd_faults", "msg_faults", "flaps",
		"retries", "repushes", "escalations", "acks_lost", "monitor_alarms",
		"violations", "transient_violation_s", "fingerprint", "error",
	}); err != nil {
		return err
	}
	for _, r := range results {
		if err := cw.Write([]string{
			r.Topology, r.Fault, strconv.FormatUint(r.Seed, 10),
			r.Outcome.String(), formatF(r.SimDuration.Seconds()),
			strconv.Itoa(r.Rounds), strconv.Itoa(r.CommandsApplied),
			strconv.Itoa(r.CommandFaults), strconv.Itoa(r.MessageFaults),
			strconv.Itoa(r.Flaps),
			strconv.Itoa(r.Recovery.Retries), strconv.Itoa(r.Recovery.Repushes),
			strconv.Itoa(r.Recovery.Escalations), strconv.Itoa(r.Recovery.AcksLost),
			strconv.Itoa(r.Recovery.MonitorAlarms),
			strings.Join(r.Violations, "; "),
			formatF(r.TransientViolationTime.Seconds()),
			strconv.FormatUint(r.Fingerprint, 16), r.Err,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FormatChaosTable renders the per-fault-kind sweep summary (faults
// injected, retries, recoveries, escalations) as a plain-text table.
func FormatChaosTable(sums []chaos.Summary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %5s %6s %6s %6s %6s %5s | %7s %7s %7s %8s %8s %6s %6s\n",
		"fault", "runs", "clean", "recov", "degr", "abort", "VIOL",
		"cmdflt", "msgflt", "flaps", "retries", "repush", "escal", "acks-")
	b.WriteString(strings.Repeat("-", 110) + "\n")
	for _, s := range sums {
		fmt.Fprintf(&b, "%-10s %5d %6d %6d %6d %6d %5d | %7d %7d %7d %8d %8d %6d %6d\n",
			s.Fault, s.Runs, s.Clean, s.Recovered, s.Degraded, s.Aborted, s.Violations,
			s.CommandFaults, s.MessageFaults, s.Flaps,
			s.Retries, s.Repushes, s.Escalations, s.AcksLost)
	}
	return b.String()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
