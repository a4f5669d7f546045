package main

// metricDef names one reported metric. BENCHMARK.json spells the same names,
// units and directions; names_test.go fails when the two drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Exact metrics are counts or simulated quantities: two runs with the
	// same seed report them bit for bit.
	Exact bool
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"plan-zoo", "Facade path on 86 Zoo topologies + 8 multi-prefix entries: many short solves, scheduler/milp do ~95 % of the work."},
	{"plan-hard", "Same pipeline layer by layer on 5 entries that need the retry ladder or the Eq. 4 spec: deep branch-and-bound under binding node budgets."},
	{"exec-replay", "Replays 29 precomputed plans on cloned networks under a monitor, every 4th op with command drops: runtime/sim/monitor do all the work, scheduler none."},
	{"prefix-storm", "What-if probes on a 20k-prefix table beside batched and route-by-route 10k-prefix storms: clone cost, bulk writes and RSS dominate."},
}

// endToEndDefs are measured with tracing off, the same names on every
// workload, none ever 0.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", false},
	{"ops_per_s", "1/s", "higher", false},
	{"op_p50_ms", "ms", "lower", false},
	{"op_tail_ms", "ms", "lower", false},
	{"peak_rss_mb", "MiB", "lower", false},
	{"alloc_mb_per_op", "MB", "lower", false},
	{"phases_mean", "phases", "lower", true},
}

// perLayerDefs are measured in the traced run only. Times are benchmark-side
// span self times summed per op, then the median over ops; counts are means
// per op, so they repeat exactly.
var perLayerDefs = []metricDef{
	{"scenario.build_ms", "ms", "lower", false},
	{"scenario.sim_events", "count", "lower", true},
	{"analyzer.busy_ms", "ms", "lower", false},
	{"analyzer.classes", "count", "lower", true},
	{"analyzer.cr", "count", "lower", true},
	{"analyzer.switching_nodes", "count", "lower", true},
	{"scheduler.busy_ms", "ms", "lower", false},
	{"scheduler.share", "ratio", "lower", false},
	{"scheduler.rounds_tried", "count", "lower", true},
	{"scheduler.solves_feasible", "count", "lower", true},
	{"scheduler.solves_infeasible", "count", "lower", true},
	{"scheduler.solves_undecided", "count", "lower", true},
	{"scheduler.useful_solve_share", "ratio", "higher", true},
	{"scheduler.vars", "count", "lower", true},
	{"scheduler.constraints", "count", "lower", true},
	{"scheduler.temp_sessions", "count", "lower", true},
	{"milp.nodes", "count", "lower", true},
	{"milp.propagations", "count", "lower", true},
	{"milp.ns_per_node", "ns", "lower", false},
	{"milp.props_per_node", "ratio", "lower", true},
	{"lp.pivots", "count", "lower", true},
	{"lp.bounds", "count", "lower", true},
	{"plan.compile_ms", "ms", "lower", false},
	{"plan.align_ms", "ms", "lower", false},
	{"plan.commands", "count", "lower", true},
	{"plan.steps", "count", "lower", true},
	{"runtime.exec_ms", "ms", "lower", false},
	{"runtime.exec_faulted_ms", "ms", "lower", false},
	{"runtime.commands_pushed", "count", "lower", true},
	{"runtime.retries", "count", "lower", true},
	{"runtime.sim_seconds", "s", "lower", true},
	{"sim.clone_ms", "ms", "lower", false},
	{"sim.events", "count", "lower", true},
	{"sim.events_per_s", "1/s", "higher", false},
	{"sim.bgp_messages", "count", "lower", true},
	{"sim.whatif_ms", "ms", "lower", false},
	{"sim.storm_batched_ms", "ms", "lower", false},
	{"sim.storm_routes_ms", "ms", "lower", false},
	{"bgp.table_entries", "count", "lower", true},
	{"bgp.routes_per_s", "1/s", "higher", false},
	{"monitor.states_checked", "count", "lower", true},
	{"monitor.violations", "count", "lower", true},
	{"monitor.cost_pct", "%", "lower", false},
	{"spec.verify_ms", "ms", "lower", false},
	{"obs.trace_overhead_pct", "%", "lower", false},
	{"obs.spans", "count", "lower", true},
}
