package obs

// Counter inventory. Every instrumented package increments these names so
// dumps, dashboards and the reconciliation tests agree on spelling; the
// semantics are documented in DESIGN.md §9.
const (
	// Solver effort (scheduler / milp).
	CtrMILPNodes         = "milp_nodes_explored"
	CtrMILPPropagations  = "milp_propagations"
	CtrMILPLPBounds      = "milp_lp_bounds" // never incremented: LP bounding is deleted; the frozen benchmark/plan.go reads it
	CtrSchedRoundsTried  = "sched_rounds_tried"
	CtrSchedSolvesOK     = "sched_solves_feasible"
	CtrSchedSolvesInfeas = "sched_solves_infeasible"

	// BGP substrate (sim). CtrSimEvents counts every processed simulator
	// event (message deliveries and scheduled functions alike) — the
	// denominator of event-throughput benchmarks.
	CtrSimEvents         = "sim_events_processed"
	CtrBGPUpdates        = "bgp_messages_update"
	CtrBGPWithdraws      = "bgp_messages_withdraw"
	CtrCommandsScheduled = "sim_commands_scheduled"
	CtrCommandsCancelled = "sim_commands_cancelled"
	CtrSessionsOpened    = "sessions_opened"
	CtrSessionsClosed    = "sessions_closed"

	// Fault layer (sim / chaos).
	CtrFaultsCommand = "faults_injected_command"
	CtrFaultsMessage = "faults_injected_message"
	CtrFaultsHealed  = "faults_healed"

	// Runtime controller.
	CtrExecCommandsPushed = "exec_commands_pushed"
	CtrExecRetries        = "exec_retries"
	CtrExecRepushes       = "exec_repushes"
	CtrExecEscalations    = "exec_escalations"
	CtrExecAcksLost       = "exec_acks_lost"
	CtrExecMonitorAlarms  = "exec_monitor_alarms"

	// Chaos harness.
	CtrChaosCases      = "chaos_cases"
	CtrChaosViolations = "chaos_violations"

	// Closed-loop supervisor. CtrSupJournalBytes counts bytes appended to
	// the execution journal (the WAL the supervisor replays after a crash);
	// the others count recovery decisions per degradation-ladder rung.
	CtrSupReplans      = "sup_replans"
	CtrSupCommits      = "sup_commits"
	CtrSupRollbacks    = "sup_rollbacks"
	CtrSupJournalBytes = "sup_journal_bytes"

	// Class-decomposed planning. CtrPlanClasses counts the prefix
	// equivalence classes a plan was decomposed into (one increment of n
	// per Plan call); CtrClassSolverNodes counts branch-and-bound nodes
	// attributed to per-class scheduling, recorded on each class span so
	// dumps show how the global budget was actually spent.
	CtrPlanClasses      = "plan_classes"
	CtrClassSolverNodes = "class_solver_nodes"

	// Transient-state monitor. Violation time is recorded in integer
	// nanoseconds of simulated time (counters are int64; the unit is part
	// of the name so dumps stay self-describing).
	CtrMonitorStatesChecked = "monitor_states_checked"
	CtrMonitorViolations    = "monitor_violations"
	CtrMonitorViolationTime = "monitor_violation_time_ns"
)

// Histogram inventory (Recorder.Observe; log-bucketed powers of two, see
// hist.go). The monitor observes all three once per closed violation.
// Units, where any, are part of the name.
const (
	// HistBlameLatency is simulated time from a violation's root cause
	// firing to the violation's onset.
	HistBlameLatency = "monitor_blame_latency_ns"
	// HistViolationDuration is each violation's duration in simulated time.
	HistViolationDuration = "monitor_violation_duration_ns"
	// HistHopDepth is the BGP propagation hop depth at violation onset.
	HistHopDepth = "monitor_violation_hop_depth"
)
