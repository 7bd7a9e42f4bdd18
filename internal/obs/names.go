package obs

import "fmt"

// Canonical metric names. The live cluster engine and the simulator
// record the same names so their telemetry is directly comparable;
// DESIGN.md §10 is the authoritative catalogue.
const (
	// DecisionLatencySeconds is the wall-clock histogram of one full
	// OnIterationFinish round trip (estimate → classify → allocate).
	DecisionLatencySeconds = "hyperdrive_decision_latency_seconds"
	// MCMCFitsTotal counts learning-curve posterior fits.
	MCMCFitsTotal = "hyperdrive_mcmc_fits_total"
	// MCMCFitDurationSeconds is the wall-clock histogram of one MCMC
	// ensemble fit.
	MCMCFitDurationSeconds = "hyperdrive_mcmc_fit_duration_seconds"
	// MCMCFitErrorsTotal counts fits that returned an error.
	MCMCFitErrorsTotal = "hyperdrive_mcmc_fit_errors_total"
	// MCMCAcceptRate is the last fit's MCMC acceptance rate.
	MCMCAcceptRate = "hyperdrive_mcmc_accept_rate"
	// MCMCParallelWorkers gauges the worker-pool size the sampler fans
	// logPosterior evaluations across (1 = fully serial). Results are
	// bit-identical for every value; the gauge exists so measured fit
	// latency can be read against the parallelism that produced it.
	MCMCParallelWorkers = "hyperdrive_mcmc_parallel_workers"

	// EpochsTotal counts completed training epochs across all jobs.
	EpochsTotal = "hyperdrive_epochs_total"
	// EpochDurationSeconds is the experiment-clock histogram of epoch
	// durations (the inverse of per-slot epochs-per-second).
	EpochDurationSeconds = "hyperdrive_epoch_duration_seconds"

	// StartsTotal / ResumesTotal / SuspendsTotal / TerminationsTotal /
	// CompletionsTotal count job lifecycle transitions.
	StartsTotal       = "hyperdrive_starts_total"
	ResumesTotal      = "hyperdrive_resumes_total"
	SuspendsTotal     = "hyperdrive_suspends_total"
	TerminationsTotal = "hyperdrive_terminations_total"
	CompletionsTotal  = "hyperdrive_completions_total"

	// SlotsTotal / SlotsBusy track the machine pool.
	SlotsTotal = "hyperdrive_slots_total"
	SlotsBusy  = "hyperdrive_slots_busy"
	// PoolPromisingSlots / PoolOpportunisticSlots split the pool into
	// POP's exploitation and exploration shares (§3.2).
	PoolPromisingSlots     = "hyperdrive_pool_promising_slots"
	PoolOpportunisticSlots = "hyperdrive_pool_opportunistic_slots"
	// PoolPromisingJobs / PoolOpportunisticJobs count classified jobs.
	PoolPromisingJobs     = "hyperdrive_pool_promising_jobs"
	PoolOpportunisticJobs = "hyperdrive_pool_opportunistic_jobs"
	// ClassificationThreshold is POP's dynamically chosen p_thred.
	ClassificationThreshold = "hyperdrive_classification_threshold"

	// JobsActive / JobsSuspended gauge the job table.
	JobsActive    = "hyperdrive_jobs_active"
	JobsSuspended = "hyperdrive_jobs_suspended"
	// BestMetric is the best raw metric observed so far.
	BestMetric = "hyperdrive_best_metric"

	// EventLogDroppedTotal counts event-log records lost to write
	// errors (a dead log is visible instead of silent).
	EventLogDroppedTotal = "hyperdrive_eventlog_dropped_total"

	// AgentJobsRunning / AgentStatsTotal / AgentSnapshotsTotal are the
	// node agent's view of its own slots.
	AgentJobsRunning    = "hyperdrive_agent_jobs_running"
	AgentStatsTotal     = "hyperdrive_agent_stats_total"
	AgentSnapshotsTotal = "hyperdrive_agent_snapshots_total"

	// SlotsOffline gauges slots quarantined because their agent is
	// unreachable: capacity the scheduler knows it must not use.
	SlotsOffline = "hyperdrive_slots_offline"
	// AgentFailuresTotal counts agent-down declarations (missed
	// heartbeats or connection loss).
	AgentFailuresTotal = "hyperdrive_agent_failures_total"
	// JobReplacementsTotal counts jobs lost with a usable snapshot that
	// were re-queued for resumption on a healthy slot instead of being
	// terminated.
	JobReplacementsTotal = "hyperdrive_job_replacements_total"
	// HeartbeatRTTSeconds is the scheduler-side histogram of
	// ping→pong round-trip times to node agents.
	HeartbeatRTTSeconds = "hyperdrive_heartbeat_rtt_seconds"

	// GoGoroutines / GoHeapBytes / GoGCPauseSeconds are the runtime
	// health samples taken by StartRuntimeSampler: goroutine count,
	// live heap bytes, and the GC stop-the-world pause distribution.
	GoGoroutines     = "hyperdrive_go_goroutines"
	GoHeapBytes      = "hyperdrive_go_heap_bytes"
	GoGCPauseSeconds = "hyperdrive_go_gc_pause_seconds"

	// FlightSpansDroppedTotal counts spans the flight recorder evicted
	// past its bounds (global ring wrap + per-live-job cap overflow).
	FlightSpansDroppedTotal = "hyperdrive_flight_spans_dropped_total"

	// QualityPredictionsTotal counts decision-time predictions captured
	// by the search-quality audit trail.
	QualityPredictionsTotal = "hyperdrive_quality_predictions_total"
	// QualityPredictionsDroppedTotal counts predictions discarded past
	// the audit's bound (the trail is bounded, never silent).
	QualityPredictionsDroppedTotal = "hyperdrive_quality_predictions_dropped_total"
	// QualityOutcomesTotal counts realized job outcomes joined against
	// the prediction trail.
	QualityOutcomesTotal = "hyperdrive_quality_outcomes_total"
	// QualityClassChurnTotal counts pool-classification changes
	// (promising <-> opportunistic <-> poor flips across decisions).
	QualityClassChurnTotal = "hyperdrive_quality_class_churn_total"
	// QualityBrierScore gauges the running Brier score of reach-target
	// confidence against realized (or oracle) outcomes; lower is better.
	QualityBrierScore = "hyperdrive_quality_brier_score"
	// QualityBandCoverageRatio gauges the fraction of realized final
	// metrics that landed inside the predicted credible band.
	QualityBandCoverageRatio = "hyperdrive_quality_band_coverage_ratio"
	// QualityERTAbsErrorSeconds is the histogram of |predicted ERT -
	// actual remaining training time| for jobs whose ground truth is
	// known.
	QualityERTAbsErrorSeconds = "hyperdrive_quality_ert_abs_error_seconds"
	// QualityEarlyTermPrecision / QualityEarlyTermRecall gauge the
	// early-termination confusion against oracle ground truth:
	// precision = terminated jobs that truly would not have reached the
	// target; recall = truly-poor jobs the scheduler terminated.
	QualityEarlyTermPrecision = "hyperdrive_quality_early_term_precision"
	QualityEarlyTermRecall    = "hyperdrive_quality_early_term_recall"
)

// DecisionsTotal returns the labeled series name counting
// OnIterationFinish verdicts, e.g.
// hyperdrive_decisions_total{decision="suspend"}.
func DecisionsTotal(decision string) string {
	return fmt.Sprintf(`hyperdrive_decisions_total{decision=%q}`, decision)
}

// SlotEpochsPerSecond returns the labeled per-slot training-rate gauge
// name, e.g. hyperdrive_slot_epochs_per_second{slot="s0"}.
func SlotEpochsPerSecond(slot string) string {
	return fmt.Sprintf(`hyperdrive_slot_epochs_per_second{slot=%q}`, slot)
}

// AgentUp returns the labeled liveness gauge name for one agent, e.g.
// hyperdrive_agent_up{agent="a1"}: 1 while the supervisor holds a
// healthy connection, 0 while the agent is down/reconnecting.
func AgentUp(agent string) string {
	return fmt.Sprintf(`hyperdrive_agent_up{agent=%q}`, agent)
}

// AgentReconnectsTotal returns the labeled counter name of successful
// re-handshakes to one agent, e.g.
// hyperdrive_agent_reconnects_total{agent="a1"}.
func AgentReconnectsTotal(agent string) string {
	return fmt.Sprintf(`hyperdrive_agent_reconnects_total{agent=%q}`, agent)
}

// Multi-tenant service (hyperdrived) metric names.
const (
	// ServeExperimentsActive gauges how many hosted experiments are
	// currently running or paused in the server.
	ServeExperimentsActive = "hyperdrive_serve_experiments_active"
	// ServeExperimentsTotal counts experiments admitted since boot.
	ServeExperimentsTotal = "hyperdrive_serve_experiments_total"
	// ServeAdmissionRejectsTotal counts submissions refused by
	// admission control (max-experiments cap or slot budget), i.e. the
	// 429s that carry a Retry-After.
	ServeAdmissionRejectsTotal = "hyperdrive_serve_admission_rejects_total"
	// ServeRateLimitedTotal counts API requests refused by the
	// per-tenant token bucket.
	ServeRateLimitedTotal = "hyperdrive_serve_rate_limited_total"
	// ServeRequestsTotal counts API requests that passed rate limiting.
	ServeRequestsTotal = "hyperdrive_serve_requests_total"
	// ServeSubmitToDecisionSeconds is the histogram of wall-clock time
	// from an experiment's admission to its first scheduling decision —
	// the service-level "how long until the scheduler is actually
	// working on my experiment" latency.
	ServeSubmitToDecisionSeconds = "hyperdrive_serve_submit_to_decision_seconds"
)

// Fleet observability (hyperdrived server-wide telemetry) names.
const (
	// ServeHTTPInFlight gauges API requests currently being handled.
	ServeHTTPInFlight = "hyperdrive_serve_http_in_flight"
	// ServeFairshareAttainment is the histogram of held/share ratios
	// sampled across active leases: 1.0 means a lease holds exactly its
	// fair share, mass below 1 means tenants run under their entitlement
	// (contention), mass above 1 means borrowing of idle capacity.
	ServeFairshareAttainment = "hyperdrive_serve_fairshare_attainment"
	// ServeStarvedLeases gauges how many active leases are currently
	// starved: below fair share with demand the pool is not meeting.
	ServeStarvedLeases = "hyperdrive_serve_starved_leases"
	// ServeLeaseReleaseMismatchTotal counts ReleaseMachine calls on
	// slots the lease did not hold — always a caller bug, previously an
	// uncounted error return.
	ServeLeaseReleaseMismatchTotal = "hyperdrive_serve_lease_release_mismatch_total"
)

// AttainmentBuckets is the bucket layout for the fair-share attainment
// histogram: fine resolution below 1 (under-share severity), coarse
// above (borrowing multiples).
var AttainmentBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.25, 1.5, 2, 4}

// ServeHTTPRequestSeconds returns the labeled per-route API latency
// histogram name, e.g. hyperdrive_serve_http_request_seconds{route="submit"}.
func ServeHTTPRequestSeconds(route string) string {
	return fmt.Sprintf(`hyperdrive_serve_http_request_seconds{route=%q}`, route)
}

// ServeHTTPResponsesTotal returns the labeled status-class counter
// name, e.g. hyperdrive_serve_http_responses_total{class="2xx"}.
func ServeHTTPResponsesTotal(class string) string {
	return fmt.Sprintf(`hyperdrive_serve_http_responses_total{class=%q}`, class)
}

// ServeFeedDroppedTotal returns the labeled per-experiment counter of
// event records the server shed for that experiment: router overflow
// on lossy kinds plus feed-ring evictions past the retention bound.
func ServeFeedDroppedTotal(experiment string) string {
	return fmt.Sprintf(`hyperdrive_serve_feed_dropped_total{experiment=%q}`, experiment)
}

// ServeLeaseHeld returns the labeled gauge of slots a tenant's leases
// hold right now, e.g. hyperdrive_serve_lease_held{tenant="a"}.
func ServeLeaseHeld(tenant string) string {
	return fmt.Sprintf(`hyperdrive_serve_lease_held{tenant=%q}`, tenant)
}

// ServeLeaseShare returns the labeled gauge of a tenant's summed lease
// allowances — the slots the broker currently owes it.
func ServeLeaseShare(tenant string) string {
	return fmt.Sprintf(`hyperdrive_serve_lease_share{tenant=%q}`, tenant)
}

// ServeLeaseDeficit returns the labeled gauge of how many slots a
// tenant's leases are owed but do not hold (allowance minus held,
// floored at zero, summed over its leases).
func ServeLeaseDeficit(tenant string) string {
	return fmt.Sprintf(`hyperdrive_serve_lease_deficit{tenant=%q}`, tenant)
}

// ServeLeaseStarvedSeconds returns the labeled gauge of the longest
// time any of a tenant's leases has been starved (below fair share
// with unmet demand); 0 when none are.
func ServeLeaseStarvedSeconds(tenant string) string {
	return fmt.Sprintf(`hyperdrive_serve_lease_starved_seconds{tenant=%q}`, tenant)
}
