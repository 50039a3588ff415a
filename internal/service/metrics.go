// Service instrumentation. Job lifecycle gauges are updated under
// Server.mu at the transitions — Submit, the executor's start, and finish —
// rather than computed at scrape time, so the /metrics handler never takes
// the job lock. Gauges must stay balanced, so service metrics ignore the
// metrics.Enabled gate (which exists for the engine/sim hot paths; nothing
// here is hot). The gauges are process-global: a process running several
// Servers (as tests do) sees their sums; per-server counts are on
// /v1/healthz.
package service

import "dualgraph/internal/metrics"

var (
	mJobsSubmitted = metrics.NewCounter("service_jobs_submitted_total",
		"Jobs accepted by Submit (after validation and queue admission).")
	mJobsCompleted = metrics.NewCounterVec("service_jobs_completed_total",
		"Jobs reaching a terminal state, by final state.", "state")
	mJobsQueued = metrics.NewGauge("service_jobs_queued",
		"Jobs currently queued (admitted, not yet started).")
	mJobsRunning = metrics.NewGauge("service_jobs_running",
		"Jobs currently running (drained by the local executor or by remote workers).")

	mShardClaims = metrics.NewCounter("service_shard_claims_total",
		"Shard leases granted to remote workers by coordinator jobs (the local pool's in-process claims are not counted).")
	mLeaseExpirations = metrics.NewCounter("service_lease_expirations_total",
		"Expired shard leases returned to the pool on a later claim scan.")
	mShardReports = metrics.NewCounter("service_shard_reports_total",
		"Worker shard reports accepted into coordinator ledgers.")
	mDuplicateReports = metrics.NewCounter("service_duplicate_reports_total",
		"Idempotent duplicate shard reports (unit already done when reported).")
	mCellsStreamed = metrics.NewCounter("service_cells_streamed_total",
		"Cell result lines streamed to job result buffers (local and coordinator jobs).")
)

// mCompleted holds the terminal-state children, pre-resolved so each
// completion is one atomic add and every state's series exists from start.
var mCompleted = map[State]*metrics.Counter{
	Done:      mJobsCompleted.With(string(Done)),
	Failed:    mJobsCompleted.With(string(Failed)),
	Cancelled: mJobsCompleted.With(string(Cancelled)),
}
