// Planner instrumentation: one flush per Plan call of the work that call
// did, so the search loop itself only bumps plain Planner fields. Gated on
// metrics.Enabled() and observe-only: counts never feed back into planning.
package exhaustive

import "dualgraph/internal/metrics"

var (
	mPlans = metrics.NewCounter("exhaustive_plans_total",
		"Planner.Plan calls: one per round an adaptive adversary is asked to deliver.")
	mPlansTruncated = metrics.NewCounter("exhaustive_plans_truncated_total",
		"Plan calls whose search hit NodeBudget: the choice is the best found, not the exact best response.")
	mExpansions = metrics.NewCounter("exhaustive_expansions_total",
		"Search-tree expansions (script replays) spent by Plan calls.")
	mTableLookups = metrics.NewCounter("exhaustive_table_lookups_total",
		"Transposition-table lookups made by Plan calls.")
	mTableHits = metrics.NewCounter("exhaustive_table_hits_total",
		"Transposition-table lookups that found a memoized subtree value.")
)
