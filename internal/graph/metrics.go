// Schedule instrumentation: how each dynamic epoch was materialized.
// Recorded once per Epoch call for epochs e > 0 — epoch 0 is the run's
// starting network, not a dynamic build — and gated on metrics.Enabled().
// The mode split is the observable cost model of PR 7's incremental swaps:
// "base" epochs return the base pointer (no coin fired, zero build work),
// "incremental" epochs rebuild CSR rows from the base rows, "rebuild" epochs
// construct a whole new dual (waypoint mobility, whose every epoch moves
// every node).
package graph

import "dualgraph/internal/metrics"

var mEpochBuilds = metrics.NewCounterVec("graph_epoch_builds_total",
	"Dynamic epoch materializations by mode: base (returned the base network unchanged), incremental (patched dirty CSR rows), rebuild (full construction).",
	"mode")

// Child handles resolved once: Epoch implementations record through these
// with a single atomic add, no map lookup.
var (
	mEpochBase        = mEpochBuilds.With("base")
	mEpochIncremental = mEpochBuilds.With("incremental")
	mEpochRebuild     = mEpochBuilds.With("rebuild")
)
