// Schedule instrumentation: how each dynamic epoch was produced, and how
// often an overlay epoch had to build its cores. Epoch modes are recorded
// once per Epoch call for epochs e > 0 — epoch 0 is the run's starting
// network, not a dynamic build — and everything is gated on
// metrics.Enabled(). The mode split is the observable cost model of the
// epoch swaps: "base" epochs return the base pointer (no coin fired, zero
// build work), "overlay" epochs compute a down set or a faded-arc set over
// the base, "rebuild" epochs construct a whole new dual (waypoint mobility,
// whose every epoch moves every node).
package graph

import "dualgraph/internal/metrics"

var mEpochBuilds = metrics.NewCounterVec("graph_epoch_builds_total",
	"Dynamic epochs by mode: base (returned the base network unchanged), overlay (a down set or faded-arc set over the base), rebuild (full construction).",
	"mode")

// Child handles resolved once: Epoch implementations record through these
// with a single atomic add, no map lookup.
var (
	mEpochBase    = mEpochBuilds.With("base")
	mEpochOverlay = mEpochBuilds.With("overlay")
	mEpochRebuild = mEpochBuilds.With("rebuild")
)

var mEpochMaterializations = metrics.NewCounter("graph_epoch_materializations_total",
	"Overlay epochs whose CSR cores were built because a whole-graph or EdgeID reader asked for them.")
