// Engine instrumentation: process-wide instruments fed by the streaming
// paths (the grid reducer RunGrid and the worker-mode FoldShardContext). All
// recording happens at shard granularity — never inside the per-trial or
// per-round hot loops — so the cost is a handful of atomic operations per
// completed (cell, shard) unit, amortized over thousands of simulated
// rounds. Every site is gated on metrics.Enabled(), which is what lets
// BenchmarkMetricsOverhead measure the instrumented-vs-uninstrumented
// delta; results are observe-only either way (byte-identical outputs).
package engine

import (
	"strconv"
	"time"

	"dualgraph/internal/metrics"
)

var (
	mTrialsTotal = metrics.NewCounter("engine_trials_total",
		"Trials folded by the streaming grid reducer and shard folds (recorded per completed shard).")
	mCellTrials = metrics.NewCounterVec("engine_cell_trials_total",
		"Trials folded per grid cell index; rate() gives per-cell trials/sec.", "cell")
	mShardsCompleted = metrics.NewCounter("engine_shards_completed_total",
		"Freshly folded (cell, shard) work units.")
	mShardsSeeded = metrics.NewCounter("engine_shards_seeded_total",
		"Work units restored from a checkpoint/seed map instead of being re-run.")
	mCellsCompleted = metrics.NewCounter("engine_cells_completed_total",
		"Grid cells whose shards all finished and merged.")
	mUnitsPending = metrics.NewGauge("engine_units_pending",
		"Work-queue depth: (cell, shard) units not yet folded across active streaming runs.")
	mWorkerBusy = metrics.NewFloatCounter("engine_worker_busy_seconds_total",
		"Pool-goroutine seconds spent folding shards.")
	mWorkerIdle = metrics.NewFloatCounter("engine_worker_idle_seconds_total",
		"Pool-goroutine seconds spent claiming, waiting, or draining rather than folding.")
	mShardDuration = metrics.NewHistogram("engine_shard_duration_seconds",
		"Wall time to fold one (cell, shard) unit.",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60})
)

// workerClock accrues one pool goroutine's busy/idle split and flushes it to
// the counters when the goroutine drains. The zero value (disabled) makes
// every method a no-op, so the work loops carry no metrics branches of their
// own beyond constructing the clock.
type workerClock struct {
	on        bool
	wallStart time.Time
	busy      time.Duration
	unitStart time.Time
}

func newWorkerClock(on bool) workerClock {
	c := workerClock{on: on}
	if on {
		c.wallStart = time.Now()
	}
	return c
}

// beginUnit marks the start of one shard fold.
func (c *workerClock) beginUnit() {
	if c.on {
		c.unitStart = time.Now()
	}
}

// endUnit records one completed shard fold: its duration histogram sample
// and the busy-time accrual.
func (c *workerClock) endUnit() {
	if !c.on {
		return
	}
	d := time.Since(c.unitStart)
	c.busy += d
	mShardDuration.Observe(d.Seconds())
}

// abortUnit accrues busy time for a fold that ended in error or
// cancellation without recording a duration sample.
func (c *workerClock) abortUnit() {
	if c.on {
		c.busy += time.Since(c.unitStart)
	}
}

// drain flushes the goroutine's busy/idle split; call exactly once, when the
// work loop exits.
func (c *workerClock) drain() {
	if !c.on {
		return
	}
	wall := time.Since(c.wallStart)
	mWorkerBusy.Add(c.busy.Seconds())
	idle := wall - c.busy
	if idle > 0 {
		mWorkerIdle.Add(idle.Seconds())
	}
}

// cellLabel renders a cell index as its metric label value.
func cellLabel(c int) string { return strconv.Itoa(c) }
