// Grid execution: many (network, algorithm, adversary, config) cells, each
// streamed over many trials, all sharing one worker pool. The unit of
// parallelism is a (cell, shard) pair — finer than a cell — so a grid
// parallelizes across cells and inside them at the same time: two cells
// saturate an 8-way pool, and so does one cell with enough trials. A
// single-cell sweep is simply a grid of one. RunGrid is a Ledger (see
// ledger.go) drained by that pool, so its merge and its in-order cell
// delivery are the same code the sweep service's remote workers report to.
package engine

import (
	"context"
	"fmt"

	"dualgraph/internal/metrics"
	"dualgraph/internal/stats"
)

// ShardKey names one (cell, shard) work unit of a grid run: cell indexes the
// cells slice, shard indexes the Shards(trials) partition. It is the key of
// checkpoint records and coordinator/worker claims.
type ShardKey struct {
	Cell  int
	Shard int
}

// ShardState is one completed work unit: the shard's identity, its trial
// range under ShardRange, and the accumulator folded over exactly those
// trials. onShard callbacks receive it the moment the shard completes; the
// Summary must be consumed (typically serialized) during the callback,
// because the engine may later mutate it as a merge destination.
type ShardState struct {
	Cell    int
	Shard   int
	TrialLo int
	TrialHi int
	Summary *TrialSummary
}

// Key returns the shard's ShardKey.
func (s ShardState) Key() ShardKey { return ShardKey{Cell: s.Cell, Shard: s.Shard} }

// Hooks are the optional checkpoint seed and observers of a RunGrid call.
// The zero value runs the whole grid and observes nothing.
type Hooks struct {
	// Seed holds units already reduced (typically restored from a
	// checkpoint): they are pre-reported to the grid's ledger, validated like
	// any report, and their trials never run. Seeded accumulators become
	// part of the reduction; the caller must not retain or mutate them after
	// the call starts.
	Seed map[ShardKey]*TrialSummary
	// OnShard observes every freshly completed unit (never a seeded one)
	// from worker goroutines, possibly concurrently; the callback must
	// synchronize its own state and consume the summary during the call.
	OnShard func(ShardState)
	// OnCell receives each cell once, as soon as it and every cell before it
	// have merged — while later cells still run. Calls are serialized and in
	// enumeration order, so the delivered cells are always a prefix of the
	// grid, each final and deterministic; fully seeded cells at the front
	// arrive before the pool starts. Cells that never complete (error or
	// cancellation) get no call.
	OnCell func(cell int, sum *TrialSummary)
}

// RunGrid executes trials independent runs of every cell — cell c's trial i
// is cells[c].Execute(ctx, i) — folding each cell into its own streaming
// TrialSummary, and returns the summaries indexed like cells. It is a Ledger
// drained by the worker pool (see Ledger.Drain for errors and
// cancellation): work fans out at (cell, shard) granularity, so the pool
// stays busy whether the grid is wide or deep, and each cell's shard
// accumulators merge in shard order, so every summary is bit-identical at
// any worker count, equal to the same cell run alone (a grid of one), and
// equal whether a unit was just folded or restored through h.Seed from a
// serialized checkpoint — at any worker count on either side of the
// interruption.
func RunGrid(ctx context.Context, cells []Trial, trials int, cfg Config, sc StreamConfig, h Hooks) ([]*TrialSummary, error) {
	l, err := NewLedger(len(cells), trials, sc, h.OnCell)
	if err != nil {
		return nil, err
	}
	// Every seed is checked before any lands, so a bad one delivers nothing.
	for k, sum := range h.Seed {
		if err := l.check(k, sum); err != nil {
			return nil, err
		}
	}
	seededCells := 0
	for k, sum := range h.Seed {
		_, merged, err := l.Report(k, sum)
		if err != nil {
			return nil, err
		}
		if merged {
			seededCells++
		}
	}
	if metrics.Enabled() {
		mShardsSeeded.Add(int64(len(h.Seed)))
		mCellsCompleted.Add(int64(seededCells))
	}
	if err := l.Drain(ctx, cells, cfg, h.OnShard); err != nil {
		return nil, err
	}
	return l.sums, nil
}

// FoldShardContext executes the trials [lo, hi) of one cell sequentially in
// index order, folding each result into a fresh summary — exactly the
// per-unit fold of RunGrid's pool. A remote worker that runs a claimed
// (cell, shard) unit through FoldShardContext therefore produces an
// accumulator bit-identical to the one the local engine would have built,
// which is what makes coordinator/worker grids byte-equivalent to
// single-process runs. ctx is consulted between trials and between rounds
// (see Trial.Execute); cancellation abandons the shard (a claimed unit
// either completes or reports nothing).
func FoldShardContext(ctx context.Context, t Trial, lo, hi int, sc StreamConfig) (*TrialSummary, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("engine: bad trial range [%d, %d)", lo, hi)
	}
	if _, err := stats.NewStream(sc.quantiles(), sc.ExactK); err != nil {
		return nil, err
	}
	clock := newWorkerClock(metrics.Enabled())
	defer clock.drain()
	acc, i, err := foldUnit(ctx, t.resolved(), lo, hi, sc, &clock)
	switch {
	case err == nil:
		return acc, nil
	case i < 0:
		return nil, fmt.Errorf("engine: %w", err)
	default:
		return nil, trialErr(i, err)
	}
}

// foldUnit is the one per-unit fold of every streaming path: trials
// [lo, hi) of t in index order into a fresh accumulator, timed on clock and
// counted in the trial and shard metrics. ctx is checked between trials and
// inside each one. A failing trial returns its index with its error;
// cancellation, between trials or inside one, returns index -1 with ctx's
// error.
func foldUnit(ctx context.Context, t Trial, lo, hi int, sc StreamConfig, clock *workerClock) (*TrialSummary, int, error) {
	done := ctx.Done()
	acc := sc.NewSummary()
	clock.beginUnit()
	for i := lo; i < hi; i++ {
		select {
		case <-done:
			clock.abortUnit()
			return nil, -1, ctx.Err()
		default:
		}
		res, err := t.Execute(ctx, i)
		if err == nil {
			err = acc.fold(res)
		}
		if err != nil {
			clock.abortUnit()
			if err == ctx.Err() { // Execute stopped on cancellation
				return nil, -1, err
			}
			return nil, i, err
		}
	}
	clock.endUnit()
	if clock.on {
		mTrialsTotal.Add(int64(hi - lo))
		mShardsCompleted.Inc()
	}
	return acc, -1, nil
}
