// Grid execution: many (network, algorithm, adversary, config) cells, each
// streamed over many trials, all sharing one worker pool. The unit of
// parallelism is a (cell, shard) pair — finer than a cell — so a grid
// parallelizes across cells and inside them at the same time: two cells
// saturate an 8-way pool, and so does one cell with enough trials. A
// single-cell sweep is simply a grid of one.
package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

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
	// checkpoint): their accumulators enter the cell's shard-order merge
	// directly and their trials never run. Seeded accumulators become part
	// of the reduction; the caller must not retain or mutate them after the
	// call starts.
	Seed map[ShardKey]*TrialSummary
	// OnShard observes every freshly completed unit (never a seeded one)
	// from worker goroutines, possibly concurrently; the callback must
	// synchronize its own state and consume the summary during the call.
	OnShard func(ShardState)
	// OnCell receives each cell once, the moment its last shard finishes
	// and its shards have been merged — while other cells are still
	// running. Calls come from worker goroutines, possibly concurrently and
	// in nondeterministic cell order; each delivered summary is
	// nevertheless final and deterministic. Cells that never complete
	// (error or cancellation) get no call. Cells whose every shard is
	// seeded are delivered before the pool starts, in cell-index order.
	OnCell func(cell int, sum *TrialSummary)
}

// RunGrid executes trials independent runs of every cell, folding each
// cell's results into its own streaming TrialSummary, and returns the
// summaries indexed like cells. Cell c's trial i is cells[c].Execute(i);
// each cell's shard accumulators are built over the Shards(trials)
// partition and merged in shard order, so every returned summary is
// bit-identical at any worker count, equal to the same cell run alone
// (a grid of one), and equal whether a unit was just folded or restored
// through h.Seed from a serialized checkpoint — at any worker count on
// either side of the interruption.
//
// Work is fanned out at (cell, shard) granularity over one pool: with C
// cells and S = Shards(trials) shards there are C·S independent units, so
// the pool stays busy whether the grid is wide (many cells) or deep (many
// trials). On error the lowest (cell, trial) pair in lexicographic order is
// reported.
//
// Cancelling ctx stops the pool at (cell, shard) granularity: claimed
// shards finish, nothing new is claimed, and the call returns ctx.Err()
// (wrapped). Cells already delivered through h.OnCell remain final.
func RunGrid(ctx context.Context, cells []Trial, trials int, cfg Config, sc StreamConfig, h Hooks) ([]*TrialSummary, error) {
	if trials < 0 {
		return nil, fmt.Errorf("engine: negative trial count %d", trials)
	}
	if _, err := stats.NewStream(sc.quantiles(), sc.ExactK); err != nil {
		return nil, err
	}
	shards := Shards(trials)
	seed := h.Seed
	for k := range seed {
		if k.Cell < 0 || k.Cell >= len(cells) || k.Shard < 0 || k.Shard >= shards {
			return nil, fmt.Errorf("engine: seeded unit (cell %d, shard %d) outside %d cells × %d shards",
				k.Cell, k.Shard, len(cells), shards)
		}
	}
	summaries := make([]*TrialSummary, len(cells))
	if len(cells) == 0 {
		return summaries, nil
	}
	if trials == 0 {
		for c := range summaries {
			summaries[c] = sc.newSummary()
			if h.OnCell != nil {
				h.OnCell(c, summaries[c])
			}
		}
		return summaries, nil
	}

	units := len(cells) * shards
	accs := make([]*TrialSummary, units)
	// remaining[c] counts the cell's unfinished shards; the worker that
	// drops it to zero owns the (deterministic, shard-ordered) merge and the
	// onCell delivery. Failed shards never decrement, so a failing cell is
	// never delivered.
	remaining := make([]atomic.Int32, len(cells))
	for c := range remaining {
		remaining[c].Store(int32(shards))
	}
	for k, sum := range seed {
		accs[k.Cell*shards+k.Shard] = sum
		remaining[k.Cell].Add(-1)
	}
	// Fully seeded cells never enter the pool: merge and deliver them now, in
	// cell-index order, exactly as their last worker would have.
	seededCells := 0
	for c := range cells {
		if remaining[c].Load() != 0 {
			continue
		}
		seededCells++
		dst := accs[c*shards]
		for t := 1; t < shards; t++ {
			if err := dst.Merge(accs[c*shards+t]); err != nil {
				return nil, fmt.Errorf("engine: cell %d merge: %w", c, err)
			}
		}
		summaries[c] = dst
		if h.OnCell != nil {
			h.OnCell(c, dst)
		}
	}
	var mergeEr trialError
	workers := cfg.workers()
	if workers > units {
		workers = units
	}

	// Instrumentation is observe-only and recorded at unit granularity; the
	// gate is read once so a mid-run toggle cannot unbalance the pending
	// gauge. Seeded units never enter the pool, so they never count as
	// pending.
	mOn := metrics.Enabled()
	var completedFresh atomic.Int64
	freshUnits := int64(units - len(seed))
	if mOn {
		mShardsSeeded.Add(int64(len(seed)))
		mUnitsPending.Add(freshUnits)
		mCellsCompleted.Add(int64(seededCells))
	}

	var (
		next    atomic.Int64
		failed  atomic.Bool
		firstEr trialError
	)
	// One code path at any worker count: the sequential case is the same
	// unit walk on a pool of one, so fold/merge rounding is identical.
	done := ctx.Done()
	work := func() {
		clock := newWorkerClock(mOn)
		defer clock.drain()
		for !failed.Load() {
			select {
			case <-done:
				return
			default:
			}
			u := int(next.Add(1)) - 1
			if u >= units {
				return
			}
			if accs[u] != nil {
				// Seeded unit: its accumulator is already in place and its
				// cell's countdown was decremented upfront.
				continue
			}
			c, s := u/shards, u%shards
			cell := cells[c].resolved()
			lo, hi := shardBounds(trials, shards, s)
			acc := sc.newSummary()
			shardErr := false
			clock.beginUnit()
			for i := lo; i < hi; i++ {
				if err := cell.foldTrial(acc, i); err != nil {
					// Global order key: all trials of cell c sort before any
					// trial of cell c+1.
					firstEr.record(c*trials+i, err)
					failed.Store(true)
					shardErr = true
					break
				}
			}
			if shardErr {
				clock.abortUnit()
				break
			}
			clock.endUnit()
			accs[u] = acc
			if mOn {
				mTrialsTotal.Add(int64(hi - lo))
				mCellTrials.With(cellLabel(c)).Add(int64(hi - lo))
				mShardsCompleted.Inc()
				mUnitsPending.Add(-1)
				completedFresh.Add(1)
			}
			if h.OnShard != nil {
				h.OnShard(ShardState{Cell: c, Shard: s, TrialLo: lo, TrialHi: hi, Summary: acc})
			}
			if remaining[c].Add(-1) == 0 {
				// Last shard of the cell: merge in shard-index order — the
				// order that makes the summary independent of which units
				// finished first — and hand the finished cell to the caller.
				dst := accs[c*shards]
				for t := 1; t < shards; t++ {
					if err := dst.Merge(accs[c*shards+t]); err != nil {
						mergeEr.record(c, err)
						failed.Store(true)
						return
					}
				}
				summaries[c] = dst
				if mOn {
					mCellsCompleted.Inc()
				}
				if h.OnCell != nil {
					h.OnCell(c, dst)
				}
			}
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if mOn {
		// Units abandoned by error or cancellation leave the queue with the
		// run; without this the pending gauge would leak on every failure.
		mUnitsPending.Add(completedFresh.Load() - freshUnits)
	}
	if err := firstEr.get(); err != nil {
		c, i := firstEr.index/trials, firstEr.index%trials
		return nil, fmt.Errorf("engine: cell %d trial %d: %w", c, i, err)
	}
	if err := mergeEr.get(); err != nil {
		return nil, fmt.Errorf("engine: cell %d merge: %w", mergeEr.index, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return summaries, nil
}

// FoldShardContext executes the trials [lo, hi) of one cell sequentially in
// index order, folding each result into a fresh summary — exactly the
// per-unit loop of RunGrid. A remote worker that runs a claimed (cell,
// shard) unit through FoldShardContext therefore produces an accumulator
// bit-identical to the one the local engine would have built, which is what
// makes coordinator/worker grids byte-equivalent to single-process runs.
// ctx is consulted between trials; cancellation abandons the shard (a
// claimed unit either completes or reports nothing).
func FoldShardContext(ctx context.Context, t Trial, lo, hi int, sc StreamConfig) (*TrialSummary, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("engine: bad trial range [%d, %d)", lo, hi)
	}
	if _, err := stats.NewStream(sc.quantiles(), sc.ExactK); err != nil {
		return nil, err
	}
	t = t.resolved()
	acc := sc.newSummary()
	clock := newWorkerClock(metrics.Enabled())
	clock.beginUnit()
	fail := func(err error) (*TrialSummary, error) {
		clock.abortUnit()
		clock.drain()
		return nil, err
	}
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("engine: %w", err))
		}
		if err := t.foldTrial(acc, i); err != nil {
			return fail(fmt.Errorf("engine: trial %d: %w", i, err))
		}
	}
	clock.endUnit()
	clock.drain()
	if clock.on {
		mTrialsTotal.Add(int64(hi - lo))
		mShardsCompleted.Inc()
	}
	return acc, nil
}

// foldTrial executes trial i of t and folds its result into acc: the one
// per-trial step of the streaming paths.
func (t Trial) foldTrial(acc *TrialSummary, i int) error {
	res, err := t.Execute(i)
	if err != nil {
		return err
	}
	return acc.fold(res)
}
