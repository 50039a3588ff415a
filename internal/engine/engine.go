// Package engine is the sharded, deterministic Monte-Carlo trial engine.
// It fans independent trials out over a fixed worker pool (GOMAXPROCS-sized
// by default) while guaranteeing that results — and the first error, if
// any — are bit-identical regardless of the worker count or the goroutine
// schedule. There is one execution path per result shape:
//
//   - Map runs n indexed trials and returns their results in index order
//     (the materializing path, O(n) memory);
//   - RunGrid streams every trial of many cells through one pool at
//     (cell, shard) granularity, folding each cell into a TrialSummary
//     without retaining per-trial results (a single-cell sweep is a grid of
//     one); and
//   - FoldShardContext folds one (cell, shard) unit sequentially — the
//     worker side of a coordinator/worker grid.
//
// Both streaming paths report to a Ledger, the one bookkeeper of a grid's
// units: RunGrid is a ledger drained by the in-process pool, and the sweep
// service drains the same ledger with that pool or with remote workers.
//
// Trial.Execute is the one definition of "run trial i of this cell" that
// all of them share.
//
// Determinism rests on two rules:
//
//  1. every trial derives its randomness only from the base seed and its
//     trial index, via SeedFor(baseSeed, index), never from shared RNG
//     state or wall-clock time; and
//  2. trial i's result lands in a place fixed by i alone — slot i of Map's
//     result slice, or the fold of shard i's accumulator, merged in shard
//     order — so the output never depends on which worker ran it.
//
// The experiment harness (internal/expt), the spec layer, the public
// dualgraph API, the sweep service and the CLIs are built on this package.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"dualgraph/internal/graph"
	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// Config parameterizes the worker pool. The zero value is ready to use: one
// worker per logical CPU.
type Config struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0). The
	// worker count never affects results, only throughput.
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// batchSize is the number of consecutive trial indices a Map worker claims
// at a time. It balances queue contention against load balancing and, like
// the worker count, never affects results.
func batchSize(n, workers int) int {
	// Aim for ~8 batches per worker so slow trials rebalance, capped to keep
	// the atomic counter cold on large trial counts.
	b := n / (workers * 8)
	if b < 1 {
		b = 1
	}
	if b > 64 {
		b = 64
	}
	return b
}

// SeedFor derives the RNG seed of one trial as a SplitMix64-style mix of
// the base seed and the trial index. The derivation is a pure function of
// (base, trial) — which is what makes engine runs reproducible at any
// worker count — and, unlike a plain base^trial XOR, it decorrelates the
// trial-seed sets of nearby base seeds: replications run with different
// base seeds are statistically independent rather than permutations of the
// same trials.
func SeedFor(base int64, trial int) int64 {
	return int64(rng.Mix64(uint64(base) + rng.Golden*(uint64(trial)+1)))
}

// trialError carries the error of the lowest-indexed failing trial, so the
// reported error is deterministic even when several trials fail.
type trialError struct {
	mu    sync.Mutex
	index int
	err   error
}

func (te *trialError) record(index int, err error) {
	te.mu.Lock()
	if te.err == nil || index < te.index {
		te.index, te.err = index, err
	}
	te.mu.Unlock()
}

func (te *trialError) get() error {
	te.mu.Lock()
	defer te.mu.Unlock()
	return te.err
}

// Map runs fn for every trial index 0..n-1 across the worker pool and
// returns the results in index order. fn must be safe for concurrent
// invocation and must derive any randomness from its trial index alone
// (typically via SeedFor, or by being a Trial's Execute). On error Map
// returns the error of the lowest-indexed failing trial (wrapped with that
// index) and stops claiming new batches; trials already claimed still
// finish.
//
// Cancelling ctx stops the pool at batch granularity: workers finish the
// batch they claimed and claim no more, and Map returns ctx.Err() (wrapped,
// so errors.Is(err, context.Canceled) works). A trial error takes
// precedence over cancellation in the returned error, keeping the reported
// failure deterministic.
func Map[T any](ctx context.Context, n int, cfg Config, fn func(trial int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative trial count %d", n)
	}
	if n == 0 {
		return []T{}, nil
	}
	workers := min(cfg.workers(), n)
	results := make([]T, n)
	batch := batchSize(n, workers)
	var (
		next    atomic.Int64
		failed  atomic.Bool
		firstEr trialError
	)
	done := ctx.Done()
	// One code path at any worker count; a pool of one runs inline.
	runPool(workers, func() {
		for !failed.Load() {
			select {
			case <-done:
				return
			default:
			}
			lo := int(next.Add(int64(batch))) - batch
			if lo >= n {
				return
			}
			for i := lo; i < min(lo+batch, n); i++ {
				r, err := fn(i)
				if err != nil {
					firstEr.record(i, err)
					failed.Store(true)
					break
				}
				results[i] = r
			}
		}
	})
	if err := firstEr.get(); err != nil {
		return nil, fmt.Errorf("engine: trial %d: %w", firstEr.index, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return results, nil
}

// runPool runs work on workers goroutines and waits for all of them; a
// pool of one runs inline.
func runPool(workers int, work func()) {
	if workers == 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// Trial is one fully specified simulation cell: a network, an algorithm, an
// adversary, and a sim configuration whose Seed is the base of the
// per-trial seed derivation. Sched, when set, makes the cell dynamic: its
// runs execute on the schedule's epoch sequence instead of the fixed Net
// (which then only documents the base topology the schedule was built
// over).
//
// Every trial of a cell shares its algorithm, adversary and schedule, from
// concurrent workers: they must be stateless factories safe for concurrent
// use. All the built-in ones are — schedules hold only immutable
// construction state and derive each epoch's randomness per call.
type Trial struct {
	Net   *graph.Dual
	Sched graph.Schedule
	Alg   sim.Algorithm
	Adv   sim.Adversary
	Cfg   sim.Config
}

// cancelEvery is how many rounds a trial plays between checks of its ctx.
const cancelEvery = 64

// Execute runs trial i of the cell: one sim execution with sim seed
// SeedFor(t.Cfg.Seed, i), stepped until done. The sim derives every epoch's
// randomness from that seed alone (graph.EpochSeed), so the result is a
// pure function of (t, i) — which is what makes every engine path
// bit-identical at any worker count, static and dynamic cells alike.
//
// A cancelled ctx stops the trial within cancelEvery rounds, returning
// ctx.Err() itself. A panic inside the run — a faulty algorithm, adversary or
// schedule — is recovered and returned as that trial's *TrialPanic, so it
// fails the trial (and the run or job around it) like any other trial error
// instead of taking the process down.
func (t Trial) Execute(ctx context.Context, i int) (res *sim.Result, err error) {
	c := t.Cfg
	c.Seed = SeedFor(t.Cfg.Seed, i)
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, &TrialPanic{Trial: i, Seed: c.Seed, Value: v, Stack: debug.Stack()}
		}
	}()
	run, err := sim.Start(t.schedule(), t.Alg, t.Adv, c)
	for done := false; err == nil && !done; {
		if done, err = run.Step(); err == nil && !done && run.Round()%cancelEvery == 0 {
			err = ctx.Err()
		}
	}
	if err != nil {
		return nil, err
	}
	return run.Result(), nil
}

// TrialPanic is the error of a trial whose run panicked. Trial and Seed
// reproduce it: by the determinism contract, re-running the cell with sim
// seed Seed replays the same execution up to the same panic.
type TrialPanic struct {
	// Trial is the trial index within its cell.
	Trial int
	// Seed is the trial's sim seed, SeedFor(cell seed, Trial).
	Seed int64
	// Value is the value the run panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (p *TrialPanic) Error() string {
	return fmt.Sprintf("trial %d (sim seed %d) panicked: %v", p.Trial, p.Seed, p.Value)
}

// schedule resolves the cell's schedule: the explicit one when set, else the
// static wrap of its fixed network.
func (t Trial) schedule() graph.Schedule {
	if t.Sched != nil {
		return t.Sched
	}
	return graph.Static(t.Net)
}

// resolved returns t with its schedule resolved, so the trials of one work
// unit share a single static wrap instead of building one per Execute.
func (t Trial) resolved() Trial {
	t.Sched = t.schedule()
	return t
}
