// Package engine is the sharded, deterministic Monte-Carlo trial engine.
// It fans independent trials out over a fixed worker pool (GOMAXPROCS-sized
// by default) using a batched work queue, while guaranteeing that results —
// and the first error, if any — are bit-identical regardless of the worker
// count or the goroutine schedule.
//
// Determinism rests on two rules:
//
//  1. every trial derives its randomness only from the base seed and its
//     trial index, via SeedFor(baseSeed, index), never from shared RNG
//     state or wall-clock time; and
//  2. trial i's result is written to slot i of a preallocated result slice,
//     so the output order is the input order no matter which worker ran it.
//
// The experiment harness (internal/expt), the public dualgraph.RunMany API,
// and both CLIs are built on this package.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dualgraph/internal/graph"
	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// Config parameterizes the worker pool. The zero value is ready to use: one
// worker per logical CPU and an automatically sized work batch.
type Config struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Batch is the number of consecutive trial indices a worker claims at a
	// time; <= 0 picks a size that balances queue contention against load
	// balancing. Batch size never affects results, only scheduling.
	Batch int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) batch(n, workers int) int {
	if c.Batch > 0 {
		return c.Batch
	}
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

// MapContext runs fn for every trial index 0..n-1 across the worker pool
// and returns the results in index order. fn must be safe for concurrent
// invocation and must derive any randomness from its trial index alone
// (typically via SeedFor). On error MapContext returns the error of the
// lowest-indexed failing trial (wrapped with that index) and stops claiming
// new batches; trials already claimed still finish.
//
// Cancelling ctx stops the pool at batch granularity: workers finish the
// batch they claimed and claim no more, and MapContext returns ctx.Err()
// (wrapped, so errors.Is(err, context.Canceled) works). A trial error takes
// precedence over cancellation in the returned error, keeping the reported
// failure deterministic.
func MapContext[T any](ctx context.Context, n int, cfg Config, fn func(trial int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("engine: negative trial count %d", n)
	}
	if n == 0 {
		return []T{}, nil
	}
	workers := cfg.workers()
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		// Sequential fast path: no goroutines, no atomics; identical results
		// by construction. Cancellation is checked per batch, mirroring the
		// granularity of the pooled path.
		batch := cfg.batch(n, workers)
		for lo := 0; lo < n; lo += batch {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("engine: %w", err)
			}
			hi := lo + batch
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				r, err := fn(i)
				if err != nil {
					return nil, fmt.Errorf("engine: trial %d: %w", i, err)
				}
				results[i] = r
			}
		}
		return results, nil
	}

	batch := cfg.batch(n, workers)
	var (
		next    atomic.Int64
		failed  atomic.Bool
		firstEr trialError
		wg      sync.WaitGroup
	)
	done := ctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
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
				hi := lo + batch
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					r, err := fn(i)
					if err != nil {
						firstEr.record(i, err)
						failed.Store(true)
						break
					}
					results[i] = r
				}
			}
		}()
	}
	wg.Wait()
	if err := firstEr.get(); err != nil {
		return nil, fmt.Errorf("engine: trial %d: %w", firstEr.index, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return results, nil
}

// Map is MapContext without cancellation, kept as the compatibility entry
// point for callers that predate the context-first API.
func Map[T any](n int, cfg Config, fn func(trial int) (T, error)) ([]T, error) {
	return MapContext(context.Background(), n, cfg, fn)
}

// Trial is one fully specified simulation: a network, an algorithm, an
// adversary, and a sim configuration (including its own seed). Sched, when
// set, makes the trial dynamic: the run executes on the schedule's epoch
// sequence instead of the fixed Net (which then only documents the base
// topology the schedule was built over).
type Trial struct {
	Net   *graph.Dual
	Sched graph.Schedule
	Alg   sim.Algorithm
	Adv   sim.Adversary
	Cfg   sim.Config
}

// RunTrialsContext executes heterogeneous trials across the pool and returns
// their results in input order. Each trial uses exactly the seed in its own
// sim.Config. Algorithms and adversaries may be shared between trials and
// must therefore be stateless factories, which all the built-in ones are.
// Cancellation follows MapContext's batch-granularity contract.
func RunTrialsContext(ctx context.Context, trials []Trial, cfg Config) ([]*sim.Result, error) {
	return MapContext(ctx, len(trials), cfg, func(i int) (*sim.Result, error) {
		t := trials[i]
		return sim.RunDynamic(t.schedule(), t.Alg, t.Adv, t.Cfg)
	})
}

// RunTrials is RunTrialsContext without cancellation (compatibility entry
// point).
func RunTrials(trials []Trial, cfg Config) ([]*sim.Result, error) {
	return RunTrialsContext(context.Background(), trials, cfg)
}

// RunManyContext executes trials independent runs of one (net, alg, adv,
// simCfg) combination. Trial i runs with sim seed SeedFor(simCfg.Seed, i),
// so a fixed simCfg.Seed yields bit-identical results at any worker count.
// It is exactly RunManyScheduleContext over a static schedule, mirroring how
// sim.Run relates to sim.RunDynamic.
func RunManyContext(ctx context.Context, net *graph.Dual, alg sim.Algorithm, adv sim.Adversary, simCfg sim.Config, trials int, cfg Config) ([]*sim.Result, error) {
	return RunManyScheduleContext(ctx, graph.Static(net), alg, adv, simCfg, trials, cfg)
}

// RunMany is RunManyContext without cancellation (compatibility entry
// point).
func RunMany(net *graph.Dual, alg sim.Algorithm, adv sim.Adversary, simCfg sim.Config, trials int, cfg Config) ([]*sim.Result, error) {
	return RunManyContext(context.Background(), net, alg, adv, simCfg, trials, cfg)
}
