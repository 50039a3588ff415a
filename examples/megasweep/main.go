// Megasweep: a million-trial Monte Carlo percentile sweep in bounded
// memory. RunMany would retain one Result per trial (hundreds of MB at this
// scale); RunStream folds every trial into ~256 shard accumulators as soon
// as it finishes, so resident memory stays flat no matter how many trials
// run — the aggregate below is bit-identical at any worker count, with
// exact counts/min/max/mean and P²-estimated quantiles.
//
//	go run ./examples/megasweep                 # 1,000,000 trials
//	go run ./examples/megasweep -trials 100000  # quicker demo
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"runtime"

	"dualgraph"
)

func main() {
	trials := flag.Int("trials", 1_000_000, "number of independently seeded trials")
	n := flag.Int("n", 8, "network size (line topology)")
	workers := flag.Int("workers", 0, "engine workers (0 = one per CPU); never changes the aggregate")
	seed := flag.Int64("seed", 42, "base seed; per-trial seeds are derived from it")
	flag.Parse()
	if err := run(*trials, *n, *workers, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(trials, n, workers int, seed int64) error {
	// A light workload so a million trials finish quickly: the uniform
	// baseline on a classical line, where completion time is genuinely
	// random (a geometric race along each hop).
	net, err := dualgraph.Line(n)
	if err != nil {
		return fmt.Errorf("build network: %w", err)
	}
	alg, err := dualgraph.NewUniform(0.4)
	if err != nil {
		return fmt.Errorf("build algorithm: %w", err)
	}

	sum, err := dualgraph.RunStream(context.Background(), net, alg, dualgraph.Benign{}, dualgraph.Config{
		Rule:  dualgraph.CR3,
		Start: dualgraph.SyncStart,
		Seed:  seed,
	}, trials, dualgraph.EngineConfig{Workers: workers}, dualgraph.StreamConfig{
		Quantiles: []float64{0.5, 0.9, 0.95, 0.99, 0.999},
	})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	fmt.Printf("megasweep: %d trials of %s on a %d-node line (benign, CR3, sync)\n",
		sum.Trials, alg.Name(), n)
	fmt.Printf("completed: %d/%d\n", sum.Completed, sum.Trials)
	mean, _ := sum.Rounds.Mean()
	sd, _ := sum.Rounds.Stddev()
	min, _ := sum.Rounds.Min()
	max, _ := sum.Rounds.Max()
	fmt.Printf("rounds: mean=%.3f stddev=%.3f min=%.0f max=%.0f\n", mean, sd, min, max)
	for _, q := range sum.Rounds.Targets() {
		v, err := sum.Rounds.Quantile(q)
		if err != nil {
			return err
		}
		kind := "P² estimate"
		if sum.Rounds.Exact() {
			kind = "exact"
		}
		fmt.Printf("  p%-5v = %8.2f  (%s)\n", q*100, v, kind)
	}

	// The point of the exercise: live heap after a million trials is a few
	// MB of accumulators, not O(trials) of retained results.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("live heap after sweep: %.1f MB (memory bounded — no per-trial results retained)\n",
		float64(ms.HeapAlloc)/(1<<20))
	return nil
}
