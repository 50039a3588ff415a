// Gridsweep: a whole paper-style table as one declarative value. A Sweep
// lists the axes — here topology × algorithm × n — and the engine executes
// the Cartesian grid in parallel at (cell, shard) granularity, so the
// worker pool stays saturated whether the grid is wide or deep. Every cell
// summary is bit-identical at any -workers value and equal to running that
// cell's Scenario alone; the sweep itself round-trips through JSON, so the
// exact experiment can be committed, shipped, and rerun elsewhere
// (`dgsim -spec grid.json`).
//
//	go run ./examples/gridsweep
//	go run ./examples/gridsweep -trials 100 -workers 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"dualgraph"
)

func main() {
	trials := flag.Int("trials", 25, "Monte Carlo trials per grid cell")
	workers := flag.Int("workers", 0, "engine workers (0 = one per CPU); never changes the grid output")
	seed := flag.Int64("seed", 3, "base seed of every cell")
	emit := flag.Bool("emit-spec", false, "print the sweep as JSON (pipe to a file and rerun with dgsim -spec)")
	flag.Parse()
	if err := run(*trials, *workers, *seed, *emit); err != nil {
		log.Fatal(err)
	}
}

func run(trials, workers int, seed int64, emit bool) error {
	// The base scenario fixes everything the grid does not sweep: the
	// greedy collider, CR4, asynchronous start, and the seed.
	base, err := dualgraph.NewScenario(
		dualgraph.WithAdversary("greedy", nil),
		dualgraph.WithCollisionRule(dualgraph.CR4),
		dualgraph.WithStart(dualgraph.AsyncStart),
		dualgraph.WithSeed(seed),
	)
	if err != nil {
		return err
	}
	sweep := dualgraph.Sweep{
		Base: base,
		Topologies: []dualgraph.Choice{
			{Name: "clique-bridge"},
			{Name: "geometric"},
			{Name: "pa", Params: dualgraph.Params{"m": 2}},
		},
		Algorithms: []dualgraph.Choice{
			{Name: "strong-select"},
			{Name: "harmonic"},
		},
		Ns:     []int{17, 33},
		Trials: trials,
	}

	if emit {
		// The sweep IS the experiment: serialize it instead of running.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sweep)
	}

	grid, err := sweep.Run(context.Background(), dualgraph.EngineConfig{Workers: workers}, dualgraph.StreamConfig{}, dualgraph.SweepHooks{})
	if err != nil {
		return err
	}
	fmt.Printf("gridsweep: %d cells × %d trials (identical at any worker count)\n",
		len(grid.Cells), grid.Trials)
	for _, cr := range grid.Cells {
		med, err := cr.Summary.Rounds.Quantile(0.5)
		if err != nil {
			return err
		}
		maxR, err := cr.Summary.Rounds.Max()
		if err != nil {
			return err
		}
		fmt.Printf("  %-55s completed=%d/%d median-rounds=%.0f max=%.0f\n",
			cr.Cell.Label, cr.Summary.Completed, cr.Summary.Trials, med, maxR)
	}
	return nil
}
