// Command dgbench regenerates the paper's tables and figures as measured
// experiments. Run all of them or one by ID (see DESIGN.md for the index):
//
//	dgbench -experiment all
//	dgbench -experiment table1-thm12 -quick
//
// With -reduce-bench N it instead measures streaming-reducer throughput:
// an N-trial memory-bounded sweep of the standard Table 2 workload
// (Harmonic Broadcast vs the greedy collider on the clique-bridge network),
// reporting trials/s and the streamed aggregate.
//
//	dgbench -reduce-bench 100000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/expt"
	"dualgraph/internal/graph"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
	"dualgraph/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dgbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dgbench", flag.ContinueOnError)
	var (
		id          = fs.String("experiment", "all", "experiment id, 'all', or 'list'")
		quick       = fs.Bool("quick", false, "smaller sweeps and trial counts")
		seed        = fs.Int64("seed", 1, "random seed")
		workers     = fs.Int("workers", 0, "trial engine worker count (0 = one per CPU); output is identical at any value")
		reduceBench = fs.Int("reduce-bench", 0, "if > 0, skip experiments and measure streaming-reducer throughput over this many trials")
		list        = fs.Bool("list", false, "print registered topologies/algorithms/adversaries/schedules with parameter docs, then exit (use -experiment list for the experiment index)")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile  = fs.String("memprofile", "", "write a post-GC heap profile to this file after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Open eagerly so a bad path fails before minutes of work, write on
		// the way out so the profile reflects live heap at end of run.
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dgbench: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *list {
		// -list is a pure query; reject any other explicitly-set flag
		// instead of silently ignoring it (the reduce-bench policy).
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "list" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-list prints the registry and runs nothing; drop -%s", conflict)
		}
		registry.WriteList(w)
		return nil
	}
	if *reduceBench > 0 {
		// Reject explicitly-set experiment flags rather than silently
		// ignoring them (the same failure mode dgsim -v used to have).
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "experiment" || f.Name == "quick" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-reduce-bench runs the reducer throughput workload, not experiments; drop -%s", conflict)
		}
		return runReduceBench(w, *reduceBench, *seed, *workers)
	}
	cfg := expt.Config{
		Out:    w,
		Quick:  *quick,
		Seed:   *seed,
		Engine: engine.Config{Workers: *workers},
	}

	switch *id {
	case "list":
		for _, e := range expt.All() {
			fmt.Fprintf(w, "%-26s %s\n", e.ID, e.Title)
		}
		return nil
	case "all":
		for i, e := range expt.All() {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if err := e.Run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	default:
		e, ok := expt.ByID(*id)
		if !ok {
			var ids []string
			for _, x := range expt.All() {
				ids = append(ids, x.ID)
			}
			return fmt.Errorf("unknown experiment %q; known: %s", *id, strings.Join(ids, ", "))
		}
		return e.Run(cfg)
	}
}

// runReduceBench measures the streaming reducer end to end: trials
// independently seeded Harmonic Broadcast runs against the greedy collider
// on the clique-bridge network (the Table 2 workload), folded into shard
// accumulators without retaining any per-trial results. The aggregate line
// is deterministic in (seed, trials); the throughput line is the only
// wall-clock-dependent output.
func runReduceBench(w io.Writer, trials int, seed int64, workers int) error {
	const n = 65
	d, err := graph.CliqueBridge(n)
	if err != nil {
		return err
	}
	alg, err := core.NewHarmonicForN(n, 0.02)
	if err != nil {
		return err
	}
	bound := int(2 * float64(n*alg.T) * stats.HarmonicNumber(n))
	simCfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: seed, MaxRounds: bound}
	ec := engine.Config{Workers: workers}
	fmt.Fprintf(w, "reduce-bench: topology=clique-bridge n=%d alg=%s adversary=greedy-collider rule=CR4 start=async seed=%d trials=%d shards=%d\n",
		n, alg.Name(), seed, trials, engine.Shards(trials))
	start := time.Now()
	cell := engine.Trial{Net: d, Alg: alg, Adv: adversary.GreedyCollider{}, Cfg: simCfg}
	sums, err := engine.RunGrid(context.Background(), []engine.Trial{cell}, trials, ec, engine.StreamConfig{}, engine.Hooks{})
	if err != nil {
		return err
	}
	sum := sums[0]
	elapsed := time.Since(start)
	mean, _ := sum.Rounds.Mean()
	p50, _ := sum.Rounds.Quantile(0.5)
	p95, _ := sum.Rounds.Quantile(0.95)
	maxR, _ := sum.Rounds.Max()
	fmt.Fprintf(w, "completed=%d/%d rounds: mean=%.2f p50=%.2f p95=%.2f max=%.0f\n",
		sum.Completed, sum.Trials, mean, p50, p95, maxR)
	fmt.Fprintf(w, "throughput: %.0f trials/s (%d trials in %v)\n",
		float64(trials)/elapsed.Seconds(), trials, elapsed.Round(time.Millisecond))
	return nil
}
