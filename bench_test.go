// Benchmarks regenerating the paper's evaluation: one benchmark per table
// row family / figure / ablation (`dgbench -experiment list` prints the
// experiment index).
// Besides ns/op they report the domain metric that the paper's tables are
// about — broadcast rounds — via the custom "rounds" metric.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package dualgraph_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"dualgraph"
	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/exhaustive"
	"dualgraph/internal/expt"
	"dualgraph/internal/graph"
	"dualgraph/internal/interference"
	"dualgraph/internal/linkest"
	"dualgraph/internal/lowerbound"
	"dualgraph/internal/metrics"
	"dualgraph/internal/repeat"
	"dualgraph/internal/sim"
	"dualgraph/internal/ssf"
	"dualgraph/internal/stats"
)

// benchRun executes one simulation per iteration and reports the mean
// completion round as the "rounds" metric.
func benchRun(b *testing.B, d *graph.Dual, mkAlg func() (sim.Algorithm, error), adv sim.Adversary, cfg sim.Config) {
	b.Helper()
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alg, err := mkAlg()
		if err != nil {
			b.Fatal(err)
		}
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		res, err := sim.Run(d, alg, adv, c)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatalf("broadcast incomplete within %d rounds", c.MaxRounds)
		}
		total += res.Rounds
	}
	b.ReportMetric(float64(total)/float64(b.N), "rounds")
}

// BenchmarkTable1ClassicalRoundRobin — Table 1, classical column: O(n)
// deterministic broadcast (round robin, benign adversary, G = G').
func BenchmarkTable1ClassicalRoundRobin(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// The line is the hard O(n) case: one hop per full schedule pass
			// is not needed because node ids advance along the path, so
			// round robin finishes in n-1 rounds — linear, as Table 1 says.
			d, err := graph.Line(n)
			if err != nil {
				b.Fatal(err)
			}
			benchRun(b, d, func() (sim.Algorithm, error) { return core.NewRoundRobin(), nil },
				adversary.Benign{}, sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1})
		})
	}
}

// BenchmarkTable1DualStrongSelect — Table 1, dual column (bold): Strong
// Select under CR4/async against the adaptive adversary.
func BenchmarkTable1DualStrongSelect(b *testing.B) {
	for _, n := range []int{33, 65, 129, 257} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := graph.CliqueBridge(n)
			if err != nil {
				b.Fatal(err)
			}
			benchRun(b, d, func() (sim.Algorithm, error) { return core.NewStrongSelect(n) },
				adversary.GreedyCollider{}, sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1})
		})
	}
}

// BenchmarkTable1Theorem2LowerBound — the Theorem 2 adversary game (forced
// rounds > n-3 at diameter 2).
func BenchmarkTable1Theorem2LowerBound(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			forced := 0
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.RunTheorem2Game(n, core.NewRoundRobin(), 0)
				if err != nil {
					b.Fatal(err)
				}
				forced = res.ForcedRounds
			}
			b.ReportMetric(float64(forced), "forced-rounds")
		})
	}
}

// BenchmarkTable1Theorem12LowerBound — the Theorem 12 candidate-set game
// (forced rounds ≥ (n-1)/4·(log2(n-1)-2)).
func BenchmarkTable1Theorem12LowerBound(b *testing.B) {
	for _, n := range []int{9, 17, 33} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			forced := 0
			for i := 0; i < b.N; i++ {
				res, err := lowerbound.RunTheorem12Game(n, core.NewRoundRobin(), 0)
				if err != nil {
					b.Fatal(err)
				}
				forced = res.ForcedRounds
			}
			b.ReportMetric(float64(forced), "forced-rounds")
		})
	}
}

// BenchmarkTable2ClassicalDecay — Table 2, classical column: randomized
// broadcast via Decay on classical graphs.
func BenchmarkTable2ClassicalDecay(b *testing.B) {
	for _, n := range []int{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := graph.Complete(n)
			if err != nil {
				b.Fatal(err)
			}
			benchRun(b, d, func() (sim.Algorithm, error) { return core.NewDecay(), nil },
				adversary.Benign{}, sim.Config{Rule: sim.CR3, Start: sim.AsyncStart, Seed: 1, MaxRounds: 4000 * n})
		})
	}
}

// BenchmarkTable2DualHarmonic — Table 2, dual column (bold): Harmonic
// Broadcast on dual graphs against the adaptive adversary.
func BenchmarkTable2DualHarmonic(b *testing.B) {
	for _, n := range []int{33, 65, 129, 257} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, err := graph.CliqueBridge(n)
			if err != nil {
				b.Fatal(err)
			}
			alg, err := core.NewHarmonicForN(n, 0.02)
			if err != nil {
				b.Fatal(err)
			}
			bound := int(2 * float64(n*alg.T) * stats.HarmonicNumber(n))
			benchRun(b, d, func() (sim.Algorithm, error) { return alg, nil },
				adversary.GreedyCollider{}, sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1, MaxRounds: bound})
		})
	}
}

// BenchmarkTable2Theorem4 — the Theorem 4 Monte-Carlo harness.
func BenchmarkTable2Theorem4(b *testing.B) {
	n, k := 14, 5
	alg, err := core.NewUniform(0.25)
	if err != nil {
		b.Fatal(err)
	}
	minSuccess := 0.0
	for i := 0; i < b.N; i++ {
		res, err := lowerbound.RunTheorem4(n, k, 40, alg, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		minSuccess = res.MinSuccess
	}
	b.ReportMetric(minSuccess, "min-success")
	b.ReportMetric(float64(k)/float64(n-2), "thm4-bound")
}

// BenchmarkSeparation — classical vs dual on the same topology (Section 1
// separation claim), reported as dual rounds for Strong Select.
func BenchmarkSeparation(b *testing.B) {
	n := 65
	dual, err := graph.CliqueBridge(n)
	if err != nil {
		b.Fatal(err)
	}
	classical, err := graph.NewDualGraphs(dual.G(), dual.G(), dual.Source())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("classical", func(b *testing.B) {
		benchRun(b, classical, func() (sim.Algorithm, error) { return core.NewStrongSelect(n) },
			adversary.Benign{}, sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1})
	})
	b.Run("dual", func(b *testing.B) {
		benchRun(b, dual, func() (sim.Algorithm, error) { return core.NewStrongSelect(n) },
			adversary.GreedyCollider{}, sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1})
	})
}

// BenchmarkBusyRounds — Lemma 15 busy-round counting over wake-up patterns.
func BenchmarkBusyRounds(b *testing.B) {
	n, T := 128, 4
	pattern := core.FrontLoadedPattern(n)
	bound := float64(n*T) * stats.HarmonicNumber(n)
	horizon := int(4*bound) + 100
	busy := 0
	for i := 0; i < b.N; i++ {
		busy = core.BusyRounds(pattern, T, horizon)
		if float64(busy) > bound {
			b.Fatalf("Lemma 15 violated: %d > %.0f", busy, bound)
		}
	}
	b.ReportMetric(float64(busy), "busy-rounds")
	b.ReportMetric(bound, "lemma15-bound")
}

// BenchmarkSSFConstruction — constructive Kautz-Singleton SSF sizes
// (Section 5 selection objects).
func BenchmarkSSFConstruction(b *testing.B) {
	for _, c := range []struct{ n, k int }{{1024, 4}, {4096, 8}, {16384, 16}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", c.n, c.k), func(b *testing.B) {
			size := 0
			for i := 0; i < b.N; i++ {
				f, err := ssf.NewReedSolomon(c.n, c.k)
				if err != nil {
					b.Fatal(err)
				}
				size = f.Size()
			}
			b.ReportMetric(float64(size), "family-size")
		})
	}
}

// BenchmarkLemma1Reduction — dual-graph algorithm on an
// explicit-interference network via the Appendix A reduction adversary.
func BenchmarkLemma1Reduction(b *testing.B) {
	d, err := graph.RandomDual(64, 0.12, 0.35, dualgraph.NewRand(5))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			alg, err := core.NewHarmonicForN(64, 0.02)
			if err != nil {
				b.Fatal(err)
			}
			res, _, err := interference.Run(d, alg, sim.Config{Seed: int64(i), MaxRounds: 200000})
			if err != nil {
				b.Fatal(err)
			}
			total += res.Rounds
		}
		b.ReportMetric(float64(total)/float64(b.N), "rounds")
	})
	b.Run("reduction", func(b *testing.B) {
		benchRun(b, d, func() (sim.Algorithm, error) { return core.NewHarmonicForN(64, 0.02) },
			interference.ReductionAdversary{}, sim.Config{Seed: 0, MaxRounds: 200000})
	})
}

// BenchmarkCollisionRules — CR1-CR4 ablation on the layered network.
func BenchmarkCollisionRules(b *testing.B) {
	n := 33
	d, err := graph.CompleteLayered(n)
	if err != nil {
		b.Fatal(err)
	}
	for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4} {
		b.Run(rule.String(), func(b *testing.B) {
			benchRun(b, d, func() (sim.Algorithm, error) { return core.NewStrongSelect(n) },
				adversary.GreedyCollider{}, sim.Config{Rule: rule, Start: sim.AsyncStart, Seed: 1})
		})
	}
}

// BenchmarkHarmonicT — Harmonic Broadcast T ablation (Theorem 18 parameter).
func BenchmarkHarmonicT(b *testing.B) {
	n := 33
	d, err := graph.CliqueBridge(n)
	if err != nil {
		b.Fatal(err)
	}
	paperT := core.HarmonicT(n, 0.02)
	for _, mult := range []float64{0.5, 1, 2} {
		T := int(float64(paperT) * mult)
		b.Run(fmt.Sprintf("T=%.1fx", mult), func(b *testing.B) {
			benchRun(b, d, func() (sim.Algorithm, error) { return core.NewHarmonic(T) },
				adversary.GreedyCollider{}, sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1,
					MaxRounds: 40 * n * paperT})
		})
	}
}

// BenchmarkAdversaryStrength — adversary ablation for Harmonic Broadcast.
func BenchmarkAdversaryStrength(b *testing.B) {
	n := 33
	d, err := graph.CliqueBridge(n)
	if err != nil {
		b.Fatal(err)
	}
	rnd, err := adversary.NewRandom(0.5)
	if err != nil {
		b.Fatal(err)
	}
	advs := []sim.Adversary{adversary.Benign{}, rnd, adversary.GreedyCollider{}, adversary.FullDelivery{}}
	for _, adv := range advs {
		b.Run(adv.Name(), func(b *testing.B) {
			benchRun(b, d, func() (sim.Algorithm, error) { return core.NewHarmonicForN(n, 0.02) },
				adv, sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1, MaxRounds: 400 * n * 10})
		})
	}
}

// BenchmarkExtDeltaSelect — the Section 2.2 Δ-aware baseline on a
// low-degree network where it should win.
func BenchmarkExtDeltaSelect(b *testing.B) {
	d, err := graph.Line(65)
	if err != nil {
		b.Fatal(err)
	}
	delta := d.GPrime().MaxInDegree()
	b.Run("delta-select", func(b *testing.B) {
		benchRun(b, d, func() (sim.Algorithm, error) { return core.NewDeltaSelect(65, delta) },
			adversary.GreedyCollider{}, sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1})
	})
	b.Run("strong-select", func(b *testing.B) {
		benchRun(b, d, func() (sim.Algorithm, error) { return core.NewStrongSelect(65) },
			adversary.GreedyCollider{}, sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1})
	})
}

// BenchmarkExtRepeatedBroadcast — sequential vs pipelined repeated
// broadcast throughput (Section 8 future work).
func BenchmarkExtRepeatedBroadcast(b *testing.B) {
	d, err := graph.CliqueBridge(16)
	if err != nil {
		b.Fatal(err)
	}
	seq, err := repeat.NewSequential(48, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := repeat.NewPipelined(false, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []repeat.Protocol{seq, pipe} {
		b.Run(p.Name(), func(b *testing.B) {
			throughput := 0.0
			for i := 0; i < b.N; i++ {
				res, err := repeat.Run(d, p, repeat.Config{
					Messages: 8, MaxRounds: 100000, Seed: int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal("repeated broadcast incomplete")
				}
				throughput = res.Throughput
			}
			b.ReportMetric(throughput, "msgs/round")
		})
	}
}

// BenchmarkExtLinkCulling — the probe-cull pipeline of the introduction.
func BenchmarkExtLinkCulling(b *testing.B) {
	d, err := graph.Grid(5, 5, 2, 0.5, dualgraph.NewRand(3))
	if err != nil {
		b.Fatal(err)
	}
	fp := 0
	for i := 0; i < b.N; i++ {
		s, err := linkest.Probe(d, 0.95, 200, 0.75, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		fp = s.FalsePositives
	}
	b.ReportMetric(float64(fp), "false-positives")
}

// BenchmarkExtExhaustiveSearch — exhaustive worst-case adversary search on
// the tiny Theorem 2 network.
func BenchmarkExtExhaustiveSearch(b *testing.B) {
	d, err := graph.CliqueBridge(5)
	if err != nil {
		b.Fatal(err)
	}
	worst := 0
	for i := 0; i < b.N; i++ {
		res, err := exhaustive.Search(d, core.NewRoundRobin(), exhaustive.Config{
			Rule: sim.CR1, Horizon: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
		worst = res.WorstRounds
	}
	b.ReportMetric(float64(worst), "worst-rounds")
}

// BenchmarkAdaptiveAdversaryRound prices one planned round of the adaptive
// best-response adversary on the 5-node clique-bridge: "miss" builds a fresh
// planner per iteration (cold transposition table, full best-response
// search), "hit" re-plans the same position against a warmed table, so the
// pair brackets the table's value. "waypoint" is a cold round on a mobile
// network (waypoint schedule, 3-round epochs, delivery horizon 3), where
// every search node's replay crosses epoch boundaries: it prices the
// planner's per-game epoch memo.
func BenchmarkAdaptiveAdversaryRound(b *testing.B) {
	d, err := graph.CliqueBridge(5)
	if err != nil {
		b.Fatal(err)
	}
	sched := graph.Static(d)
	cfg := exhaustive.PlannerConfig{Rule: sim.CR1, SearchRounds: 40}
	b.Run("miss", func(b *testing.B) {
		entries := 0
		for i := 0; i < b.N; i++ {
			p, err := exhaustive.NewPlanner(sched, core.NewRoundRobin(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Plan(nil); err != nil {
				b.Fatal(err)
			}
			entries = p.TableLen()
		}
		b.ReportMetric(float64(entries), "table-entries")
	})
	b.Run("waypoint", func(b *testing.B) {
		base, err := graph.CliqueBridge(9)
		if err != nil {
			b.Fatal(err)
		}
		wp, err := graph.NewWaypoint(base, 3, 4, 0.28, 0.7)
		if err != nil {
			b.Fatal(err)
		}
		wcfg := exhaustive.PlannerConfig{Rule: sim.CR1, Start: sim.AsyncStart, Seed: 60, SearchRounds: 16, DeliverRounds: 3}
		for i := 0; i < b.N; i++ {
			p, err := exhaustive.NewPlanner(wp, core.NewRoundRobin(), wcfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Plan(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		p, err := exhaustive.NewPlanner(sched, core.NewRoundRobin(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Plan(nil); err != nil { // warm the table
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.Plan(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchEngineTrials is the Monte Carlo workload used to compare the
// sequential and parallel materializing paths (engine.Map over
// Trial.Execute): Harmonic Broadcast against the greedy collider on the
// clique-bridge network.
func benchEngineTrials(b *testing.B, workers int) {
	b.Helper()
	n := 65
	d, err := graph.CliqueBridge(n)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(n, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	bound := int(2 * float64(n*alg.T) * stats.HarmonicNumber(n))
	simCfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1, MaxRounds: bound}
	const trials = 64
	cell := engine.Trial{Net: d, Sched: graph.Static(d), Alg: alg, Adv: adversary.GreedyCollider{}, Cfg: simCfg}
	execute := func(i int) (*sim.Result, error) { return cell.Execute(context.Background(), i) }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := engine.Map(context.Background(), trials, engine.Config{Workers: workers}, execute)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if !res.Completed {
				b.Fatal("broadcast incomplete")
			}
		}
	}
	b.ReportMetric(float64(trials), "trials/op")
}

// BenchmarkEngineSequential is the single-worker baseline for the trial
// engine: 64 Table 2 style trials on one core.
func BenchmarkEngineSequential(b *testing.B) {
	benchEngineTrials(b, 1)
}

// BenchmarkEngineParallel fans the same 64 trials out over one worker per
// CPU. On a machine with >= 4 cores this shows the engine's multi-core
// speedup (>= 2x vs BenchmarkEngineSequential); results are bit-identical
// to the sequential run either way.
func BenchmarkEngineParallel(b *testing.B) {
	benchEngineTrials(b, runtime.GOMAXPROCS(0))
}

// benchEngineReduce runs the same Monte Carlo workload as benchEngineTrials
// through the streaming grid reducer (a grid of one cell): identical trials
// and seeds, but folded into shard accumulators instead of a materialized
// result slice.
func benchEngineReduce(b *testing.B, workers int) {
	b.Helper()
	n := 65
	d, err := graph.CliqueBridge(n)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(n, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	bound := int(2 * float64(n*alg.T) * stats.HarmonicNumber(n))
	simCfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1, MaxRounds: bound}
	const trials = 64
	cells := []engine.Trial{{Net: d, Alg: alg, Adv: adversary.GreedyCollider{}, Cfg: simCfg}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, err := engine.RunGrid(context.Background(), cells, trials, engine.Config{Workers: workers}, engine.StreamConfig{}, engine.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		sum := sums[0]
		if sum.Completed != trials {
			b.Fatalf("broadcast incomplete: %d/%d", sum.Completed, sum.Trials)
		}
	}
	b.ReportMetric(float64(trials), "trials/op")
}

// BenchmarkEngineReduceSequential is the single-worker streaming-reducer
// baseline: same workload as BenchmarkEngineSequential, O(shards) memory.
func BenchmarkEngineReduceSequential(b *testing.B) {
	benchEngineReduce(b, 1)
}

// BenchmarkEngineReduceParallel fans the reducer's shards out over one
// worker per CPU; the summary is bit-identical to the sequential run.
func BenchmarkEngineReduceParallel(b *testing.B) {
	benchEngineReduce(b, runtime.GOMAXPROCS(0))
}

// benchSimRoundLoop drives 2000 rounds of the word-parallel delivery core on
// the clique-bridge workload — Start plus 2000 Steps, past completion; sched
// selects between the static schedule (nil: its epoch never ends) and a
// dynamic schedule paying overlay epoch swaps.
func benchSimRoundLoop(b *testing.B, sched func(*graph.Dual) (graph.Schedule, error)) {
	b.Helper()
	d, err := graph.CliqueBridge(65)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.NewUniform(0.3)
	if err != nil {
		b.Fatal(err)
	}
	stepRoundLoop(b, d, alg, sim.SyncStart, sched)
}

// stepRoundLoop plays runs of alg against the greedy collider under CR4 on
// d, each Start plus Steps to a 2000-round cap, one run per iteration with
// the iteration as its seed.
func stepRoundLoop(b *testing.B, d *graph.Dual, alg sim.Algorithm, start sim.StartRule, sched func(*graph.Dual) (graph.Schedule, error)) {
	b.Helper()
	cfg := sim.Config{Rule: sim.CR4, Start: start, MaxRounds: 2000}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		var s graph.Schedule = graph.Static(d)
		if sched != nil {
			var err error
			if s, err = sched(d); err != nil {
				b.Fatal(err)
			}
		}
		run, err := sim.Start(s, alg, adversary.GreedyCollider{}, cfg)
		for err == nil && run.Round() < cfg.MaxRounds {
			_, err = run.Step()
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRoundLoop measures the steady-state cost of the delivery hot
// path on a static network: the headline perf-trajectory number (PR 2→7 in
// README's performance notes). Steady-state rounds must not allocate
// (allocs/op stays flat in the round count, dominated by per-run setup).
func BenchmarkSimRoundLoop(b *testing.B) {
	benchSimRoundLoop(b, nil)
}

// BenchmarkSimRoundLoopDynamic runs the identical workload under a churn
// schedule (epoch every 50 rounds): the delta against BenchmarkSimRoundLoop is
// the whole price of dynamics — the epoch's overlay, the reads that filter
// base rows through it, and delivery-mask refreshes at the boundary.
func BenchmarkSimRoundLoopDynamic(b *testing.B) {
	benchSimRoundLoop(b, func(d *graph.Dual) (graph.Schedule, error) {
		return graph.NewChurn(d, 50, 0.05)
	})
}

// BenchmarkSimRoundLoopFade is the fade twin of BenchmarkSimRoundLoopDynamic:
// every epoch demotes reliable arcs into the fringe, so the mask refresh and
// the greedy collider's membership tests read the faded-arc set per arc.
func BenchmarkSimRoundLoopFade(b *testing.B) {
	benchSimRoundLoop(b, func(d *graph.Dual) (graph.Schedule, error) {
		return graph.NewFade(d, 50, 0.3)
	})
}

// BenchmarkSimRoundLoopSparse is the round loop on the sparse side of the
// long-trials benchmark workload: harmonic broadcast on a geometric n=1024
// network (radii .06/.1) under the greedy collider, CR4 and asynchronous
// starts, stepped to the 2000-round cap, short of completion (those trials
// take 2.5k–2.9k rounds). The delivery buffers run in sparse mode, and
// most of a round is the greedy collider's jam search.
func BenchmarkSimRoundLoopSparse(b *testing.B) {
	const n = 1024
	d, err := graph.Geometric(n, 0.06, 0.1, dualgraph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(n, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	stepRoundLoop(b, d, alg, sim.AsyncStart, nil)
}

// BenchmarkRunSetup isolates per-run setup — proc assignment, process
// construction with their per-pid SplitMix64 streams, run buffers, the
// result — from the round loop: one round of Decay at n=256 on the
// short-trials geometric network, under the greedy collider. ns/op and
// B/op are both the cost of setting a run up; the bench-compare gate
// watches both.
func BenchmarkRunSetup(b *testing.B) {
	d, err := graph.Geometric(256, 0.12, 0.25, dualgraph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	alg := core.NewDecay()
	cfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := sim.Run(d, alg, adversary.GreedyCollider{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsOverhead pins the observability tax on the sim hot path:
// the same dynamic round-loop workload as BenchmarkSimRoundLoopDynamic (the
// variant that actually crosses metric sites — the static path has zero
// metrics code) with the global gate on versus off. The two sub-benchmark
// deltas are the whole per-run cost of instrumentation, which the bench
// compare gate keeps under its regression threshold.
func BenchmarkMetricsOverhead(b *testing.B) {
	churn := func(d *graph.Dual) (graph.Schedule, error) {
		return graph.NewChurn(d, 50, 0.05)
	}
	b.Run("instrumented", func(b *testing.B) {
		metrics.SetEnabled(true)
		benchSimRoundLoop(b, churn)
	})
	b.Run("uninstrumented", func(b *testing.B) {
		metrics.SetEnabled(false)
		defer metrics.SetEnabled(true)
		benchSimRoundLoop(b, churn)
	})
}

// BenchmarkExperimentsQuick runs the full experiment registry in quick mode
// once per iteration; it is the end-to-end cost of regenerating every table.
func BenchmarkExperimentsQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range expt.All() {
			if err := e.Run(expt.Config{Out: discard{}, Quick: true, Seed: 3}); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// benchGridSweep executes a 4-cell × 16-trial declarative grid (two
// topologies × two algorithms of the Table 1/2 workloads) through
// Sweep.Run. Work is fanned out at (cell, shard) granularity, so the
// parallel variant exercises cross-cell parallelism on top of within-cell
// sharding; the GridResult is bit-identical between the two variants.
func benchGridSweep(b *testing.B, workers int) {
	b.Helper()
	base, err := dualgraph.NewScenario(dualgraph.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	sweep := dualgraph.Sweep{
		Base:       base,
		Topologies: []dualgraph.Choice{{Name: "clique-bridge"}, {Name: "complete-layered"}},
		Algorithms: []dualgraph.Choice{{Name: "harmonic"}, {Name: "strong-select"}},
		Ns:         []int{17},
		Trials:     16,
	}
	cells := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid, err := sweep.Run(context.Background(), dualgraph.EngineConfig{Workers: workers}, dualgraph.StreamConfig{}, dualgraph.SweepHooks{})
		if err != nil {
			b.Fatal(err)
		}
		cells = len(grid.Cells)
		for _, cr := range grid.Cells {
			if cr.Summary.Completed != cr.Summary.Trials {
				b.Fatalf("cell %s incomplete: %d/%d", cr.Cell.Label, cr.Summary.Completed, cr.Summary.Trials)
			}
		}
	}
	b.ReportMetric(float64(cells*sweep.Trials), "trials/op")
}

// BenchmarkGridSweepSequential runs the grid's cells on a single worker:
// the sequential-cells baseline for cross-cell throughput.
func BenchmarkGridSweepSequential(b *testing.B) {
	benchGridSweep(b, 1)
}

// BenchmarkGridSweepParallel fans the same (cell, shard) units over one
// worker per CPU; output is bit-identical to the sequential run.
func BenchmarkGridSweepParallel(b *testing.B) {
	benchGridSweep(b, runtime.GOMAXPROCS(0))
}

// BenchmarkEpochSwap measures the epoch-boundary cost of the dynamics
// layer in isolation: successive churn epochs of a 1000-node geometric dual,
// each an overlay holding its down set — the price a dynamic run pays every
// epoch-len rounds, while rounds within an epoch stay on the allocation-free
// hot path. The arcs/epoch metric builds the last epoch's cores, outside the
// timed loop.
func BenchmarkEpochSwap(b *testing.B) {
	d, err := graph.Geometric(1000, 0.06, 0.14, dualgraph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	sched, err := graph.NewChurn(d, 8, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	var ep *graph.Dual
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ep, err = sched.Epoch(1+i%64, 7); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(ep.GPrime().NumEdges()), "arcs/epoch")
}

// BenchmarkEpochSwapIncremental sweeps the per-epoch churn probability: a
// churn swap draws one coin per node and allocates only the down set, so its
// cost should stay flat in the rate, where the old full Builder→Freeze
// rebuild and the later row-patching path grew with the rows they touched.
func BenchmarkEpochSwapIncremental(b *testing.B) {
	d, err := graph.Geometric(1000, 0.06, 0.14, dualgraph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, pDown := range []float64{0.002, 0.02, 0.2} {
		b.Run(fmt.Sprintf("pDown=%g", pDown), func(b *testing.B) {
			sched, err := graph.NewChurn(d, 8, pDown)
			if err != nil {
				b.Fatal(err)
			}
			swaps := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ep, err := sched.Epoch(1+i%64, 7)
				if err != nil {
					b.Fatal(err)
				}
				if ep != nil {
					swaps++
				}
			}
			_ = swaps
		})
	}
}

// BenchmarkEpochSwapSchedules prices one epoch of each built-in mutation
// policy on the churn-epochs benchmark network (geometric n=1024, radii
// .06/.12) with that workload's schedule parameters: churn and fade compute
// an overlay over the base (a down set, a faded-arc set), waypoint builds a
// fresh geometric dual straight into CSR from the epoch's interpolated
// positions. The arcs/epoch metric builds the last epoch's cores, outside
// the timed loop.
func BenchmarkEpochSwapSchedules(b *testing.B) {
	d, err := graph.Geometric(1024, 0.06, 0.12, dualgraph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	churn, err := graph.NewChurn(d, 4, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	fade, err := graph.NewFade(d, 4, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	waypoint, err := graph.NewWaypoint(d, 8, 4, 0.06, 0.12)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		sched graph.Schedule
	}{{"churn", churn}, {"fade", fade}, {"waypoint", waypoint}} {
		b.Run(c.name, func(b *testing.B) {
			var ep *graph.Dual
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ep, err = c.sched.Epoch(1+i%64, 7); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ep.GPrime().NumEdges()), "arcs/epoch")
		})
	}
}

// benchDynamicSweep runs a churn-schedule Monte Carlo sweep through the
// streaming grid reducer (a grid of one dynamic cell): the end-to-end
// dynamics path (epoch builds + swaps + round loop) under the engine's
// per-trial seed derivation.
func benchDynamicSweep(b *testing.B, workers int) {
	b.Helper()
	n := 65
	d, err := graph.Geometric(n, 0.28, 0.7, dualgraph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	sched, err := graph.NewChurn(d, 8, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(n, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	bound := int(4 * float64(n*alg.T) * stats.HarmonicNumber(n))
	simCfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1, MaxRounds: bound}
	const trials = 32
	cells := []engine.Trial{{Net: d, Sched: sched, Alg: alg, Adv: adversary.GreedyCollider{}, Cfg: simCfg}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sums, err := engine.RunGrid(context.Background(), cells, trials, engine.Config{Workers: workers}, engine.StreamConfig{}, engine.Hooks{})
		if err != nil {
			b.Fatal(err)
		}
		sum := sums[0]
		if sum.Completed != trials {
			b.Fatalf("broadcast incomplete: %d/%d", sum.Completed, sum.Trials)
		}
	}
	b.ReportMetric(float64(trials), "trials/op")
}

// BenchmarkDynamicSweepSequential is the single-worker dynamics baseline:
// 32 churn-schedule trials on one core.
func BenchmarkDynamicSweepSequential(b *testing.B) {
	benchDynamicSweep(b, 1)
}

// BenchmarkDynamicSweepParallel fans the same dynamic trials over one
// worker per CPU; the summary is bit-identical to the sequential run.
func BenchmarkDynamicSweepParallel(b *testing.B) {
	benchDynamicSweep(b, runtime.GOMAXPROCS(0))
}

// BenchmarkCheckpointWriteRestore measures the full checkpoint round trip a
// resumed sweep pays: append every (cell, shard) record of a grid (fsync per
// record — crash safety is the point), then recover the file and build the
// engine seed map. The accumulator itself is folded once outside the timer;
// the benchmark isolates the persistence layer.
func BenchmarkCheckpointWriteRestore(b *testing.B) {
	const (
		cells  = 4
		trials = 64
	)
	n := 17
	d, err := graph.Geometric(n, 0.28, 0.7, dualgraph.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(n, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	bound := int(4 * float64(n*alg.T) * stats.HarmonicNumber(n))
	simCfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 1, MaxRounds: bound}
	shards := engine.Shards(trials)
	sc := engine.StreamConfig{ExactK: 8}
	// One folded single-trial shard, reused for every unit: the records are
	// shaped exactly like a real checkpoint's without re-running the grid.
	sum, err := engine.FoldShardContext(context.Background(),
		engine.Trial{Net: d, Alg: alg, Adv: adversary.GreedyCollider{}, Cfg: simCfg}, 0, 1, sc)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]dualgraph.CheckpointRecord, 0, cells*shards)
	for c := 0; c < cells; c++ {
		for s := 0; s < shards; s++ {
			lo, hi := engine.ShardRange(trials, s)
			recs = append(recs, dualgraph.CheckpointRecord{
				Cell: c, Shard: s, TrialLo: lo, TrialHi: hi, Summary: sum,
			})
		}
	}
	meta := dualgraph.CheckpointMetaFor("bench", cells, trials, sc)
	path := filepath.Join(b.TempDir(), "bench.ckpt")

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := dualgraph.CreateCheckpoint(path, meta)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		got, _, err := dualgraph.RecoverCheckpoint(path, meta)
		if err != nil {
			b.Fatal(err)
		}
		if seed := dualgraph.CheckpointSeed(got); len(seed) != cells*shards {
			b.Fatalf("recovered %d units, want %d", len(seed), cells*shards)
		}
	}
	b.ReportMetric(float64(cells*shards), "records/op")
}
