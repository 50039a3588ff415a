package expt

import (
	"context"
	"fmt"
	"math"

	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/lowerbound"
	"dualgraph/internal/sim"
)

// table1ClassicalRR reproduces the classical-model column of Table 1:
// deterministic broadcast in O(n) rounds (Chlebus et al. [5]) via round
// robin on undirected classical graphs with synchronous start.
func table1ClassicalRR() Experiment {
	e := Experiment{
		ID:       "table1-classical-rr",
		Title:    "deterministic broadcast in the classical model: round robin is O(n·D)",
		PaperRef: "Table 1, classical column (O(n) [5], Ω(n) [21])",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, "topology\tn\trounds\trounds/n")
		for _, topo := range []string{"complete", "line", "tree"} {
			sizes := sweepSizes(cfg.Quick)
			// Each cell is a declarative Scenario run on the Spec path; the
			// registry resolves the same constructors the harness always
			// used, so tables are byte-identical to the positional era.
			results, err := engine.Map(context.Background(), len(sizes), cfg.Engine, func(i int) (*sim.Result, error) {
				scn, err := scenario(topo, sizes[i], "round-robin", "benign",
					sim.CR3, sim.SyncStart, cfg.Seed)
				if err != nil {
					return nil, err
				}
				b, err := scn.Build()
				if err != nil {
					return nil, err
				}
				return b.Run(context.Background())
			})
			if err != nil {
				return err
			}
			var ns []int
			var rounds []float64
			for i, res := range results {
				n := sizes[i]
				if !res.Completed {
					return fmt.Errorf("%s n=%d: round robin did not complete", topo, n)
				}
				ns = append(ns, n)
				rounds = append(rounds, float64(res.Rounds))
				fmt.Fprintf(tw, "%s\t%d\t%d\t%.2f\n", topo, n, res.Rounds, float64(res.Rounds)/float64(n))
			}
			fmt.Fprintf(tw, "%s\t\t\t%s\n", topo, fitLine(ns, rounds))
		}
		return tw.Flush()
	}
	return e
}

// table1DualStrongSelect reproduces the bold dual-graph entry of Table 1:
// Strong Select completes in O(n^{3/2} √log n) rounds on dual graphs under
// CR4, asynchronous start, and an adaptive adversary.
func table1DualStrongSelect() Experiment {
	e := Experiment{
		ID:       "table1-dual-strongselect",
		Title:    "Strong Select on dual graphs: O(n^{3/2} √log n) (Theorem 10)",
		PaperRef: "Table 1, dual column (bold O(n^{3/2}√log n)); Section 5",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, "topology\tn\trounds\trounds/n^1.5\tbound X")
		type row struct {
			nn, rounds, bound int
		}
		for _, topo := range []string{"clique-bridge", "complete-layered", "geometric"} {
			sizes := sweepSizes(cfg.Quick)
			rows, err := engine.Map(context.Background(), len(sizes), cfg.Engine, func(i int) (row, error) {
				scn, err := scenario(topo, sizes[i], "strong-select", "greedy",
					sim.CR4, sim.AsyncStart, cfg.Seed)
				if err != nil {
					return row{}, err
				}
				b, err := scn.Build()
				if err != nil {
					return row{}, err
				}
				// The round budget depends on the built size, which a
				// structural generator may have adjusted, so it is set after
				// materializing rather than in the spec.
				nn := b.Net.N()
				bound := strongSelectBudget(nn)
				b.Cfg.MaxRounds = bound
				res, err := b.Run(context.Background())
				if err != nil {
					return row{}, err
				}
				if !res.Completed {
					return row{}, fmt.Errorf("%s n=%d: strong select exceeded its budget %d", topo, nn, bound)
				}
				return row{nn: nn, rounds: res.Rounds, bound: bound}, nil
			})
			if err != nil {
				return err
			}
			var ns []int
			var rounds []float64
			for _, r := range rows {
				ns = append(ns, r.nn)
				rounds = append(rounds, float64(r.rounds))
				norm := float64(r.rounds) / math.Pow(float64(r.nn), 1.5)
				fmt.Fprintf(tw, "%s\t%d\t%d\t%.3f\t%d\n", topo, r.nn, r.rounds, norm, r.bound)
			}
			fmt.Fprintf(tw, "%s\t\t\t%s\n", topo, fitLine(ns, rounds))
		}
		return tw.Flush()
	}
	return e
}

// strongSelectBudget is a generous executable form of the Theorem 10 bound,
// with the constructive families' extra log factor folded into the constant.
func strongSelectBudget(n int) int {
	nf := float64(n)
	return int(40*nf*math.Sqrt(nf)*math.Log2(nf)) + 2000
}

// table1Theorem2 reproduces the Ω(n) lower bound for 2-broadcastable
// networks (Theorem 2): the adversary game forces every deterministic
// algorithm past n-3 rounds in a network broadcastable in 2 rounds.
func table1Theorem2() Experiment {
	e := Experiment{
		ID:       "table1-thm2",
		Title:    "Theorem 2 game: deterministic broadcast needs > n-3 rounds at diameter 2",
		PaperRef: "Theorem 2; Table 1 (Ω(n) [21] vs dual-graph bold row)",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, "algorithm\tn\tforced rounds\tn-3\twitness rounds")
		sizes := []int{16, 32, 64}
		if cfg.Quick {
			sizes = []int{16, 32}
		}
		type job struct {
			n   int
			alg sim.Algorithm
		}
		var jobs []job
		for _, n := range sizes {
			ss, err := core.NewStrongSelect(n)
			if err != nil {
				return err
			}
			jobs = append(jobs, job{n, core.NewRoundRobin()}, job{n, ss})
		}
		results, err := engine.Map(context.Background(), len(jobs), cfg.Engine, func(i int) (*lowerbound.Theorem2Result, error) {
			return lowerbound.RunTheorem2Game(jobs[i].n, jobs[i].alg, 0)
		})
		if err != nil {
			return err
		}
		for i, res := range results {
			j := jobs[i]
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n",
				j.alg.Name(), j.n, res.ForcedRounds, j.n-3, res.WitnessRounds)
			if res.ForcedRounds <= j.n-3 {
				return fmt.Errorf("theorem 2 violated for %s at n=%d", j.alg.Name(), j.n)
			}
		}
		return tw.Flush()
	}
	return e
}

// table1Theorem12 reproduces the Ω(n log n) undirected lower bound
// (Theorem 12) by running the candidate-set adversary game.
func table1Theorem12() Experiment {
	e := Experiment{
		ID:       "table1-thm12",
		Title:    "Theorem 12 game: Ω(n log n) forced rounds on the complete layered network",
		PaperRef: "Theorem 12; Table 1 bold Ω(n log n)",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, "algorithm\tn\tforced rounds\ttheory bound\tforced/(n·log n)\tmin stage ext")
		sizes := []int{9, 17, 33, 65}
		if cfg.Quick {
			sizes = []int{9, 17, 33}
		}
		type job struct {
			n   int
			alg sim.Algorithm
		}
		var jobs []job
		for _, n := range sizes {
			jobs = append(jobs, job{n, core.NewRoundRobin()})
			if !cfg.Quick {
				ss, err := core.NewStrongSelect(n)
				if err != nil {
					return err
				}
				jobs = append(jobs, job{n, ss})
			}
		}
		results, err := engine.Map(context.Background(), len(jobs), cfg.Engine, func(i int) (*lowerbound.Theorem12Result, error) {
			return lowerbound.RunTheorem12Game(jobs[i].n, jobs[i].alg, 0)
		})
		if err != nil {
			return err
		}
		for i, res := range results {
			j := jobs[i]
			minExt := res.ForcedRounds
			for _, ext := range res.StageExtensions {
				if ext < minExt {
					minExt = ext
				}
			}
			norm := float64(res.ForcedRounds) / (float64(j.n) * math.Log2(float64(j.n)))
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%d\n",
				j.alg.Name(), j.n, res.ForcedRounds, res.TheoryBound, norm, minExt)
			if !res.HitHorizon && res.ForcedRounds < res.TheoryBound {
				return fmt.Errorf("theorem 12 bound violated for %s at n=%d", j.alg.Name(), j.n)
			}
		}
		return tw.Flush()
	}
	return e
}
