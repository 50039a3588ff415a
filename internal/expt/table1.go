package expt

import (
	"fmt"
	"io"
	"math"
	"slices"

	"dualgraph/internal/lowerbound"
)

// table1ClassicalRR reproduces the classical-model column of Table 1:
// deterministic broadcast in O(n) rounds (Chlebus et al. [5]) via round
// robin on undirected classical graphs with synchronous start.
func table1ClassicalRR() Experiment {
	return sweepExperiment(Experiment{
		ID:       "table1-classical-rr",
		Title:    "deterministic broadcast in the classical model: round robin is O(n·D)",
		PaperRef: "Table 1, classical column (O(n) [5], Ω(n) [21])",
	}, quickTrim{}, func(tw io.Writer, cells []cell) error {
		fmt.Fprintln(tw, "topology\tn\trounds\trounds/n")
		return fitRows(tw, cells, "\t\t\t", func(c cell) (float64, error) {
			topo, n, rounds := c.Scenario.Topology.Name, c.Net.N(), c.rounds(1)
			if c.Summary.Completed < c.Summary.Trials {
				return 0, fmt.Errorf("%s n=%d: round robin did not complete", topo, n)
			}
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.2f\n", topo, n, rounds, rounds/float64(n))
			return rounds, nil
		})
	})
}

// table1DualStrongSelect reproduces the bold dual-graph entry of Table 1:
// Strong Select completes in O(n^{3/2} √log n) rounds on dual graphs under
// CR4, asynchronous start, and an adaptive adversary. A run past
// strongSelectBudget of its built size fails the experiment.
func table1DualStrongSelect() Experiment {
	return sweepExperiment(Experiment{
		ID:       "table1-dual-strongselect",
		Title:    "Strong Select on dual graphs: O(n^{3/2} √log n) (Theorem 10)",
		PaperRef: "Table 1, dual column (bold O(n^{3/2}√log n)); Section 5",
	}, quickTrim{}, func(tw io.Writer, cells []cell) error {
		fmt.Fprintln(tw, "topology\tn\trounds\trounds/n^1.5\tbound X")
		return fitRows(tw, cells, "\t\t\t", func(c cell) (float64, error) {
			topo, n, rounds := c.Scenario.Topology.Name, c.Net.N(), c.rounds(1)
			bound := strongSelectBudget(n)
			if !c.allWithin(bound) {
				return 0, fmt.Errorf("%s n=%d: strong select exceeded its budget %d", topo, n, bound)
			}
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.3f\t%d\n", topo, n, rounds, rounds/math.Pow(float64(n), 1.5), bound)
			return rounds, nil
		})
	})
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
	return jobExperiment(Experiment{
		ID:       "table1-thm2",
		Title:    "Theorem 2 game: deterministic broadcast needs > n-3 rounds at diameter 2",
		PaperRef: "Theorem 2; Table 1 (Ω(n) [21] vs dual-graph bold row)",
	}, "algorithm\tn\tforced rounds\tn-3\twitness rounds", func(cfg Config) ([]algJob, error) {
		if cfg.Quick {
			return algJobs([]int{16, 32}, true)
		}
		return algJobs([]int{16, 32, 64}, true)
	}, func(_ Config, j algJob) (string, error) {
		res, err := lowerbound.RunTheorem2Game(j.n, j.alg, 0)
		if err != nil {
			return "", err
		}
		if res.ForcedRounds <= j.n-3 {
			return "", fmt.Errorf("theorem 2 violated for %s at n=%d", j.alg.Name(), j.n)
		}
		return fmt.Sprintf("%s\t%d\t%d\t%d\t%d", j.alg.Name(), j.n, res.ForcedRounds, j.n-3, res.WitnessRounds), nil
	})
}

// table1Theorem12 reproduces the Ω(n log n) undirected lower bound
// (Theorem 12) by running the candidate-set adversary game.
func table1Theorem12() Experiment {
	return jobExperiment(Experiment{
		ID:       "table1-thm12",
		Title:    "Theorem 12 game: Ω(n log n) forced rounds on the complete layered network",
		PaperRef: "Theorem 12; Table 1 bold Ω(n log n)",
	}, "algorithm\tn\tforced rounds\ttheory bound\tforced/(n·log n)\tmin stage ext", func(cfg Config) ([]algJob, error) {
		if cfg.Quick {
			return algJobs([]int{9, 17, 33}, false)
		}
		return algJobs([]int{9, 17, 33, 65}, true)
	}, func(_ Config, j algJob) (string, error) {
		res, err := lowerbound.RunTheorem12Game(j.n, j.alg, 0)
		if err != nil {
			return "", err
		}
		if !res.HitHorizon && res.ForcedRounds < res.TheoryBound {
			return "", fmt.Errorf("theorem 12 bound violated for %s at n=%d", j.alg.Name(), j.n)
		}
		minExt := slices.Min(append(res.StageExtensions, res.ForcedRounds))
		norm := float64(res.ForcedRounds) / (float64(j.n) * math.Log2(float64(j.n)))
		return fmt.Sprintf("%s\t%d\t%d\t%d\t%.3f\t%d", j.alg.Name(), j.n, res.ForcedRounds, res.TheoryBound, norm, minExt), nil
	})
}
