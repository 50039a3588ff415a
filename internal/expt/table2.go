package expt

import (
	"fmt"
	"io"
	"math"

	"dualgraph/internal/core"
	"dualgraph/internal/lowerbound"
	"dualgraph/internal/sim"
	"dualgraph/internal/stats"
)

// table2ClassicalDecay reproduces the classical-model column of Table 2:
// randomized broadcast in O(D log(n/D) + log² n) rounds (Czumaj-Rytter
// [12]); our executable stand-in is the Decay protocol of Bar-Yehuda et al.
// A run past 400n rounds fails the experiment.
func table2ClassicalDecay() Experiment {
	return sweepExperiment(Experiment{
		ID:       "table2-classical-decay",
		Title:    "randomized broadcast in the classical model: Decay",
		PaperRef: "Table 2, classical column (O(n log(n/D)+log²n) [12])",
	}, quickTrim{trials: 5}, func(tw io.Writer, cells []cell) error {
		fmt.Fprintln(tw, "topology\tn\tmedian rounds\tmax rounds\tcompleted")
		return fitRows(tw, cells, "\t\t\t", func(c cell) (float64, error) {
			topo, n, med := c.Scenario.Topology.Name, c.Net.N(), c.rounds(0.5)
			if !c.allWithin(400 * n) {
				return 0, fmt.Errorf("%s n=%d: a decay run took %.0f rounds, past 400n", topo, n, c.rounds(1))
			}
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%d/%d\n", topo, n, med, c.rounds(1), c.Summary.Completed, c.Summary.Trials)
			return med, nil
		})
	})
}

// table2DualHarmonic reproduces the bold dual-graph entry of Table 2:
// Harmonic Broadcast completes in O(n log² n) rounds w.h.p. on dual graphs.
// A run past the Theorem 18 bound 2·n·T·H(n), with the T of the algorithm
// the cell built, fails the experiment.
func table2DualHarmonic() Experiment {
	return sweepExperiment(Experiment{
		ID:       "table2-dual-harmonic",
		Title:    "Harmonic Broadcast on dual graphs: O(n log² n) w.h.p. (Theorem 19)",
		PaperRef: "Table 2, dual column (bold O(n log² n)); Section 7",
	}, quickTrim{trials: 5}, func(tw io.Writer, cells []cell) error {
		fmt.Fprintln(tw, "topology\tn\tT\tmedian rounds\tThm18 bound\tmedian/bound\tcompleted")
		return fitRows(tw, cells, "\t\t\t\t", func(c cell) (float64, error) {
			h, ok := c.Alg.(*core.Harmonic)
			if !ok {
				return 0, fmt.Errorf("scenario built %T, want *core.Harmonic", c.Alg)
			}
			topo, n, med := c.Scenario.Topology.Name, c.Net.N(), c.rounds(0.5)
			bound := int(2 * float64(n*h.T) * stats.HarmonicNumber(n))
			if !c.allWithin(bound) {
				return 0, fmt.Errorf("%s n=%d: a run took %.0f rounds, past the Theorem 18 bound %d", topo, n, c.rounds(1), bound)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%d\t%.3f\t%d/%d\n",
				topo, n, h.T, med, bound, med/float64(bound), c.Summary.Completed, c.Summary.Trials)
			return med, nil
		})
	})
}

// table2Theorem4 reproduces the randomized lower bound of Theorem 4: the
// success probability within k rounds on the clique-bridge network is at
// most k/(n-2) for the adversary's best bridge assignment. A row whose
// minimum success exceeds the bound by more than 3σ of Monte-Carlo slack
// fails the experiment.
func table2Theorem4() Experiment {
	type job struct {
		alg          sim.Algorithm
		n, k, trials int
	}
	return jobExperiment(Experiment{
		ID:       "table2-thm4",
		Title:    "Theorem 4 Monte-Carlo: success within k rounds is at most k/(n-2)",
		PaperRef: "Theorem 4; Table 2 dual column open randomized lower bound",
	}, "algorithm\tn\tk\tmin success\tbound k/(n-2)\trespects bound", func(cfg Config) ([]job, error) {
		n, trials := 18, 200
		if cfg.Quick {
			n, trials = 14, 80
		}
		h, err := core.NewHarmonicForN(n, 0.1)
		if err != nil {
			return nil, err
		}
		u, err := core.NewUniform(0.25)
		if err != nil {
			return nil, err
		}
		var jobs []job
		for _, alg := range []sim.Algorithm{h, u} {
			for _, k := range []int{2, n / 3, n - 4} {
				jobs = append(jobs, job{alg, n, k, trials})
			}
		}
		return jobs, nil
	}, func(cfg Config, j job) (string, error) {
		res, err := lowerbound.RunTheorem4(j.n, j.k, j.trials, j.alg, cfg.Seed)
		if err != nil {
			return "", err
		}
		// Allow 3-sigma Monte-Carlo slack.
		slack := 3 * math.Sqrt(res.Bound*(1-res.Bound)/float64(j.trials))
		ok := res.MinSuccess <= res.Bound+slack
		if !ok {
			return "", fmt.Errorf("%s k=%d: min success %.3f exceeds the Theorem 4 bound k/(n-2) = %.3f plus 3σ slack %.3f",
				j.alg.Name(), j.k, res.MinSuccess, res.Bound, slack)
		}
		return fmt.Sprintf("%s\t%d\t%d\t%.3f\t%.3f\t%v", j.alg.Name(), j.n, j.k, res.MinSuccess, res.Bound, ok), nil
	})
}
