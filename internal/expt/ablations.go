package expt

import (
	"fmt"
	"io"

	"dualgraph/internal/core"
)

// ablCollisionRules compares the same algorithm and topology across the four
// collision rules CR1-CR4 (Section 2.1), demonstrating the rules' relative
// strength.
func ablCollisionRules() Experiment {
	return sweepExperiment(Experiment{
		ID:       "abl-collision-rules",
		Title:    "ablation: collision rules CR1-CR4",
		PaperRef: "Section 2.1 collision rules",
	}, quickTrim{trials: 3}, medianRows("algorithm\trule\tmedian rounds\tcompleted", func(c cell) (string, error) {
		return fmt.Sprintf("%s\t%v", c.Alg.Name(), c.Cfg.Rule), nil
	}))
}

// ablHarmonicT sweeps the Harmonic Broadcast level length T around the
// paper's ceil(12 ln(n/ε)) choice, showing the completion-probability /
// round-count tradeoff. The document's max_rounds is the Theorem 18 bound
// 2·n·T·H(n) at the paper's T.
func ablHarmonicT() Experiment {
	return sweepExperiment(Experiment{
		ID:       "abl-harmonic-T",
		Title:    "ablation: Harmonic Broadcast level length T",
		PaperRef: "Section 7, Theorem 18 parameter choice",
	}, quickTrim{trials: 5}, medianRows("T\tT/paperT\tmedian rounds\tcompleted within bound", func(c cell) (string, error) {
		h, ok := c.Alg.(*core.Harmonic)
		if !ok {
			return "", fmt.Errorf("scenario built %T, want *core.Harmonic", c.Alg)
		}
		paperT := core.HarmonicT(c.Net.N(), 0.02)
		return fmt.Sprintf("%d\t%.2f", h.T, float64(h.T)/float64(paperT)), nil
	}))
}

// ablAdversary compares adversary strength: from benign (classical static
// behaviour) through stochastic to adaptive worst-case.
func ablAdversary() Experiment {
	return sweepExperiment(Experiment{
		ID:       "abl-adversary",
		Title:    "ablation: adversary strength (benign / random / greedy / full delivery)",
		PaperRef: "Section 2.1 adversary classes",
	}, quickTrim{trials: 3}, medianRows("algorithm\tadversary\tmedian rounds\tcompleted", func(c cell) (string, error) {
		return c.Alg.Name() + "\t" + c.Adv.Name(), nil
	}))
}

// medianRows returns a row formatter that writes the header line head and,
// for each cell, the leading columns cols renders, then the median rounds
// and the completed count.
func medianRows(head string, cols func(cell) (string, error)) func(io.Writer, []cell) error {
	return func(tw io.Writer, cells []cell) error {
		fmt.Fprintln(tw, head)
		for _, c := range cells {
			lead, err := cols(c)
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%.0f\t%d/%d\n", lead, c.rounds(0.5), c.Summary.Completed, c.Summary.Trials)
		}
		return nil
	}
}
