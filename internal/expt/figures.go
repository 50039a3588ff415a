package expt

import (
	"fmt"
	"io"
	"reflect"
	"slices"

	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/interference"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
	"dualgraph/internal/ssf"
	"dualgraph/internal/stats"
)

// figSeparation measures the Section 1 separation claim: the same algorithm
// on the same topology, classical (benign adversary, which never uses an
// unreliable edge, so the run equals the one on G = G') versus dual
// (worst-case unreliable edges), and the crossover between Strong Select and
// Harmonic.
func figSeparation() Experiment {
	return sweepExperiment(Experiment{
		ID:       "fig-separation",
		Title:    "classical vs dual separation and algorithm crossover",
		PaperRef: "Section 1 (separation); Tables 1-2 side by side",
	}, quickTrim{}, func(tw io.Writer, cells []cell) error {
		fmt.Fprintln(tw, "n\talgorithm\tclassical rounds\tdual rounds\tdual/classical")
		rows, err := pairs(cells)
		for _, r := range rows {
			classical, dual := r[0].rounds(1), r[1].rounds(1)
			fmt.Fprintf(tw, "%d\t%s\t%.0f\t%.0f\t%.2f\n", r[0].Net.N(), r[0].Alg.Name(), classical, dual, dual/max(classical, 1))
		}
		return err
	})
}

// figBusyRounds validates Lemma 15: for any wake-up pattern the number of
// busy rounds (sum of transmission probabilities >= 1) is at most n·T·H(n).
func figBusyRounds() Experiment {
	const T = 4
	type job struct {
		pattern string
		wake    []int
	}
	return jobExperiment(Experiment{
		ID:       "fig-busy-rounds",
		Title:    "Lemma 15: busy rounds vs the n·T·H(n) bound",
		PaperRef: "Section 7, Lemmas 14-15",
	}, "pattern\tn\tbusy rounds\tbound n·T·H(n)\tbusy/bound", func(cfg Config) ([]job, error) {
		ns := []int{16, 32, 64}
		if !cfg.Quick {
			ns = append(ns, 128, 256)
		}
		var jobs []job
		for _, n := range ns {
			jobs = append(jobs, job{"front-loaded", core.FrontLoadedPattern(n)},
				job{"simultaneous", core.SimultaneousPattern(n)}, job{"random", randomPattern(n, cfg.Seed)})
		}
		return jobs, nil
	}, func(_ Config, j job) (string, error) {
		n := len(j.wake)
		bound := float64(n*T) * stats.HarmonicNumber(n)
		busy := core.BusyRounds(j.wake, T, int(4*bound)+100)
		if float64(busy) > bound {
			return "", fmt.Errorf("lemma 15 violated: pattern %s n=%d busy=%d bound=%.0f", j.pattern, n, busy, bound)
		}
		return fmt.Sprintf("%s\t%d\t%d\t%.0f\t%.3f", j.pattern, n, busy, bound, float64(busy)/bound), nil
	})
}

func randomPattern(n int, seed int64) []int {
	rng := newRng(seed)
	p := make([]int, n)
	for i := 1; i < n; i++ {
		p[i] = p[i-1] + rng.Intn(4)
	}
	return p
}

// figSSFSize measures the constructive Kautz-Singleton SSF sizes against the
// k² log² n bound and against the trivial round robin.
func figSSFSize() Experiment {
	return jobExperiment(Experiment{
		ID:       "fig-ssf-size",
		Title:    "strongly selective family sizes: Kautz-Singleton vs round robin",
		PaperRef: "Section 5, Definition 6, Theorem 7, constructive note [19]",
	}, "n\tk\tchosen size\tround robin\tkautz-singleton\tverified", func(cfg Config) ([][2]int, error) {
		ns := []int{64, 256, 1024}
		if !cfg.Quick {
			ns = append(ns, 4096, 16384)
		}
		var jobs [][2]int
		for _, n := range ns {
			for _, k := range []int{2, 4, 8, 16} {
				jobs = append(jobs, [2]int{n, k})
			}
		}
		return jobs, nil
	}, func(cfg Config, j [2]int) (string, error) {
		n, k := j[0], j[1]
		chosen, err := ssf.New(n, k)
		if err != nil {
			return "", err
		}
		rs, err := ssf.NewReedSolomon(n, k)
		if err != nil {
			return "", err
		}
		verified := "spot-check"
		if n <= 64 && k <= 3 {
			if err := ssf.Verify(chosen, k); err != nil {
				return "", fmt.Errorf("verification failed n=%d k=%d: %w", n, k, err)
			}
			verified = "exhaustive"
		} else if err := ssf.VerifyRandom(chosen, k, 100, newRng(cfg.Seed)); err != nil {
			return "", fmt.Errorf("spot verification failed n=%d k=%d: %w", n, k, err)
		}
		return fmt.Sprintf("%d\t%d\t%d\t%d\t%d\t%s", n, k, chosen.Size(), n, rs.Size(), verified), nil
	})
}

// figLemma1 validates Lemma 1 executably: dual-graph algorithms run on
// explicit-interference networks via the reduction adversary produce
// transcripts identical to the native explicit-interference engine.
func figLemma1() Experiment {
	type job struct {
		d    *graph.Dual
		alg  sim.Algorithm
		rule sim.CollisionRule
	}
	return jobExperiment(Experiment{
		ID:       "fig-lemma1",
		Title:    "Lemma 1 reduction: dual-graph algorithms on explicit-interference networks",
		PaperRef: "Lemma 1; Appendix A",
	}, "n\talgorithm\trule\tnative rounds\treduced rounds\ttranscripts equal", func(cfg Config) ([]job, error) {
		// The topology (read as the interference model G_T = G, G_I = G')
		// and the algorithms are deterministic in (n, seed): build them once
		// per n and share the read-only values across the six (alg, rule)
		// jobs.
		var jobs []job
		for _, n := range []int{16, 32} {
			d, err := registry.Topology("random", n, cfg.Seed, nil)
			if err != nil {
				return nil, err
			}
			ss, err := core.NewStrongSelect(n)
			if err != nil {
				return nil, err
			}
			h, err := core.NewHarmonicForN(n, 0.02)
			if err != nil {
				return nil, err
			}
			for _, alg := range []sim.Algorithm{core.NewRoundRobin(), ss, h} {
				for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR4} {
					jobs = append(jobs, job{d, alg, rule})
				}
			}
		}
		return jobs, nil
	}, func(cfg Config, j job) (string, error) {
		n := j.d.N()
		c := sim.Config{
			Rule: j.rule, Start: sim.AsyncStart,
			MaxRounds: strongSelectBudget(n), Seed: cfg.Seed,
		}
		native, transcript, err := interference.Run(j.d, j.alg, c)
		if err != nil {
			return "", err
		}
		// The reduced run must send exactly the native transcript.
		reduced, err := sim.Start(graph.Static(j.d), j.alg, interference.ReductionAdversary{}, c)
		equal := true
		for done := false; err == nil && !done; {
			done, err = reduced.Step()
			r := reduced.Round()
			equal = equal && r <= len(transcript) && slices.Equal(reduced.Senders(), transcript[r-1])
		}
		if err != nil {
			return "", err
		}
		equal = equal && reduced.Round() == len(transcript) &&
			reflect.DeepEqual(native.FirstReceive, reduced.Result().FirstReceive)
		if !equal {
			return "", fmt.Errorf("lemma 1 reduction mismatch: n=%d alg=%s rule=%v", n, j.alg.Name(), j.rule)
		}
		return fmt.Sprintf("%d\t%s\t%v\t%d\t%d\t%v", n, j.alg.Name(), j.rule, native.Rounds, reduced.Result().Rounds, equal), nil
	})
}
