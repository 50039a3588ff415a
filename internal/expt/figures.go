package expt

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"slices"

	"dualgraph/internal/core"
	"dualgraph/internal/engine"
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
	e := Experiment{
		ID:       "fig-busy-rounds",
		Title:    "Lemma 15: busy rounds vs the n·T·H(n) bound",
		PaperRef: "Section 7, Lemmas 14-15",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		T := 4
		fmt.Fprintln(tw, "pattern\tn\tbusy rounds\tbound n·T·H(n)\tbusy/bound")
		ns := []int{16, 32, 64}
		if !cfg.Quick {
			ns = append(ns, 128, 256)
		}
		patterns := []struct {
			name string
			mk   func(n int) []int
		}{
			{"front-loaded", core.FrontLoadedPattern},
			{"simultaneous", core.SimultaneousPattern},
			{"random", func(n int) []int { return randomPattern(n, cfg.Seed) }},
		}
		type job struct {
			n       int
			pattern int
		}
		type row struct {
			busy  int
			bound float64
		}
		var jobs []job
		for _, n := range ns {
			for pi := range patterns {
				jobs = append(jobs, job{n, pi})
			}
		}
		rows, err := engine.Map(context.Background(), len(jobs), cfg.Engine, func(i int) (row, error) {
			j := jobs[i]
			p := patterns[j.pattern]
			bound := float64(j.n*T) * stats.HarmonicNumber(j.n)
			horizon := int(4*bound) + 100
			busy := core.BusyRounds(p.mk(j.n), T, horizon)
			if float64(busy) > bound {
				return row{}, fmt.Errorf("lemma 15 violated: pattern %s n=%d busy=%d bound=%.0f", p.name, j.n, busy, bound)
			}
			return row{busy: busy, bound: bound}, nil
		})
		if err != nil {
			return err
		}
		for i, r := range rows {
			j := jobs[i]
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.0f\t%.3f\n",
				patterns[j.pattern].name, j.n, r.busy, r.bound, float64(r.busy)/r.bound)
		}
		return tw.Flush()
	}
	return e
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
	e := Experiment{
		ID:       "fig-ssf-size",
		Title:    "strongly selective family sizes: Kautz-Singleton vs round robin",
		PaperRef: "Section 5, Definition 6, Theorem 7, constructive note [19]",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, "n\tk\tchosen size\tround robin\tkautz-singleton\tverified")
		ns := []int{64, 256, 1024}
		if !cfg.Quick {
			ns = append(ns, 4096, 16384)
		}
		type job struct {
			n, k int
		}
		type row struct {
			chosen, rs int
			verified   string
		}
		var jobs []job
		for _, n := range ns {
			for _, k := range []int{2, 4, 8, 16} {
				if k <= n {
					jobs = append(jobs, job{n, k})
				}
			}
		}
		rows, err := engine.Map(context.Background(), len(jobs), cfg.Engine, func(i int) (row, error) {
			j := jobs[i]
			chosen, err := ssf.New(j.n, j.k)
			if err != nil {
				return row{}, err
			}
			rs, err := ssf.NewReedSolomon(j.n, j.k)
			if err != nil {
				return row{}, err
			}
			verified := "spot-check"
			if j.n <= 64 && j.k <= 3 {
				if err := ssf.Verify(chosen, j.k); err != nil {
					return row{}, fmt.Errorf("verification failed n=%d k=%d: %w", j.n, j.k, err)
				}
				verified = "exhaustive"
			} else if err := ssf.VerifyRandom(chosen, j.k, 100, newRng(cfg.Seed)); err != nil {
				return row{}, fmt.Errorf("spot verification failed n=%d k=%d: %w", j.n, j.k, err)
			}
			return row{chosen: chosen.Size(), rs: rs.Size(), verified: verified}, nil
		})
		if err != nil {
			return err
		}
		for i, r := range rows {
			j := jobs[i]
			fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\n", j.n, j.k, r.chosen, j.n, r.rs, r.verified)
		}
		return tw.Flush()
	}
	return e
}

// figLemma1 validates Lemma 1 executably: dual-graph algorithms run on
// explicit-interference networks via the reduction adversary produce
// transcripts identical to the native explicit-interference engine.
func figLemma1() Experiment {
	e := Experiment{
		ID:       "fig-lemma1",
		Title:    "Lemma 1 reduction: dual-graph algorithms on explicit-interference networks",
		PaperRef: "Lemma 1; Appendix A",
	}
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, "n\talgorithm\trule\tnative rounds\treduced rounds\ttranscripts equal")
		type job struct {
			n    int
			d    *graph.Dual
			alg  sim.Algorithm
			rule sim.CollisionRule
		}
		type row struct {
			name             string
			native, reduced  int
			transcriptsEqual bool
		}
		// The topology (read as the interference model G_T = G, G_I = G')
		// and the algorithms are deterministic in (n, seed): build them once
		// per n and share the read-only values across the six (alg, rule)
		// jobs.
		var jobs []job
		for _, n := range []int{16, 32} {
			d, err := registry.Topology("random", n, cfg.Seed, nil)
			if err != nil {
				return err
			}
			ss, err := core.NewStrongSelect(n)
			if err != nil {
				return err
			}
			h, err := core.NewHarmonicForN(n, 0.02)
			if err != nil {
				return err
			}
			for _, alg := range []sim.Algorithm{core.NewRoundRobin(), ss, h} {
				for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR4} {
					jobs = append(jobs, job{n: n, d: d, alg: alg, rule: rule})
				}
			}
		}
		rows, err := engine.Map(context.Background(), len(jobs), cfg.Engine, func(i int) (row, error) {
			j := jobs[i]
			c := sim.Config{
				Rule: j.rule, Start: sim.AsyncStart,
				MaxRounds: strongSelectBudget(j.n), Seed: cfg.Seed,
			}
			native, transcript, err := interference.Run(j.d, j.alg, c)
			if err != nil {
				return row{}, err
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
				return row{}, err
			}
			equal = equal && reduced.Round() == len(transcript) &&
				reflect.DeepEqual(native.FirstReceive, reduced.Result().FirstReceive)
			if !equal {
				return row{}, fmt.Errorf("lemma 1 reduction mismatch: n=%d alg=%s rule=%v", j.n, j.alg.Name(), j.rule)
			}
			return row{name: j.alg.Name(), native: native.Rounds, reduced: reduced.Result().Rounds, transcriptsEqual: equal}, nil
		})
		if err != nil {
			return err
		}
		for i, r := range rows {
			j := jobs[i]
			fmt.Fprintf(tw, "%d\t%s\t%v\t%d\t%d\t%v\n",
				j.n, r.name, j.rule, r.native, r.reduced, r.transcriptsEqual)
		}
		return tw.Flush()
	}
	return e
}
