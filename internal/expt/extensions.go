package expt

import (
	"fmt"
	"io"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/exhaustive"
	"dualgraph/internal/graph"
	"dualgraph/internal/linkest"
	"dualgraph/internal/lowerbound"
	"dualgraph/internal/registry"
	"dualgraph/internal/repeat"
	"dualgraph/internal/schedule"
	"dualgraph/internal/sim"
	"dualgraph/internal/stats"
)

// extDeltaSelect reproduces the Section 2.2 comparison with the
// Clementi-Monti-Silvestri algorithm: knowing the interference in-degree Δ
// beats Strong Select when Δ is small, and degenerates when Δ is large.
func extDeltaSelect() Experiment {
	type job struct {
		topo string
		n    int
	}
	return jobExperiment(Experiment{
		ID:       "ext-delta-select",
		Title:    "Δ-aware oblivious baseline vs Strong Select (Clementi et al. comparison)",
		PaperRef: "Section 2.2, discussion of [11]: faster iff Δ = o(√(n/log n)), needs Δ",
	}, "topology\tn\tΔ(G')\tdelta-select rounds\tstrong-select rounds\twinner", func(cfg Config) ([]job, error) {
		var jobs []job
		for _, topo := range []string{"line", "geometric", "clique-bridge"} {
			for _, n := range sweepSizes(cfg.Quick)[:2] {
				jobs = append(jobs, job{topo, n})
			}
		}
		return jobs, nil
	}, func(cfg Config, j job) (string, error) {
		d, err := registry.Topology(j.topo, j.n, cfg.Seed, nil)
		if err != nil {
			return "", err
		}
		nn := d.N()
		delta := d.GPrime().MaxInDegree()
		ds, err := core.NewDeltaSelect(nn, delta)
		if err != nil {
			return "", err
		}
		ss, err := core.NewStrongSelect(nn)
		if err != nil {
			return "", err
		}
		budget := nn*ds.FamilySize() + strongSelectBudget(nn)
		run := func(alg sim.Algorithm) (int, error) {
			res, err := sim.Run(d, alg, greedy(), sim.Config{
				Rule:      sim.CR4,
				Start:     sim.AsyncStart,
				MaxRounds: budget,
				Seed:      cfg.Seed,
			})
			if err != nil {
				return 0, err
			}
			if !res.Completed {
				return budget, nil
			}
			return res.Rounds, nil
		}
		dsRounds, err := run(ds)
		if err != nil {
			return "", err
		}
		ssRounds, err := run(ss)
		if err != nil {
			return "", err
		}
		winner := "delta-select"
		if ssRounds < dsRounds {
			winner = "strong-select"
		}
		return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%s", j.topo, nn, delta, dsRounds, ssRounds, winner), nil
	})
}

// extRepeatedBroadcast measures the Section 8 future-work extension:
// throughput of sequential vs pipelined repeated broadcast.
func extRepeatedBroadcast() Experiment {
	const n = 16
	T := core.HarmonicT(n, 0.1)
	// The per-message budget must cover the Theorem 18 w.h.p. bound:
	// a message that misses its block can never be delivered later.
	harmonicBudget := int(2 * float64(n*T) * stats.HarmonicNumber(n))
	return jobExperiment(Experiment{
		ID:       "ext-repeated-broadcast",
		Title:    "repeated broadcast: sequential vs pipelined throughput",
		PaperRef: "Section 8 (future work: repeated broadcast in dual graphs)",
	}, "protocol\tmessages\trounds\tthroughput (msg/round)\ttransmissions", func(Config) ([]repeat.Protocol, error) {
		seq, err := repeat.NewSequential(3*n, false, 0)
		if err != nil {
			return nil, err
		}
		pipe, err := repeat.NewPipelined(false, 0)
		if err != nil {
			return nil, err
		}
		seqH, err := repeat.NewSequential(harmonicBudget, true, T)
		if err != nil {
			return nil, err
		}
		pipeH, err := repeat.NewPipelined(true, T)
		if err != nil {
			return nil, err
		}
		return []repeat.Protocol{seq, pipe, seqH, pipeH}, nil
	}, func(cfg Config, p repeat.Protocol) (string, error) {
		m := 8
		if cfg.Quick {
			m = 4
		}
		d, err := graph.CliqueBridge(n)
		if err != nil {
			return "", err
		}
		res, err := repeat.Run(d, p, repeat.Config{
			Messages:  m,
			MaxRounds: 2 * m * harmonicBudget,
			Seed:      cfg.Seed,
		})
		if err != nil {
			return "", err
		}
		if !res.Completed {
			return "", fmt.Errorf("%s did not complete", p.Name())
		}
		return fmt.Sprintf("%s\t%d\t%d\t%.4f\t%d", p.Name(), m, res.Rounds, res.Throughput, res.Transmissions), nil
	})
}

// extLinkCulling is the probe-then-betray experiment motivating the model:
// ETX-style culling admits links that behave during probing, and protocols
// that trust the culled topology break when those links turn adversarial.
func extLinkCulling() Experiment {
	return jobExperiment(Experiment{
		ID:       "ext-link-culling",
		Title:    "ETX-style culling vs worst-case links (probe, cull, betray)",
		PaperRef: "Section 1 (gray zones, ETX [13]); the model's motivation",
	}, "probe delivery\tfalse positives\tprecision\ttreecast after betrayal\tstrong-select after betrayal", func(Config) ([]float64, error) {
		return []float64{0.0, 0.5, 0.95}, nil
	}, func(cfg Config, probeP float64) (string, error) {
		// Fixed geometric deployment: a sparse reliable backbone under a
		// dense gray zone, the regime where trusting culled links hurts.
		d, err := graph.Geometric(30, 0.18, 0.8, newRng(9))
		if err != nil {
			return "", err
		}
		s, err := linkest.Probe(d, probeP, 200, 0.75, cfg.Seed)
		if err != nil {
			return "", err
		}
		culled, err := s.CulledDual()
		if err != nil {
			return "", err
		}
		tc, err := core.NewTreeCast(culled.G(), culled.Source())
		if err != nil {
			return "", err
		}
		resTree, err := sim.Run(d, tc, adversary.Benign{}, sim.Config{
			Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: 4 * d.N(), Seed: cfg.Seed,
		})
		if err != nil {
			return "", err
		}
		ss, err := core.NewStrongSelect(d.N())
		if err != nil {
			return "", err
		}
		resSS, err := sim.Run(d, ss, adversary.Benign{}, sim.Config{
			Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: strongSelectBudget(d.N()), Seed: cfg.Seed,
		})
		if err != nil {
			return "", err
		}
		if !resSS.Completed {
			return "", fmt.Errorf("strong select must survive the betrayal")
		}
		return fmt.Sprintf("%.2f\t%d\t%.2f\t%s\t%s",
			probeP, s.FalsePositives, s.Precision(), verdict(resTree), verdict(resSS)), nil
	}, "   (betrayal: unreliable links deliver during probing, never afterwards)")
}

func verdict(res *sim.Result) string {
	if res.Completed {
		return fmt.Sprintf("ok (%d rounds)", res.Rounds)
	}
	return "STRANDED"
}

// extBroadcastability measures k-broadcastability (Section 3): the
// omniscient-schedule optimum against the rounds the algorithms actually
// need, quantifying the price of not knowing the topology.
func extBroadcastability() Experiment {
	return jobExperiment(Experiment{
		ID:       "ext-broadcastability",
		Title:    "k-broadcastability: omniscient schedules vs oblivious algorithms",
		PaperRef: "Section 3 (k-broadcastable networks); Theorem 2 witness",
	}, "topology\tn\texact k\tgreedy k\teccentricity\tstrong-select rounds\tgap", func(Config) ([]string, error) {
		return []string{"clique-bridge", "line", "complete-layered", "random"}, nil
	}, func(cfg Config, topo string) (string, error) {
		d, err := registry.Topology(topo, 17, cfg.Seed, nil)
		if err != nil {
			return "", err
		}
		exact, err := schedule.Exact(d)
		if err != nil {
			return "", err
		}
		greedyS, err := schedule.Greedy(d)
		if err != nil {
			return "", err
		}
		ss, err := core.NewStrongSelect(d.N())
		if err != nil {
			return "", err
		}
		res, err := sim.Run(d, ss, greedy(), sim.Config{
			Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: strongSelectBudget(d.N()), Seed: cfg.Seed,
		})
		if err != nil {
			return "", err
		}
		if !res.Completed {
			return "", fmt.Errorf("%s: strong select incomplete", topo)
		}
		if exact.Rounds() > greedyS.Rounds() {
			return "", fmt.Errorf("%s: exact schedule longer than greedy", topo)
		}
		return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t%.1fx", topo, d.N(), exact.Rounds(), greedyS.Rounds(),
			d.Eccentricity(), res.Rounds, float64(res.Rounds)/float64(exact.Rounds())), nil
	})
}

// extPreferentialAttachment opens the scale-free workload: Barabási–Albert
// duals whose attachment links are unreliable with a tunable fraction. Hubs
// give the adaptive adversary many jamming arcs concentrated on few nodes —
// a qualitatively different regime from the paper's clique constructions.
// A run past 4·n·T·H(n), twice the Theorem 18 bound, fails the experiment.
func extPreferentialAttachment() Experiment {
	return sweepExperiment(Experiment{
		ID:       "ext-pref-attach",
		Title:    "scale-free preferential-attachment duals under adaptive jamming",
		PaperRef: "Section 1 (beyond grids: hub-and-spoke deployments with gray-zone shortcuts)",
	}, quickTrim{trials: 5}, func(tw io.Writer, cells []cell) error {
		fmt.Fprintln(tw, "n\tunreliable frac\t|E|\t|E'\\E|\tΔ(G')\tbenign median\tgreedy median\tcompleted")
		rows, err := pairs(cells)
		for _, r := range rows {
			d, n := r[0].Net, r[0].Net.N()
			budget := int(4 * float64(n*core.HarmonicT(n, 0.02)) * stats.HarmonicNumber(n))
			if !r[0].allWithin(budget) || !r[1].allWithin(budget) {
				return fmt.Errorf("%s: a run did not complete within 4·n·T·H(n) = %d rounds", r[0].Scenario.Label(), budget)
			}
			fmt.Fprintf(tw, "%d\t%.1f\t%d\t%d\t%d\t%.0f\t%.0f\t%d+%d/%d\n",
				n, r[0].Scenario.Topology.Params["unreliable-frac"], d.G().NumEdges()/2, d.NumUnreliable()/2,
				d.GPrime().MaxInDegree(), r[0].rounds(0.5), r[1].rounds(0.5),
				r[0].Summary.Completed, r[1].Summary.Completed, r[0].Summary.Trials)
		}
		return err
	})
}

// extDynamic opens the time-varying workload: broadcast on epoch-scheduled
// dynamic dual graphs — node churn, link fading, and waypoint mobility —
// run as one declarative schedule-axis sweep. Churn removes gray-zone arcs
// (disarming the collider), fading hands it more, and mobility reshapes the
// whole geometry every epoch; the table contrasts all three against the
// static baseline on the same geometric deployment.
func extDynamic() Experiment {
	return sweepExperiment(Experiment{
		ID:       "ext-dynamic",
		Title:    "broadcast on dynamic dual graphs: churn, fading, waypoint mobility",
		PaperRef: "Section 2 model with time-varying (G, G'): gray-zone links fluctuate over a deployment's lifetime",
	}, quickTrim{trials: 6, n: 25}, func(tw io.Writer, cells []cell) error {
		fmt.Fprintln(tw, "schedule\tcompleted\tp50 rounds\tp95 rounds\tmean transmissions")
		for _, c := range cells {
			tx, err := c.Summary.Transmissions.Mean()
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%d/%d\t%.0f\t%.0f\t%.0f\n",
				c.Cell.Label, c.Summary.Completed, c.Summary.Trials, c.rounds(0.5), c.rounds(0.95), tx)
		}
		return nil
	})
}

// algJob is one algorithm to run at network size n.
type algJob struct {
	n   int
	alg sim.Algorithm
}

// algJobs lists round robin at each of sizes, each followed by Strong
// Select at that size when withSS is set.
func algJobs(sizes []int, withSS bool) ([]algJob, error) {
	var jobs []algJob
	for _, n := range sizes {
		jobs = append(jobs, algJob{n, core.NewRoundRobin()})
		if withSS {
			ss, err := core.NewStrongSelect(n)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, algJob{n, ss})
		}
	}
	return jobs, nil
}

// tinyJobs is the job list of the exhaustive-search experiments: the
// algorithms on clique-bridge networks small enough to search, Strong
// Select outside quick mode only.
func tinyJobs(cfg Config) ([]algJob, error) { return algJobs([]int{4, 5, 6}, !cfg.Quick) }

// tinyRun returns the clique-bridge network of j and the rounds j's
// algorithm takes on it against the stateless greedy collider under CR1
// and synchronous start: the heuristic baseline both exhaustive-search
// experiments report.
func tinyRun(cfg Config, j algJob) (*graph.Dual, int, error) {
	d, err := graph.CliqueBridge(j.n)
	if err != nil {
		return nil, 0, err
	}
	res, err := sim.Run(d, j.alg, adversary.GreedyCollider{}, sim.Config{
		Rule: sim.CR1, Start: sim.SyncStart, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, 0, err
	}
	return d, res.Rounds, nil
}

// extExhaustive validates the heuristic adversaries against the true worst
// case found by exhaustive search on tiny networks, and cross-checks the
// Theorem 2 game.
func extExhaustive() Experiment {
	return jobExperiment(Experiment{
		ID:       "ext-exhaustive",
		Title:    "exhaustive worst-case adversary search on tiny networks",
		PaperRef: "Section 2.1 adversary semantics (universally quantified choices)",
	}, "n\talgorithm\texhaustive worst\tgreedy heuristic\tthm2 game\tbranches", tinyJobs, func(cfg Config, j algJob) (string, error) {
		d, heuristic, err := tinyRun(cfg, j)
		if err != nil {
			return "", err
		}
		search, err := exhaustive.Search(d, j.alg, exhaustive.Config{
			Rule:    sim.CR1,
			Horizon: 40 * j.n,
		})
		if err != nil {
			return "", err
		}
		game, err := lowerbound.RunTheorem2Game(j.n, j.alg, 0)
		if err != nil {
			return "", err
		}
		if search.WorstRounds < heuristic {
			return "", fmt.Errorf("exhaustive worst below heuristic for %s n=%d", j.alg.Name(), j.n)
		}
		return fmt.Sprintf("%d\t%s\t%d\t%d\t%d\t%d",
			j.n, j.alg.Name(), search.WorstRounds, heuristic, game.ForcedRounds, search.Branches), nil
	}, "   (thm2 game additionally optimizes the bridge assignment, so it can exceed",
		"    the identity-assignment exhaustive bound)")
}

// extAdaptive cross-validates the three adversary strengths on tiny
// networks: the offline exhaustive worst case, the online adaptive
// best-response adversary (which must realize exactly the same bound — the
// experiment fails if it does not), and the stateless greedy heuristic. A
// horizon-1 adaptive column shows how much of the worst case survives when
// the adversary may only interfere in the first round.
func extAdaptive() Experiment {
	return jobExperiment(Experiment{
		ID:       "ext-adaptive",
		Title:    "adaptive best-response adversary vs exhaustive worst case",
		PaperRef: "Section 2.1 adversary semantics (online play of the universal quantifier)",
	}, "n\talgorithm\texhaustive worst\tadaptive(∞)\tadaptive(h=1)\tgreedy heuristic", tinyJobs, func(cfg Config, j algJob) (string, error) {
		d, heuristic, err := tinyRun(cfg, j)
		if err != nil {
			return "", err
		}
		horizon := 8 * j.n
		search, err := exhaustive.Search(d, j.alg, exhaustive.Config{
			Rule:    sim.CR1,
			Horizon: horizon,
			Seed:    cfg.Seed,
		})
		if err != nil {
			return "", err
		}
		play := func(deliverRounds int) (int, error) {
			adv, err := adversary.NewAdaptive(deliverRounds, horizon, 0, 0)
			if err != nil {
				return 0, err
			}
			run, err := sim.Run(d, j.alg, adv, sim.Config{
				Rule: sim.CR1, Start: sim.SyncStart, MaxRounds: horizon, Seed: cfg.Seed,
			})
			if err != nil {
				return 0, err
			}
			if !run.Completed {
				return horizon + 1, nil
			}
			return run.Rounds, nil
		}
		adaptive, err := play(0)
		if err != nil {
			return "", err
		}
		if adaptive != search.WorstRounds {
			return "", fmt.Errorf("adaptive adversary realized %d rounds but exhaustive worst is %d for %s n=%d",
				adaptive, search.WorstRounds, j.alg.Name(), j.n)
		}
		capped, err := play(1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d\t%s\t%d\t%d\t%d\t%d",
			j.n, j.alg.Name(), search.WorstRounds, adaptive, capped, heuristic), nil
	}, "   (adaptive(∞) is asserted equal to the exhaustive bound; the h=1 column",
		"    caps interference to round 1, so it lower-bounds the unbounded play)")
}
