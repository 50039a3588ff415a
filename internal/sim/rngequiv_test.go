package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"dualgraph/internal/engine"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
	"dualgraph/internal/spec"
)

// legacyRNG wraps an Algorithm so its processes draw from the generator the
// simulator used before the SplitMix64 streams: one math/rand source seeded
// with the run seed, two draws skipped (the assignment and adversary
// slots), then one draw per pid seeding that process's own math/rand
// source. The wrapper is built per run because the derivation needs the run
// seed, which NewProcess does not receive.
type legacyRNG struct {
	sim.Algorithm
	seeds []int64 // seeds[pid], pid in 1..n
}

func newLegacyRNG(alg sim.Algorithm, seed int64, n int) *legacyRNG {
	base := rand.New(rand.NewSource(seed))
	base.Int63()
	base.Int63()
	seeds := make([]int64, n+1)
	for pid := 1; pid <= n; pid++ {
		seeds[pid] = base.Int63()
	}
	return &legacyRNG{Algorithm: alg, seeds: seeds}
}

func (a *legacyRNG) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	return a.Algorithm.NewProcess(id, n, rand.New(rand.NewSource(a.seeds[id])))
}

// buildCell builds one registry scenario for the equivalence checks.
func buildCell(t *testing.T, topo string, n int, alg string, algParams registry.Params, adv string, rule sim.CollisionRule, seed int64) *spec.Built {
	t.Helper()
	scn, err := spec.New(
		spec.WithTopology(topo, nil),
		spec.WithN(n),
		spec.WithAlgorithm(alg, algParams),
		spec.WithAdversary(adv, nil),
		spec.WithCollisionRule(rule),
		spec.WithStart(sim.AsyncStart),
		spec.WithSeed(seed),
	)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scn.Build()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runTrials runs trials of b sequentially with the engine's per-trial seeds,
// through the legacy generator when legacy is set.
func runTrials(t *testing.T, b *spec.Built, trials int, legacy bool) []*sim.Result {
	t.Helper()
	out := make([]*sim.Result, trials)
	for i := range out {
		cfg := b.Cfg
		cfg.Seed = engine.SeedFor(b.Cfg.Seed, i)
		alg := b.Alg
		if legacy {
			alg = newLegacyRNG(alg, cfg.Seed, b.Net.N())
		}
		res, err := sim.Run(b.Net, alg, b.Adv, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// TestLegacyRNGReproducesPreStreamGolden proves legacyRNG is the generator
// the simulator used before the SplitMix64 streams: it reproduces, byte for
// byte, the line `dgsim -topo clique-bridge -n 9 -alg harmonic -adv greedy
// -trials 8 -seed 2` printed under that generator. The greedy collider
// assigns procs by identity and never draws, so the processes' coins are
// the only randomness in the run.
func TestLegacyRNGReproducesPreStreamGolden(t *testing.T) {
	b := buildCell(t, "clique-bridge", 9, "harmonic", nil, "greedy", sim.CR4, 2)
	results := runTrials(t, b, 8, true)
	completed, totalTx := 0, 0
	rounds := make([]int, 0, len(results))
	for _, res := range results {
		if res.Completed {
			completed++
		}
		totalTx += res.Transmissions
		rounds = append(rounds, res.Rounds)
	}
	sort.Ints(rounds)
	pct := func(q float64) int { return rounds[int(q*float64(len(rounds)-1))] }
	got := fmt.Sprintf("completed=%d/%d rounds: min=%d p50=%d p90=%d p99=%d max=%d mean-transmissions=%.1f",
		completed, len(results), rounds[0], pct(0.50), pct(0.90), pct(0.99),
		rounds[len(rounds)-1], float64(totalTx)/float64(len(results)))
	const want = "completed=8/8 rounds: min=85 p50=144 p90=187 p99=187 max=234 mean-transmissions=863.8"
	if got != want {
		t.Fatalf("legacy generator line = %q, want %q", got, want)
	}
}

// ksTwoSample returns the two-sample Kolmogorov–Smirnov statistic D of a
// and b and its asymptotic p-value (Kolmogorov distribution with the
// Stephens small-sample correction). Ties make the test conservative, which
// only errs toward passing on discrete round counts.
func ksTwoSample(a, b []float64) (d, p float64) {
	a = append([]float64(nil), a...)
	b = append([]float64(nil), b...)
	sort.Float64s(a)
	sort.Float64s(b)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	ne := float64(len(a)) * float64(len(b)) / float64(len(a)+len(b))
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	if lambda < 0.3 {
		return d, 1
	}
	for k := 1; k <= 100; k++ {
		term := 2 * math.Exp(-2*float64(k*k)*lambda*lambda)
		if k%2 == 0 {
			term = -term
		}
		p += term
		if math.Abs(term) < 1e-12 {
			break
		}
	}
	return d, math.Min(math.Max(p, 0), 1)
}

func TestKSTwoSample(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if d, p := ksTwoSample(same, same); d != 0 || p != 1 {
		t.Errorf("identical samples: D=%v p=%v, want 0 and 1", d, p)
	}
	lo := make([]float64, 200)
	hi := make([]float64, 200)
	for i := range lo {
		lo[i] = float64(i)
		hi[i] = float64(i + 100)
	}
	// Half the mass is disjoint: D = 0.5, far beyond any usual critical value.
	d, p := ksTwoSample(lo, hi)
	if d != 0.5 || p > 1e-6 {
		t.Errorf("shifted samples: D=%v p=%v, want D=0.5 and p≈0", d, p)
	}
}

// TestStreamsStatisticallyEquivalentToLegacy is the correctness guard of the
// SplitMix64 re-baseline: on Table 2's dual Harmonic cells, classical Decay
// and Uniform(p=.3), the round-count distribution under the new per-run
// streams must be indistinguishable from the legacy math/rand derivation by
// a two-sample KS test at α = 0.001, over 300 trials a side at fixed seeds.
func TestStreamsStatisticallyEquivalentToLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical equivalence runs 3000 trials; skipped under -short")
	}
	const (
		trials = 300
		alpha  = 0.001
	)
	cells := []struct {
		name      string
		topo      string
		n         int
		alg       string
		algParams registry.Params
		adv       string
		rule      sim.CollisionRule
	}{
		{"table2 harmonic clique-bridge", "clique-bridge", 17, "harmonic", nil, "greedy", sim.CR4},
		{"table2 harmonic complete-layered", "complete-layered", 65, "harmonic", nil, "greedy", sim.CR4},
		{"classical decay tree", "tree", 65, "decay", nil, "benign", sim.CR3},
		{"uniform p=.3 clique-bridge", "clique-bridge", 17, "uniform", registry.Params{"p": 0.3}, "greedy", sim.CR4},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			b := buildCell(t, c.topo, c.n, c.alg, c.algParams, c.adv, c.rule, 11)
			sample := func(legacy bool) []float64 {
				out := make([]float64, 0, trials)
				for _, res := range runTrials(t, b, trials, legacy) {
					if !res.Completed {
						t.Fatalf("legacy=%v: a trial did not complete in %d rounds", legacy, res.Rounds)
					}
					out = append(out, float64(res.Rounds))
				}
				return out
			}
			d, p := ksTwoSample(sample(true), sample(false))
			t.Logf("D=%.4f p=%.4f", d, p)
			if p < alpha {
				t.Errorf("round counts differ between generators: KS D=%.4f p=%.2g < α=%g", d, p, alpha)
			}
		})
	}
}
