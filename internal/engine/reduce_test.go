package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
	"dualgraph/internal/stats"
)

// failingSchedule is a static schedule that fails the runs whose trial
// seed is in fail: the trial seed is all a schedule sees of a trial, so
// failingCell keys the set by SeedFor(base, i).
type failingSchedule struct {
	*graph.StaticSchedule
	fail map[int64]int // trial seed -> trial index
}

func (f failingSchedule) Epoch(e int, runSeed int64) (*graph.Dual, error) {
	if i, ok := f.fail[runSeed]; ok {
		return nil, fmt.Errorf("%w at %d", errBoom, i)
	}
	return f.StaticSchedule.Epoch(e, runSeed)
}

// failingCell is a cheap randomized cell (Decay on a 6-line against a
// random adversary) whose trials at the given indices fail.
func failingCell(t testing.TB, failAt ...int) engine.Trial {
	t.Helper()
	line, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1}
	fail := map[int64]int{}
	for _, i := range failAt {
		fail[engine.SeedFor(cfg.Seed, i)] = i
	}
	return engine.Trial{Net: line, Sched: failingSchedule{graph.Static(line), fail},
		Alg: core.NewDecay(), Adv: adv, Cfg: cfg}
}

// TestReduceSumAnyWorkerCount checks the reducer's plumbing over an uneven
// shard partition: every trial is folded exactly once, whatever the pool
// size, including pools larger than the shard count.
func TestReduceSumAnyWorkerCount(t *testing.T) {
	const n = 1009 // prime, so shard blocks are uneven
	cell := failingCell(t)
	var completed int64
	var rounds float64
	for i := 0; i < n; i++ {
		res, err := cell.Execute(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed {
			completed++
		}
		rounds += float64(res.Rounds)
	}
	for _, workers := range []int{1, 2, 3, 8, 300} {
		sum, err := runStream(cell, n, engine.Config{Workers: workers}, engine.StreamConfig{}, engine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		mean, err := sum.Rounds.Mean()
		if err != nil {
			t.Fatal(err)
		}
		if sum.Trials != n || sum.Completed != completed || math.Abs(mean*n-rounds) > 1e-9*rounds {
			t.Fatalf("workers=%d: folded %d trials (%d completed, %v rounds), want %d (%d completed, %v rounds)",
				workers, sum.Trials, sum.Completed, mean*n, n, completed, rounds)
		}
	}
}

func TestReduceZeroAndNegativeTrials(t *testing.T) {
	sum, err := runStream(failingCell(t), 0, engine.Config{}, engine.StreamConfig{}, engine.Hooks{})
	if err != nil || sum == nil || sum.Trials != 0 || sum.Rounds.Count() != 0 {
		t.Fatalf("zero trials: sum=%+v err=%v, want a fresh empty summary", sum, err)
	}
	if _, err := runStream(failingCell(t), -1, engine.Config{}, engine.StreamConfig{}, engine.Hooks{}); err == nil {
		t.Fatal("negative trial count must error")
	}
}

func TestReduceReportsLowestIndexError(t *testing.T) {
	cell := failingCell(t, 77, 300, 499)
	for _, workers := range []int{1, 4} {
		_, err := runStream(cell, 500, engine.Config{Workers: workers}, engine.StreamConfig{}, engine.Hooks{})
		if err == nil || !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: want errBoom, got %v", workers, err)
		}
		if !strings.Contains(err.Error(), "cell 0 trial 77") {
			t.Fatalf("workers=%d: error %q must name the lowest failing trial", workers, err)
		}
	}
}

// TestGridRejectsMismatchedSeeds: a seeded accumulator that could not merge
// — built under a different stream configuration, or covering the wrong
// trials — is refused by the ledger's validation with the unit named,
// before any seed lands or any cell is delivered, whether the bad unit's
// cell would finish in the pool or is seeded whole.
func TestGridRejectsMismatchedSeeds(t *testing.T) {
	cell := failingCell(t)
	sc := engine.StreamConfig{ExactK: 8}
	good, err := engine.FoldShardContext(context.Background(), cell, 0, 1, sc)
	if err != nil {
		t.Fatal(err)
	}
	mismatched, err := engine.FoldShardContext(context.Background(), cell, 1, 2,
		engine.StreamConfig{Quantiles: []float64{0.5}, ExactK: 8})
	if err != nil {
		t.Fatal(err)
	}
	for name, seed := range map[string]map[engine.ShardKey]*engine.TrialSummary{
		"pool":        {{Cell: 1, Shard: 1}: mismatched},
		"seeded":      {{Cell: 1, Shard: 0}: good, {Cell: 1, Shard: 1}: mismatched},
		"wrong range": {{Cell: 0, Shard: 0}: good, {Cell: 1, Shard: 1}: sc.NewSummary()},
	} {
		delivered := 0
		_, err := engine.RunGrid(context.Background(), []engine.Trial{cell, cell}, 2,
			engine.Config{Workers: 2}, sc, engine.Hooks{Seed: seed, OnCell: func(int, *engine.TrialSummary) { delivered++ }})
		if !errors.Is(err, engine.ErrBadUnit) || !strings.Contains(err.Error(), "(1, 1)") {
			t.Fatalf("%s: err = %v, want ErrBadUnit naming unit (1, 1)", name, err)
		}
		if delivered != 0 {
			t.Fatalf("%s: %d cells delivered before the bad seed was refused", name, delivered)
		}
	}
}

func TestShardsPureFunctionOfN(t *testing.T) {
	if got := engine.Shards(10); got != 10 {
		t.Errorf("Shards(10) = %d, want one shard per trial below the cap", got)
	}
	if got := engine.Shards(1_000_000); got != 256 {
		t.Errorf("Shards(1e6) = %d, want the 256 cap", got)
	}
}

// streamWorkload is the randomized cell used by the streaming tests.
func streamWorkload(t testing.TB) engine.Trial {
	t.Helper()
	d, err := graph.CliqueBridge(15)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(15, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.4)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Trial{Net: d, Alg: alg, Adv: adv, Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 99}}
}

// TestRunStreamDeterministicAcrossWorkerCounts is the reducer's core
// guarantee: the summary — including every floating-point bit of the
// Welford moments and the P² marker states — is identical at any worker
// count, because the trial→shard partition and the merge order are pure
// functions of the trial count.
func TestRunStreamDeterministicAcrossWorkerCounts(t *testing.T) {
	cell := streamWorkload(t)
	// 600 trials with ExactK 32 forces shard merges through every regime,
	// including P² marker merges.
	sc := engine.StreamConfig{ExactK: 32}
	var ref *engine.TrialSummary
	for _, workers := range []int{1, 2, 3, 8, 64} {
		sum, err := runStream(cell, 600, engine.Config{Workers: workers}, sc, engine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = sum
			continue
		}
		if !reflect.DeepEqual(sum, ref) {
			t.Fatalf("workers=%d: summary diverged from workers=1", workers)
		}
	}
}

// TestRunStreamMatchesRunMany cross-checks the streaming path (a grid of
// one) against the materializing path (Map over Execute) on the same seeds: counts, min and max must agree exactly,
// the mean up to rounding, and — while within the exact regime — the
// quantiles must equal stats.Quantile over the materialized rounds.
func TestRunStreamMatchesRunMany(t *testing.T) {
	cell := streamWorkload(t)
	const trials = 300
	results, err := runMany(cell, trials, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := runStream(cell, trials, engine.Config{}, engine.StreamConfig{}, engine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	rounds := make([]float64, 0, trials)
	var completed int64
	var txTotal float64
	for _, res := range results {
		if res.Completed {
			completed++
		}
		rounds = append(rounds, float64(res.Rounds))
		txTotal += float64(res.Transmissions)
	}
	if sum.Trials != trials || sum.Completed != completed {
		t.Fatalf("counts: got %d/%d, want %d/%d", sum.Completed, sum.Trials, completed, trials)
	}
	if !sum.Rounds.Exact() {
		t.Fatal("300 trials under the default ExactK must stay exact")
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
		want, err := stats.Quantile(rounds, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sum.Rounds.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("q=%v: stream %v != slice-path %v", q, got, want)
		}
	}
	gotMean, _ := sum.Transmissions.Mean()
	if want := txTotal / trials; math.Abs(gotMean-want) > 1e-9*want {
		t.Errorf("mean transmissions: stream %v != slice-path %v", gotMean, want)
	}
}

// TestRunStreamP2WithinToleranceOfSlicePath pushes past the exact regime
// and checks the documented accuracy contract against the exact quantiles
// of the materializing path: each P² estimate must fall between the exact (q-0.02)- and
// (q+0.02)-quantiles of the materialized sample.
func TestRunStreamP2WithinToleranceOfSlicePath(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-checking thousands of trials is slow")
	}
	cell := streamWorkload(t)
	const trials = 4000
	results, err := runMany(cell, trials, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := engine.StreamConfig{ExactK: 256}
	sum, err := runStream(cell, trials, engine.Config{}, sc, engine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Rounds.Exact() {
		t.Fatal("4000 trials past ExactK=256 must have spilled")
	}
	rounds := make([]float64, trials)
	for i, res := range results {
		rounds[i] = float64(res.Rounds)
	}
	sort.Float64s(rounds)
	// Band of exact neighbouring quantiles, widened by one round: rounds
	// are integers, so on a nearly-atomic distribution the band can be a
	// single point while P² interpolates between atoms (e.g. 1.999 vs 2).
	const eps = 0.02
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		got, err := sum.Rounds.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := stats.Quantile(rounds, math.Max(0, q-eps))
		hi, _ := stats.Quantile(rounds, math.Min(1, q+eps))
		if got < lo-1 || got > hi+1 {
			t.Errorf("q=%v: P² estimate %v outside exact band [%v, %v]±1", q, got, lo, hi)
		}
	}
	gotMax, _ := sum.Rounds.Max()
	if want := rounds[len(rounds)-1]; gotMax != want {
		t.Errorf("max: stream %v != slice-path %v", gotMax, want)
	}
}

// The 100k-trial bounded-memory smoke lives in cmd/dgsim's test suite
// (TestStreamSweepBoundedMemory), where it exercises this package's
// streaming path end to end through the CLI.
