package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

func TestSeedFor(t *testing.T) {
	if engine.SeedFor(7, 3) != engine.SeedFor(7, 3) {
		t.Fatal("SeedFor must be a pure function of (base, trial)")
	}
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		s := engine.SeedFor(424242, i)
		if seen[s] {
			t.Fatalf("seed collision at trial %d", i)
		}
		seen[s] = true
	}
}

// TestSeedForDecorrelatesBaseSeeds is the regression test for the naive
// base^trial derivation, under which two nearby base seeds produced the
// exact same multiset of trial seeds (merely permuted) and cross-seed
// replications were not independent.
func TestSeedForDecorrelatesBaseSeeds(t *testing.T) {
	const trials = 64
	setOf := func(base int64) map[int64]bool {
		s := map[int64]bool{}
		for i := 0; i < trials; i++ {
			s[engine.SeedFor(base, i)] = true
		}
		return s
	}
	a, b := setOf(5), setOf(37)
	overlap := 0
	for s := range a {
		if b[s] {
			overlap++
		}
	}
	if overlap > 0 {
		t.Fatalf("base seeds 5 and 37 share %d of %d trial seeds; replications must be independent", overlap, trials)
	}
}

func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		res, err := engine.Map(context.Background(), 100, engine.Config{Workers: workers}, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, r, i*i)
			}
		}
	}
}

func TestMapZeroTrials(t *testing.T) {
	res, err := engine.Map(context.Background(), 0, engine.Config{}, func(int) (int, error) { return 0, nil })
	if err != nil || len(res) != 0 {
		t.Fatalf("zero trials: res=%v err=%v", res, err)
	}
}

func TestMapNegativeTrials(t *testing.T) {
	if _, err := engine.Map(context.Background(), -1, engine.Config{}, func(int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("negative trial count must error")
	}
}

var errBoom = errors.New("boom")

func TestMapReportsLowestIndexError(t *testing.T) {
	// Several trials fail; the reported error must be trial 13's regardless
	// of worker count or scheduling (and so of the derived batch size, which
	// is 8, 4 and 1 trials at these worker counts).
	for _, workers := range []int{1, 2, 8} {
		_, err := engine.Map(context.Background(), 64, engine.Config{Workers: workers}, func(i int) (int, error) {
			if i == 13 || i == 40 || i == 63 {
				return 0, fmt.Errorf("%w at %d", errBoom, i)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, errBoom) {
			t.Fatalf("workers=%d: want errBoom, got %v", workers, err)
		}
		if !strings.Contains(err.Error(), "trial 13") {
			t.Fatalf("workers=%d: error %q must name the lowest failing trial", workers, err)
		}
	}
}

func TestMapStopsClaimingAfterError(t *testing.T) {
	var ran atomic.Int64
	// 10000 trials on 4 workers claim 64-trial batches: trial 0's failure
	// must stop the pool long before the last batch.
	_, err := engine.Map(context.Background(), 10000, engine.Config{Workers: 4}, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errBoom
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n == 10000 {
		t.Fatal("engine must stop claiming batches after a failure")
	}
}

// runMany materializes trials runs of one cell: Map over its Execute.
func runMany(cell engine.Trial, trials int, cfg engine.Config) ([]*sim.Result, error) {
	return engine.Map(context.Background(), trials, cfg, func(i int) (*sim.Result, error) {
		return cell.Execute(context.Background(), i)
	})
}

// runStream streams trials runs of one cell through the grid of one.
func runStream(cell engine.Trial, trials int, cfg engine.Config, sc engine.StreamConfig, h engine.Hooks) (*engine.TrialSummary, error) {
	sums, err := engine.RunGrid(context.Background(), []engine.Trial{cell}, trials, cfg, sc, h)
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// resultKey flattens the fields of a sim.Result that must match exactly. A
// trial hands the engine its Result, not a per-round transcript, so the
// per-node FirstReceive rounds and the Transmissions total are the finest
// trace of the execution the engine can compare.
func resultKey(r *sim.Result) string {
	return fmt.Sprintf("%v/%d/%d/%v", r.Completed, r.Rounds, r.Transmissions, r.FirstReceive)
}

// TestRunManyDeterministicAcrossWorkerCounts is the engine's core guarantee:
// the same base seed produces identical Results with 1 worker and with N
// workers, for a randomized algorithm against a stochastic adversary.
func TestRunManyDeterministicAcrossWorkerCounts(t *testing.T) {
	d, err := graph.CliqueBridge(21)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(21, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.4)
	if err != nil {
		t.Fatal(err)
	}
	simCfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 321}
	const trials = 24

	var ref []*sim.Result
	for _, workers := range []int{1, 2, 3, 8, 24} {
		res, err := runMany(engine.Trial{Net: d, Alg: alg, Adv: adv, Cfg: simCfg}, trials, engine.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != trials {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(res), trials)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res {
			if !reflect.DeepEqual(res[i], ref[i]) {
				t.Fatalf("workers=%d: trial %d diverged:\n got %s\nwant %s",
					workers, i, resultKey(res[i]), resultKey(ref[i]))
			}
		}
	}
}

// TestRunManyMatchesSequentialSimRuns checks the engine against a plain
// sequential loop over sim.Run with the documented seed derivation.
func TestRunManyMatchesSequentialSimRuns(t *testing.T) {
	d, err := graph.CompleteLayered(13)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(13, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	adv := adversary.GreedyCollider{}
	simCfg := sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 55}
	const trials = 10

	want := make([]*sim.Result, trials)
	for i := 0; i < trials; i++ {
		c := simCfg
		c.Seed = engine.SeedFor(simCfg.Seed, i)
		want[i], err = sim.Run(d, alg, adv, c)
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := runMany(engine.Trial{Net: d, Alg: alg, Adv: adv, Cfg: simCfg}, trials, engine.Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("engine results differ from the sequential reference loop")
	}
}

// TestRunTrialsHeterogeneous runs different cells side by side through one
// Map call: element i is trial 0 of cell i.
func TestRunTrialsHeterogeneous(t *testing.T) {
	line, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	clique, err := graph.CliqueBridge(8)
	if err != nil {
		t.Fatal(err)
	}
	trials := []engine.Trial{
		{Net: line, Alg: core.NewRoundRobin(), Adv: adversary.Benign{},
			Cfg: sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1}},
		{Net: clique, Alg: core.NewRoundRobin(), Adv: adversary.GreedyCollider{},
			Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 2}},
	}
	res, err := engine.Map(context.Background(), len(trials), engine.Config{Workers: 2}, func(i int) (*sim.Result, error) {
		return trials[i].Execute(context.Background(), 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if !res[0].Completed || res[0].Rounds != 5 {
		t.Fatalf("round robin on a 6-line: %+v, want completion in 5 rounds", res[0])
	}
	if !res[1].Completed {
		t.Fatal("round robin on the clique-bridge must complete")
	}
}
