package dualgraph_test

import (
	"context"
	"reflect"
	"testing"

	"dualgraph"
	"dualgraph/internal/engine"
)

func TestFacadeQuickstart(t *testing.T) {
	net, err := dualgraph.Geometric(40, 0.3, 0.7, dualgraph.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	alg, err := dualgraph.NewHarmonicForN(net.N(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dualgraph.Run(net, alg, dualgraph.GreedyCollider{}, dualgraph.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("quickstart run did not complete")
	}
	if res.Rounds < net.Eccentricity() {
		t.Fatalf("completed in %d rounds, below the eccentricity %d", res.Rounds, net.Eccentricity())
	}
}

func TestFacadeDeterministicStrongSelect(t *testing.T) {
	net, err := dualgraph.CliqueBridge(17)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := dualgraph.NewStrongSelect(net.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := dualgraph.Run(net, alg, dualgraph.GreedyCollider{}, dualgraph.Config{
		Rule:  dualgraph.CR4,
		Start: dualgraph.AsyncStart,
		Seed:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("strong select did not complete")
	}
}

func TestFacadeLowerBoundGames(t *testing.T) {
	res2, err := dualgraph.RunTheorem2Game(12, dualgraph.NewRoundRobin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ForcedRounds <= 9 || res2.WitnessRounds != 2 {
		t.Fatalf("theorem 2 game: forced=%d witness=%d", res2.ForcedRounds, res2.WitnessRounds)
	}
	res12, err := dualgraph.RunTheorem12Game(9, dualgraph.NewRoundRobin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res12.ForcedRounds < res12.TheoryBound {
		t.Fatalf("theorem 12 game: forced=%d theory=%d", res12.ForcedRounds, res12.TheoryBound)
	}
}

func TestFacadeSelectiveFamilies(t *testing.T) {
	f, err := dualgraph.NewSelectiveFamily(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dualgraph.VerifySelectiveFamily(f, 3); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeRunStream checks the public streaming sweep: the summary must
// agree with the engine's materialized per-trial results on the same seeds,
// and with itself at any worker count.
func TestFacadeRunStream(t *testing.T) {
	net, err := dualgraph.CliqueBridge(17)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := dualgraph.NewHarmonicForN(17, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dualgraph.Config{Seed: 5}
	const trials = 16
	results, err := engine.Map(context.Background(), trials, dualgraph.EngineConfig{},
		engine.Trial{Net: net, Alg: alg, Adv: dualgraph.GreedyCollider{}, Cfg: cfg}.Execute)
	if err != nil {
		t.Fatal(err)
	}
	var ref *dualgraph.TrialSummary
	for _, workers := range []int{1, 4} {
		sum, err := dualgraph.RunStream(context.Background(), net, alg, dualgraph.GreedyCollider{}, cfg, trials,
			dualgraph.EngineConfig{Workers: workers}, dualgraph.StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Trials != trials || sum.Completed != trials {
			t.Fatalf("workers=%d: %d/%d completed, want all %d", workers, sum.Completed, sum.Trials, trials)
		}
		maxRounds, err := sum.Rounds.Max()
		if err != nil {
			t.Fatal(err)
		}
		wantMax := 0.0
		for _, res := range results {
			if r := float64(res.Rounds); r > wantMax {
				wantMax = r
			}
		}
		if maxRounds != wantMax {
			t.Fatalf("workers=%d: streamed max rounds %v, slice path %v", workers, maxRounds, wantMax)
		}
		if ref == nil {
			ref = sum
			continue
		}
		refMed, _ := ref.Rounds.Median()
		med, _ := sum.Rounds.Median()
		if med != refMed {
			t.Fatalf("median differs across worker counts: %v vs %v", med, refMed)
		}
	}
}

// TestFacadeScenarioAndSweep exercises the declarative layer end to end
// through the public API: a Scenario built with functional options must
// reproduce the positional Run path exactly, and a Sweep's grid must agree
// with its cells run standalone.
func TestFacadeScenarioAndSweep(t *testing.T) {
	scn, err := dualgraph.NewScenario(
		dualgraph.WithTopology("clique-bridge", nil),
		dualgraph.WithN(9),
		dualgraph.WithAlgorithm("harmonic", nil),
		dualgraph.WithAdversary("greedy", nil),
		dualgraph.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	built, err := scn.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := built.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	net, err := dualgraph.CliqueBridge(9)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := dualgraph.NewHarmonicForN(9, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dualgraph.Run(net, alg, dualgraph.GreedyCollider{}, dualgraph.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BuiltScenario.Run differs from the positional Run path")
	}

	sw := dualgraph.Sweep{
		Base:        scn,
		Adversaries: []dualgraph.Choice{{Name: "benign"}, {Name: "greedy"}},
		Trials:      6,
	}
	grid, err := sw.Run(context.Background(), dualgraph.EngineConfig{Workers: 4}, dualgraph.StreamConfig{}, dualgraph.SweepHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Cells) != 2 {
		t.Fatalf("grid has %d cells", len(grid.Cells))
	}
	cr, ok := grid.Cell("adv=greedy")
	if !ok {
		t.Fatal("adv=greedy cell missing")
	}
	standalone, err := dualgraph.RunStream(context.Background(), built.Net, built.Alg, built.Adv, built.Cfg, 6,
		dualgraph.EngineConfig{Workers: 1}, dualgraph.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr.Summary, standalone) {
		t.Fatal("grid cell summary differs from the cell's standalone RunStream")
	}
}
