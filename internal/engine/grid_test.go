package engine_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// gridCells builds a small heterogeneous grid: two topologies × two
// algorithms, each cell with its own sim config.
func gridCells(t testing.TB) []engine.Trial {
	t.Helper()
	cb, err := graph.CliqueBridge(9)
	if err != nil {
		t.Fatal(err)
	}
	line, err := graph.Line(9)
	if err != nil {
		t.Fatal(err)
	}
	h, err := core.NewHarmonicForN(9, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	var cells []engine.Trial
	for _, net := range []*graph.Dual{cb, line} {
		for _, alg := range []sim.Algorithm{h, core.NewRoundRobin()} {
			cells = append(cells, engine.Trial{
				Net: net, Alg: alg, Adv: adversary.GreedyCollider{},
				Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: 5},
			})
		}
	}
	return cells
}

// TestGridStreamMatchesPerCellRunStream is the grid determinism contract:
// every cell summary must be bit-identical (including P² marker state, via
// DeepEqual) to streaming that cell alone (a grid of one) on one worker, and
// identical at any worker count of the grid call.
func TestGridStreamMatchesPerCellRunStream(t *testing.T) {
	cells := gridCells(t)
	const trials = 12
	var ref []*engine.TrialSummary
	for _, cell := range cells {
		sum, err := runStream(cell, trials, engine.Config{Workers: 1}, engine.StreamConfig{}, engine.Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		ref = append(ref, sum)
	}
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := engine.RunGrid(context.Background(), cells, trials, engine.Config{Workers: workers}, engine.StreamConfig{}, engine.Hooks{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(cells) {
			t.Fatalf("workers=%d: %d summaries for %d cells", workers, len(got), len(cells))
		}
		for c := range cells {
			if !reflect.DeepEqual(got[c], ref[c]) {
				t.Errorf("workers=%d cell %d: grid summary differs from the cell streamed alone", workers, c)
			}
		}
	}
}

func TestGridStreamEdgeCases(t *testing.T) {
	if sums, err := engine.RunGrid(context.Background(), nil, 5, engine.Config{}, engine.StreamConfig{}, engine.Hooks{}); err != nil || len(sums) != 0 {
		t.Fatalf("empty grid: sums=%v err=%v", sums, err)
	}
	cells := gridCells(t)
	sums, err := engine.RunGrid(context.Background(), cells, 0, engine.Config{}, engine.StreamConfig{}, engine.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range sums {
		if s == nil || s.Trials != 0 {
			t.Fatalf("cell %d: zero-trial summary = %+v", c, s)
		}
	}
	if _, err := engine.RunGrid(context.Background(), cells, -1, engine.Config{}, engine.StreamConfig{}, engine.Hooks{}); err == nil {
		t.Fatal("negative trials must fail")
	}
}

// badAdv fails delivery validation from a specific cell onward, so the
// reported error index is predictable.
type badAdv struct{ adversary.Benign }

func (badAdv) Name() string { return "bad" }

func (badAdv) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	// Deliver along a non-edge: every node to itself.
	m := map[graph.NodeID][]graph.NodeID{}
	for _, s := range senders {
		m[s] = []graph.NodeID{s}
	}
	return m
}

func TestGridStreamReportsLowestCellError(t *testing.T) {
	line, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	good := engine.Trial{Net: line, Alg: core.NewRoundRobin(), Adv: adversary.Benign{},
		Cfg: sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1}}
	bad := good
	bad.Adv = badAdv{}
	_, err = engine.RunGrid(context.Background(), []engine.Trial{good, bad, bad}, 4, engine.Config{Workers: 4}, engine.StreamConfig{}, engine.Hooks{})
	if err == nil || !errors.Is(err, sim.ErrBadDelivery) {
		t.Fatalf("err = %v, want ErrBadDelivery", err)
	}
	const want = "cell 1 trial 0"
	if got := err.Error(); !strings.Contains(got, want) {
		t.Fatalf("err = %q, want it to name %q", got, want)
	}
}

// panicAdv forks each run through sim.RunForker and panics in the fork of
// the run whose sim seed is panicSeed, so exactly one trial of its cell
// panics.
type panicAdv struct {
	adversary.Benign
	panicSeed int64
}

func (a panicAdv) ForkRun(_ graph.Schedule, _ sim.Algorithm, cfg sim.Config) (sim.Adversary, error) {
	if cfg.Seed == a.panicSeed {
		panic("test adversary exploded")
	}
	return a.Benign, nil
}

// TestTrialPanicFailsOnlyItsTrial: a panicking adversary fails its trial
// with a *TrialPanic carrying the trial index and sim seed, through the
// in-process grid at any worker count and through a worker's shard fold,
// instead of crashing the process.
func TestTrialPanicFailsOnlyItsTrial(t *testing.T) {
	line, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	good := engine.Trial{Net: line, Alg: core.NewRoundRobin(), Adv: adversary.Benign{},
		Cfg: sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1}}
	bad := good
	bad.Adv = panicAdv{panicSeed: engine.SeedFor(1, 2)}
	check := func(path string, err error, wantText string) {
		t.Helper()
		var tp *engine.TrialPanic
		if !errors.As(err, &tp) {
			t.Fatalf("%s: err = %v, want a *TrialPanic", path, err)
		}
		if tp.Trial != 2 || tp.Seed != engine.SeedFor(1, 2) || tp.Value != "test adversary exploded" || len(tp.Stack) == 0 {
			t.Fatalf("%s: panic = {trial %d, seed %d, value %v, %d stack bytes}, want trial 2, seed %d",
				path, tp.Trial, tp.Seed, tp.Value, len(tp.Stack), engine.SeedFor(1, 2))
		}
		if !strings.Contains(err.Error(), wantText) {
			t.Fatalf("%s: err = %q, want it to name %q", path, err, wantText)
		}
	}
	for _, workers := range []int{1, 4} {
		_, err := engine.RunGrid(context.Background(), []engine.Trial{good, bad, good}, 4,
			engine.Config{Workers: workers}, engine.StreamConfig{}, engine.Hooks{})
		check("RunGrid", err, "cell 1 trial 2")
	}
	_, err = engine.FoldShardContext(context.Background(), bad, 0, 4, engine.StreamConfig{})
	check("FoldShardContext", err, "trial 2")
	if _, err := engine.FoldShardContext(context.Background(), bad, 3, 4, engine.StreamConfig{}); err != nil {
		t.Fatalf("a shard without the panicking trial failed: %v", err)
	}
}
