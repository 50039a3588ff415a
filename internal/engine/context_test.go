package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// testCell builds one small runnable trial cell.
func testCell(t *testing.T, seed int64) Trial {
	t.Helper()
	net, err := graph.CliqueBridge(9)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(net.N(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	return Trial{
		Net: net,
		Alg: alg,
		Adv: adversary.GreedyCollider{},
		Cfg: sim.Config{Rule: sim.CR4, Start: sim.AsyncStart, Seed: seed},
	}
}

// A pre-cancelled context must stop every entry point before (or at) the
// first claim boundary and surface context.Canceled through errors.Is.
func TestContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cell := testCell(t, 1)

	if _, err := Map(ctx, 100, Config{Workers: 4}, func(i int) (int, error) { return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Map: want context.Canceled, got %v", err)
	}
	execute := func(i int) (*sim.Result, error) { return cell.Execute(ctx, i) }
	if _, err := Map(ctx, 50, Config{Workers: 4}, execute); !errors.Is(err, context.Canceled) {
		t.Fatalf("Map over Execute: want context.Canceled, got %v", err)
	}
	if _, err := RunGrid(ctx, []Trial{cell}, 50, Config{Workers: 4}, StreamConfig{}, Hooks{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunGrid: want context.Canceled, got %v", err)
	}
	if _, err := FoldShardContext(ctx, cell, 0, 10, StreamConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("FoldShardContext: want context.Canceled, got %v", err)
	}
}

// Cancelling mid-run stops the grid without delivering incomplete cells:
// every summary handed to onCell must be byte-identical to the same cell's
// uninterrupted standalone run (the grid of that cell alone).
func TestGridContextCancelDeliversOnlyCompleteCells(t *testing.T) {
	const trials = 64
	cells := []Trial{testCell(t, 1), testCell(t, 2), testCell(t, 3), testCell(t, 4)}

	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	delivered := map[int]*TrialSummary{}
	n := 0
	_, err := RunGrid(ctx, cells, trials, Config{Workers: 2}, StreamConfig{}, Hooks{
		OnCell: func(c int, sum *TrialSummary) {
			mu.Lock()
			delivered[c] = sum
			n++
			if n == 1 {
				cancel() // cancel after the first completed cell
			}
			mu.Unlock()
		},
	})
	defer cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(delivered) == 0 {
		t.Fatal("cancel fired from onCell, so at least one cell completed")
	}
	if len(delivered) == len(cells) {
		t.Log("all cells completed before the cancel took effect (tiny grid); delivery-equality still checked")
	}
	for c, got := range delivered {
		sums, err := RunGrid(context.Background(), cells[c:c+1], trials, Config{Workers: 1}, StreamConfig{}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		want := sums[0]
		if got.Trials != want.Trials || got.Completed != want.Completed {
			t.Fatalf("cell %d: delivered summary (%d/%d) differs from standalone (%d/%d)",
				c, got.Completed, got.Trials, want.Completed, want.Trials)
		}
		gm, _ := got.Rounds.Mean()
		wm, _ := want.Rounds.Mean()
		if gm != wm {
			t.Fatalf("cell %d: delivered mean %v != standalone %v", c, gm, wm)
		}
	}
}

// onCell must fire exactly once per cell on an uninterrupted run, and the
// delivered summaries must be the returned ones.
func TestGridOnCellDeliversEveryCellOnce(t *testing.T) {
	cells := []Trial{testCell(t, 1), testCell(t, 2), testCell(t, 3)}
	var calls [3]atomic.Int32
	var got [3]*TrialSummary
	var mu sync.Mutex
	sums, err := RunGrid(context.Background(), cells, 10, Config{Workers: 4}, StreamConfig{}, Hooks{
		OnCell: func(c int, sum *TrialSummary) {
			calls[c].Add(1)
			mu.Lock()
			got[c] = sum
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for c := range cells {
		if n := calls[c].Load(); n != 1 {
			t.Fatalf("cell %d delivered %d times", c, n)
		}
		if got[c] != sums[c] {
			t.Fatalf("cell %d: onCell summary is not the returned summary", c)
		}
	}
}

// A trial error must still win over cancellation and be reported with the
// deterministic lowest (cell, trial) key.
func TestContextErrorPrecedence(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Map(ctx, 8, Config{Workers: 1}, func(i int) (int, error) {
		if i == 3 {
			cancel()
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the trial error to take precedence, got %v", err)
	}
}

// TestGridCancelStopsARunningTrial: cancelling a grid whose one trial runs
// for seconds returns context.Canceled within a second — the trial checks
// ctx between rounds instead of running to its end.
func TestGridCancelStopsARunningTrial(t *testing.T) {
	line, err := graph.Line(2)
	if err != nil {
		t.Fatal(err)
	}
	// The source sleeps through each of its 10,000 rounds without ever
	// sending, so the trial alone takes at least 10 s.
	cell := Trial{Net: line, Alg: sleeper{}, Adv: adversary.Benign{}, Cfg: sim.Config{MaxRounds: 10_000}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	start := time.Now()
	_, err = RunGrid(ctx, []Trial{cell}, 1, Config{Workers: 1}, StreamConfig{}, Hooks{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if took := time.Since(start); took > time.Second+100*time.Millisecond {
		t.Fatalf("cancel took %v to stop the running trial, want under 1s", took)
	}
}

// sleeper is an algorithm whose processes never transmit and sleep a
// millisecond in every Decide.
type sleeper struct{}

func (sleeper) Name() string { return "sleeper" }

func (sleeper) NewProcess(int, int, *rand.Rand) sim.Process { return sleeper{} }

func (sleeper) Start(int, bool) {}

func (sleeper) Decide(int) bool {
	time.Sleep(time.Millisecond)
	return false
}

func (sleeper) Receive(int, sim.Reception) {}
