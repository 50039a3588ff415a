package sim_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// probeSchedule alternates between two fixed networks and records which
// epochs the simulator requested, so tests can pin the swap cadence.
type probeSchedule struct {
	a, b     *graph.Dual
	epochLen int
	requests []int
	seeds    []int64
	failAt   int // epoch index that errors; -1 for never
}

func newProbe(a, b *graph.Dual, epochLen int) *probeSchedule {
	return &probeSchedule{a: a, b: b, epochLen: epochLen, failAt: -1}
}

func (s *probeSchedule) N() int           { return s.a.N() }
func (s *probeSchedule) EpochLength() int { return s.epochLen }

func (s *probeSchedule) Epoch(e int, runSeed int64) (*graph.Dual, error) {
	s.requests = append(s.requests, e)
	s.seeds = append(s.seeds, runSeed)
	if e == s.failAt {
		return nil, fmt.Errorf("probe schedule failure at epoch %d", e)
	}
	if e%2 == 0 {
		return s.a, nil
	}
	return s.b, nil
}

// TestRunDynamicMatchesStaticRun: RunDynamic over graph.Static is the same
// code path as Run — the results must be deeply equal.
func TestRunDynamicMatchesStaticRun(t *testing.T) {
	d, err := graph.CliqueBridge(17)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(17, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Seed: 5, Rule: sim.CR4, Start: sim.AsyncStart}
	want, err := sim.Run(d, alg, adversary.GreedyCollider{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunDynamic(graph.Static(d), alg, adversary.GreedyCollider{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunDynamic(Static(d)) differs from Run(d)")
	}
}

// TestEpochSwapCadence pins the epoch lifecycle: epoch 0 starts the run and
// epoch e is requested exactly at round e·L+1, always with the run's seed.
func TestEpochSwapCadence(t *testing.T) {
	line := mustLine(t, 8)
	complete, err := graph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	s := newProbe(line, complete, 3)
	cfg := sim.Config{Seed: 9, Rule: sim.CR3, Start: sim.SyncStart, MaxRounds: 10}
	if _, err := runToCap(s, core.NewRoundRobin(), adversary.Benign{}, cfg); err != nil {
		t.Fatal(err)
	}
	// Rounds 1-3 run epoch 0, 4-6 epoch 1, 7-9 epoch 2, 10 epoch 3.
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(s.requests, want) {
		t.Fatalf("epoch requests = %v, want %v", s.requests, want)
	}
	for i, seed := range s.seeds {
		if seed != cfg.Seed {
			t.Fatalf("request %d passed seed %d, want the run seed %d", i, seed, cfg.Seed)
		}
	}
}

// TestDynamicRunDeterminism: the same dynamic run twice is deeply equal —
// epoch randomness is a pure function of (epoch, run seed).
func TestDynamicRunDeterminism(t *testing.T) {
	base, err := graph.RandomDual(20, 0.25, 0.4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := graph.NewChurn(base, 2, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(20, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Seed: 12}
	first, err := sim.RunDynamic(sched, alg, adversary.GreedyCollider{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sim.RunDynamic(sched, alg, adversary.GreedyCollider{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("dynamic run is not deterministic in its seed")
	}
	if !first.Completed {
		t.Fatal("dynamic broadcast did not complete")
	}
}

// TestEpochSwapAcrossGrowingFringe runs a schedule that alternates between a
// fringeless line and a complete G' every epoch, with full unreliable
// delivery — the heaviest possible cross-swap buffer traffic. Completion and
// determinism prove the swap path leaves no stale delivery state; an
// aliasing bug would corrupt receptions (CR1 collisions differ) or panic.
func TestEpochSwapAcrossGrowingFringe(t *testing.T) {
	n := 10
	line := mustLine(t, n)
	dense, err := func() (*graph.Dual, error) {
		g := graph.NewBuilder(n, false)
		for u := 0; u+1 < n; u++ {
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1))
		}
		gp := graph.NewBuilder(n, false)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				gp.MustAddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
		return graph.NewDual(g, gp, 0)
	}()
	if err != nil {
		t.Fatal(err)
	}
	s := newProbe(line, dense, 2)
	cfg := sim.Config{Seed: 4, Rule: sim.CR3, Start: sim.SyncStart, MaxRounds: 200}
	first, err := sim.RunDynamic(s, core.NewRoundRobin(), adversary.FullDelivery{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2 := newProbe(line, dense, 2)
	second, err := sim.RunDynamic(s2, core.NewRoundRobin(), adversary.FullDelivery{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cross-fringe dynamic run is not deterministic")
	}
	if !first.Completed {
		t.Fatalf("broadcast did not complete across epoch swaps: %+v", first)
	}
}

// TestEpochSwapOneRowOverflowsMidRun: on a directed path whose epochs
// alternate between one and seven unreliable arcs into node 9, node 9's
// per-round unreliable deliveries jump from one to seven at the first swap
// (the case that once overflowed a G'-sized delivery row), while many
// senders are active under full unreliable delivery. The run must complete
// and repeat exactly.
func TestEpochSwapOneRowOverflowsMidRun(t *testing.T) {
	const n = 12
	into9 := func(srcs ...graph.NodeID) *graph.Dual {
		g := graph.NewBuilder(n, true)
		for u := 0; u+1 < n; u++ {
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1))
		}
		gp := g.Clone()
		for _, u := range srcs {
			gp.MustAddEdge(u, 9)
		}
		d, err := graph.NewDual(g, gp, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	few := into9(2)
	many := into9(0, 1, 2, 3, 4, 5, 6)
	cfg := sim.Config{Seed: 6, Rule: sim.CR3, Start: sim.SyncStart, MaxRounds: 2000}
	run := func() (*sim.Result, []int) {
		s := newProbe(few, many, 2)
		res, err := sim.RunDynamic(s, core.NewDecay(), adversary.FullDelivery{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.requests
	}
	first, requests := run()
	second, _ := run()
	if !reflect.DeepEqual(first, second) {
		t.Fatal("one-row-overflow dynamic run is not deterministic")
	}
	if !first.Completed {
		t.Fatalf("broadcast did not complete across the overflowing swap: %+v", first)
	}
	if len(requests) < 2 {
		t.Fatalf("run ended before the first swap (epochs %v)", requests)
	}
}

// TestEpochErrorSurfaces: a failing epoch build aborts the run with the
// epoch index in the error.
func TestEpochErrorSurfaces(t *testing.T) {
	line := mustLine(t, 6)
	s := newProbe(line, line, 2)
	s.failAt = 1
	cfg := sim.Config{Seed: 1, Rule: sim.CR3, Start: sim.SyncStart, MaxRounds: 20}
	_, err := runToCap(s, core.NewRoundRobin(), adversary.Benign{}, cfg)
	if err == nil || !strings.Contains(err.Error(), "schedule epoch 1") {
		t.Fatalf("err = %v, want a schedule epoch 1 failure", err)
	}
}

// TestEpochNodeCountMismatchRejected: an epoch with a different node count
// is a schedule bug and must fail with ErrBadEpoch, not corrupt state.
func TestEpochNodeCountMismatchRejected(t *testing.T) {
	small := mustLine(t, 6)
	bigger := mustLine(t, 7)
	s := newProbe(small, bigger, 2)
	cfg := sim.Config{Seed: 1, Rule: sim.CR3, Start: sim.SyncStart, MaxRounds: 20}
	_, err := runToCap(s, core.NewRoundRobin(), adversary.Benign{}, cfg)
	if !errors.Is(err, sim.ErrBadEpoch) {
		t.Fatalf("err = %v, want ErrBadEpoch", err)
	}
}

// TestEpochSourceDriftRejected: an epoch that moves the source would leave
// the run's holder tracking pinned to the old source while adversaries see
// the new one; it must fail with ErrBadEpoch instead.
func TestEpochSourceDriftRejected(t *testing.T) {
	a := mustLine(t, 6)
	g := graph.NewBuilder(6, false)
	for u := 0; u+1 < 6; u++ {
		g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1))
	}
	moved, err := graph.NewDual(g, g.Clone(), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := newProbe(a, moved, 2)
	cfg := sim.Config{Seed: 1, Rule: sim.CR3, Start: sim.SyncStart, MaxRounds: 20}
	_, err = runToCap(s, core.NewRoundRobin(), adversary.Benign{}, cfg)
	if !errors.Is(err, sim.ErrBadEpoch) {
		t.Fatalf("err = %v, want ErrBadEpoch for source drift", err)
	}
}
