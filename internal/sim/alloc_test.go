package sim_test

import (
	"math/rand"
	"runtime"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// TestRoundLoopAllocationFreeSteadyState guards the allocation-free delivery
// path: executing 40x more rounds must not cost meaningfully more heap
// allocations, because per-round state lives in preallocated run buffers.
// Only run setup (processes, buffers, result) may allocate.
func TestRoundLoopAllocationFreeSteadyState(t *testing.T) {
	d, err := graph.CliqueBridge(33)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewUniform(0.3)
	if err != nil {
		t.Fatal(err)
	}
	measure := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := sim.Run(d, alg, adversary.GreedyCollider{}, sim.Config{
				Rule:           sim.CR4,
				Start:          sim.SyncStart,
				Seed:           7,
				MaxRounds:      rounds,
				RunToMaxRounds: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			_ = res
		})
	}
	short := measure(2000)
	long := measure(8000)
	// The reaching lists grow to their steady-state capacity during early
	// rounds; beyond that the round loop must not allocate. Allow a small
	// slack for stragglers and runtime noise — the old map-based path cost
	// several allocations per round, which over 6000 extra rounds would blow
	// far past this bound.
	if long > short+64 {
		t.Fatalf("round loop allocates per round: %0.f allocs at 2000 rounds vs %0.f at 8000", short, long)
	}
}

// TestLargeScaleRoundLoopAllocationFree is the 100k-node stress path: a
// geometric dual with ~2.7M arcs must build via the cell-bucketed generator
// and run a 1000-round CR3 broadcast whose steady-state round loop does not
// allocate. Skipped under -short (it takes ~20s); the full CI test lane
// runs it.
func TestLargeScaleRoundLoopAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node stress sim skipped in -short mode")
	}
	const n = 100_000
	d, err := graph.Geometric(n, 0.004, 0.009, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != n {
		t.Fatalf("n = %d", d.N())
	}
	alg, err := core.NewUniform(0.05)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.3)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(rounds int) (*sim.Result, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := sim.Run(d, alg, adv, sim.Config{
			Rule:           sim.CR3,
			Start:          sim.AsyncStart,
			Seed:           7,
			MaxRounds:      rounds,
			RunToMaxRounds: true,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return res, after.Mallocs - before.Mallocs
	}
	// Both runs pay the identical setup (processes, run buffers) and the
	// reaching lists reach steady-state capacity well before round 300, so
	// the malloc difference isolates the per-round cost of 700 extra rounds.
	_, baseAllocs := measure(300)
	res, fullAllocs := measure(1000)
	if !res.Completed {
		t.Fatalf("broadcast did not cover all %d nodes within 1000 rounds", n)
	}
	extra := int64(fullAllocs) - int64(baseAllocs)
	if extra > 700 { // < 1 allocation per extra round on average
		t.Fatalf("steady-state rounds allocate: %d extra mallocs over 700 rounds", extra)
	}
}

// TestLargeScaleDynamicAllocationBounded extends the 100k-node stress path
// to dynamic schedules: under churn and fade the steady-state rounds must
// stay allocation-free and only epoch boundaries may allocate, bounded by a
// fixed per-swap budget (the incremental epoch patch allocates a handful of
// arrays per epoch — down/dirty masks, patched CSR cores, the fringe — never
// anything proportional to the round count). Skipped under -short with the
// static stress test; the full CI test lane runs it.
func TestLargeScaleDynamicAllocationBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node dynamic stress sim skipped in -short mode")
	}
	const (
		n        = 100_000
		epochLen = 50
		// Per-swap allocation budget: the incremental churn epoch costs ~12
		// graph-side allocations (masks, two patched cores, fringe, dual);
		// fade slightly fewer. A full Builder→Freeze rebuild costs hundreds
		// per epoch at this scale.
		perEpochBudget = 48
	)
	d, err := graph.Geometric(n, 0.004, 0.009, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	alg, err := core.NewUniform(0.05)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewRandom(0.3)
	if err != nil {
		t.Fatal(err)
	}
	schedules := map[string]graph.Schedule{}
	if churn, err := graph.NewChurn(d, epochLen, 0.0001); err != nil {
		t.Fatal(err)
	} else {
		schedules["churn"] = churn
	}
	if fade, err := graph.NewFade(d, epochLen, 0.00002); err != nil {
		t.Fatal(err)
	} else {
		schedules["fade"] = fade
	}
	for name, sched := range schedules {
		t.Run(name, func(t *testing.T) {
			measure := func(rounds int) uint64 {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				_, err := sim.RunDynamic(sched, alg, adv, sim.Config{
					Rule:           sim.CR3,
					Start:          sim.AsyncStart,
					Seed:           7,
					MaxRounds:      rounds,
					RunToMaxRounds: true,
				})
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return after.Mallocs - before.Mallocs
			}
			// Both runs pay identical setup; the difference isolates 400
			// extra rounds containing 8 extra epoch swaps.
			baseAllocs := measure(200)
			fullAllocs := measure(600)
			extra := int64(fullAllocs) - int64(baseAllocs)
			extraEpochs := int64((600 - 200) / epochLen)
			budget := extraEpochs*perEpochBudget + 100
			if extra > budget {
				t.Fatalf("%s: %d extra mallocs over 400 rounds / %d epochs (budget %d): epoch swaps are not allocation-bounded",
					name, extra, extraEpochs, budget)
			}
		})
	}
}

// prebuiltSchedule serves epochs materialized up front, so a run over it
// measures only what the simulator itself spends per swap.
type prebuiltSchedule struct {
	graph.Schedule
	seed  int64
	duals []*graph.Dual
}

func (p *prebuiltSchedule) Epoch(e int, seed int64) (*graph.Dual, error) {
	if seed == p.seed && e < len(p.duals) {
		return p.duals[e], nil
	}
	return p.Schedule.Epoch(e, seed)
}

// TestEpochSwapAllocationFree pins that an epoch swap costs the simulator no
// allocation: with every waypoint epoch built up front, 250 extra swaps
// (every epoch moves the nodes, so each swap installs a new G and G') must
// cost well under one malloc per ten swaps. Per-run buffers are sized by n
// alone, so nothing is re-sized or re-scanned when the network changes.
func TestEpochSwapAllocationFree(t *testing.T) {
	const (
		n        = 300
		epochLen = 2
		seed     = 7
	)
	base, err := graph.Geometric(n, 0.08, 0.16, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	wp, err := graph.NewWaypoint(base, epochLen, 4, 0.08, 0.16)
	if err != nil {
		t.Fatal(err)
	}
	sched := &prebuiltSchedule{Schedule: wp, seed: seed}
	for e := 0; e <= 700/epochLen; e++ {
		d, err := wp.Epoch(e, seed)
		if err != nil {
			t.Fatal(err)
		}
		sched.duals = append(sched.duals, d)
	}
	alg, err := core.NewUniform(0.1)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(rounds int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := sim.RunDynamic(sched, alg, adversary.GreedyCollider{}, sim.Config{
			Rule:           sim.CR4,
			Start:          sim.AsyncStart,
			Seed:           seed,
			MaxRounds:      rounds,
			RunToMaxRounds: true,
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	baseAllocs := measure(200)
	fullAllocs := measure(700)
	const extraSwaps = (700 - 200) / epochLen
	extra := int64(fullAllocs) - int64(baseAllocs)
	t.Logf("%d extra mallocs over %d extra epoch swaps", extra, extraSwaps)
	if extra*10 >= extraSwaps {
		t.Fatalf("epoch swaps allocate: %d extra mallocs over %d extra swaps, want < %d",
			extra, extraSwaps, extraSwaps/10)
	}
}

// TestRunSetupAllocationPerNode bounds what one run costs before its round
// loop: a 1-round run at n=256 must allocate under 1 KB per node. Per-run
// randomness is n+2 SplitMix64 streams of 8 bytes of state each; the bound
// leaves room for processes and run buffers but not for a per-process
// generator table such as a ~5 KB math/rand source.
func TestRunSetupAllocationPerNode(t *testing.T) {
	const (
		n    = 256
		runs = 20
	)
	d, err := graph.Geometric(n, 0.12, 0.25, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) {
		if _, err := sim.Run(d, core.NewDecay(), adversary.GreedyCollider{}, sim.Config{
			Rule: sim.CR4, Start: sim.AsyncStart, Seed: seed, MaxRounds: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	run(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		run(int64(i))
	}
	runtime.ReadMemStats(&after)
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
	t.Logf("1-round run at n=%d: %.0f B per node", n, perNode)
	if perNode >= 1024 {
		t.Fatalf("run setup allocates %.0f B per node, want < 1024", perNode)
	}
}
