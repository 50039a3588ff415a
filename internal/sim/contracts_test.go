package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// hidden wraps an algorithm so the round loop sees none of its optional
// contracts: no NewProcessRNG (its processes get a *rand.Rand), no
// HoldersIgnoreReceptions, and processes without NextSend. Embedding the
// interfaces promotes only their own methods.
type hidden struct{ sim.Algorithm }

func (a hidden) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	return plainProc{a.Algorithm.NewProcess(id, n, rng)}
}

type plainProc struct{ sim.Process }

// builtIns returns every built-in algorithm for the n-node network d.
// Delta-select gets Δ = 3, so its family is a Reed–Solomon one once n is
// large enough.
func builtIns(d *graph.Dual) []sim.Algorithm {
	n := d.N()
	return []sim.Algorithm{
		core.NewRoundRobin(), core.NewDecay(), must(core.NewUniform(0.25)),
		must(core.NewHarmonicForN(n, 0.1)), must(core.NewStrongSelect(n)),
		must(core.NewDeltaSelect(n, 3)), must(core.NewTreeCast(d.G(), d.Source())),
	}
}

// must returns v, panicking on a construction error in a fixture.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// TestContractsMatchHiddenContracts is the strong-equivalence check of the
// optional round-loop contracts. Every built-in declares deaf holders,
// Decay, Uniform and Harmonic draw from a value RNG, and Strong Select and
// round robin plan their sends. A run that uses the contracts must equal
// the run through Process and NewProcess alone: on random small duals, under CR1–CR4, sync and async starts, the
// benign, greedy-collider and random adversaries, and static, churn and fade
// schedules, Senders() agrees in every round and the final Result is equal.
// Every fourth network has n >= 128, where Strong Select runs two scales.
func TestContractsMatchHiddenContracts(t *testing.T) {
	for _, alg := range []sim.Algorithm{core.NewDecay(), &core.Uniform{P: 0.5}, &core.Harmonic{T: 3}} {
		if _, ok := alg.(sim.ValueRNGAlgorithm); !ok {
			t.Fatalf("%s does not draw from a value RNG", alg.Name())
		}
	}
	for _, alg := range []sim.Algorithm{core.NewRoundRobin(), must(core.NewStrongSelect(8))} {
		if _, ok := alg.NewProcess(1, 8, nil).(sim.SendPlanner); !ok {
			t.Fatalf("%s processes do not plan their sends", alg.Name())
		}
	}
	rules := []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4}
	starts := []sim.StartRule{sim.SyncStart, sim.AsyncStart}
	cases := 72
	if testing.Short() {
		cases = 24
	}
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		n := 5 + rng.Intn(12)
		if i%4 == 3 {
			n = 128 + rng.Intn(40)
		}
		d, err := graph.RandomDual(n, min(0.2, 6/float64(n)), min(0.5, 12/float64(n)), rng)
		if err != nil {
			t.Fatal(err)
		}
		var sched graph.Schedule = graph.Static(d)
		switch i % 3 {
		case 1:
			sched, err = graph.NewChurn(d, 1+rng.Intn(4), 0.3)
		case 2:
			sched, err = graph.NewFade(d, 1+rng.Intn(4), 0.3)
		}
		if err != nil {
			t.Fatal(err)
		}
		var adv sim.Adversary
		switch i / 3 % 3 {
		case 0:
			adv = adversary.GreedyCollider{}
		case 1:
			adv, err = adversary.NewRandom(0.5)
		default:
			adv = adversary.Benign{}
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Rule: rules[i%4], Start: starts[i/4%2], Seed: rng.Int63(), MaxRounds: 1500}
		for _, alg := range builtIns(d) {
			if dh, ok := alg.(sim.DeafHolders); !ok || !dh.HoldersIgnoreReceptions() {
				t.Fatalf("%s does not declare deaf holders", alg.Name())
			}
			name := fmt.Sprintf("case %d n=%d %s (%T, %T, %v, %v)", i, n, alg.Name(), sched, adv, cfg.Rule, cfg.Start)
			compareRuns(t, name, sched, alg, hidden{alg}, adv, cfg)
		}
	}
}

// compareRuns steps a run of alg and a run of ref in lockstep and fails at
// the first round whose senders differ, or when the Results differ.
func compareRuns(t *testing.T, name string, sched graph.Schedule, alg, ref sim.Algorithm, adv sim.Adversary, cfg sim.Config) {
	t.Helper()
	got, err := sim.Start(sched, alg, adv, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := sim.Start(sched, ref, adv, cfg)
	if err != nil {
		t.Fatalf("%s: hidden: %v", name, err)
	}
	lockstep(t, name, got, want)
}

// lockstep steps got and want together and fails at the first round whose
// Step outcome or senders differ, or when the final Results differ.
func lockstep(t *testing.T, name string, got, want *sim.Execution) {
	t.Helper()
	for done := false; !done; {
		var err error
		done, err = got.Step()
		wantDone, wantErr := want.Step()
		if !reflect.DeepEqual(err, wantErr) || done != wantDone {
			t.Fatalf("%s round %d: Step = (%v, %v), reference (%v, %v)", name, got.Round(), done, err, wantDone, wantErr)
		}
		if !slices.Equal(got.Senders(), want.Senders()) {
			t.Fatalf("%s: first divergence in round %d: senders %v, reference %v", name, got.Round(), got.Senders(), want.Senders())
		}
	}
	if !reflect.DeepEqual(got.Result(), want.Result()) {
		t.Fatalf("%s: Result %+v, reference %+v", name, got.Result(), want.Result())
	}
}

// deafScript is the scripted algorithm declaring deaf holders.
type deafScript struct{ *scriptAlg }

func (deafScript) HoldersIgnoreReceptions() bool { return true }

// TestDeafHoldersSkipOnlyHolders: under deaf holders the loop calls Receive
// on a node in exactly the rounds it is active without the message at the
// start of the round, so it still hears its silences, collisions and the
// round the message arrives; without the declaration it hears every round.
func TestDeafHoldersSkipOnlyHolders(t *testing.T) {
	const n = 5
	every := map[int]bool{1: true, 2: true, 3: true, 4: true, 5: true, 6: true}
	sends := map[int]map[int]bool{}
	for pid := 1; pid <= n; pid++ {
		sends[pid] = every
	}
	for _, deaf := range []bool{false, true} {
		script := newScriptAlg(sends, false)
		var alg sim.Algorithm = script
		if deaf {
			alg = deafScript{script}
		}
		res, err := sim.Run(mustLine(t, n), alg, adversary.Benign{}, sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for node, pid := range res.ProcOf {
			var heard []int
			for r := 1; r <= res.Rounds; r++ {
				if _, ok := script.procs[pid].recs[r]; ok {
					heard = append(heard, r)
				}
			}
			var want []int
			for r := 1; r <= res.Rounds; r++ {
				if !deaf || r <= res.FirstReceive[node] {
					want = append(want, r)
				}
			}
			if !slices.Equal(heard, want) {
				t.Fatalf("deaf=%v node %d (first receive %d): Receive in rounds %v, want %v", deaf, node, res.FirstReceive[node], heard, want)
			}
		}
	}
}
