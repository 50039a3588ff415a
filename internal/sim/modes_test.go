package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// TestDeliveryModesAgree is the per-round strong equivalence of the two
// delivery modes: a run whose buffers are swapped, before its first round,
// for the other mode's must play exactly like the run in its own mode —
// Senders() equal in every round and the final Result equal. It covers an
// undirected random dual, a directed layered dual and the dense clique
// bridge; CR1–CR4 under sync and async starts; the benign, random, greedy
// collider and full-delivery adversaries; and static, churn and fade
// schedules, every combination once, with every built-in algorithm.
func TestDeliveryModesAgree(t *testing.T) {
	rules := []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4}
	starts := []sim.StartRule{sim.SyncStart, sim.AsyncStart}
	const topos, advs, scheds = 3, 4, 3
	cases := topos * len(rules) * len(starts) * advs * scheds
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		var d *graph.Dual
		var err error
		switch i % topos {
		case 0:
			n := 5 + rng.Intn(30)
			d, err = graph.RandomDual(n, min(0.3, 6/float64(n)), min(0.5, 12/float64(n)), rng)
		case 1:
			layers := []int{1}
			for k := 2 + rng.Intn(3); k > 0; k-- {
				layers = append(layers, 1+rng.Intn(5))
			}
			d, err = graph.DirectedLayered(layers)
		default:
			d, err = graph.CliqueBridge(3 + rng.Intn(30))
		}
		if err != nil {
			t.Fatal(err)
		}
		rule := rules[i/topos%len(rules)]
		start := starts[i/(topos*len(rules))%len(starts)]
		var adv sim.Adversary
		switch i / (topos * len(rules) * len(starts)) % advs {
		case 0:
			adv = adversary.Benign{}
		case 1:
			adv, err = adversary.NewRandom(0.5)
		case 2:
			adv = adversary.GreedyCollider{}
		default:
			adv = adversary.FullDelivery{}
		}
		if err != nil {
			t.Fatal(err)
		}
		var sched graph.Schedule = graph.Static(d)
		switch i / (topos * len(rules) * len(starts) * advs) {
		case 1:
			sched, err = graph.NewChurn(d, 1+rng.Intn(4), 0.3)
		case 2:
			sched, err = graph.NewFade(d, 1+rng.Intn(4), 0.3)
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{Rule: rule, Start: start, Seed: rng.Int63(), MaxRounds: 1500}
		for _, alg := range builtIns(d) {
			got, err := sim.Start(sched, alg, adv, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Start(sched, alg, adv, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mode := "sparse"
			if sim.SwapDeliveryMode(got) {
				mode = "dense"
			}
			name := fmt.Sprintf("case %d n=%d %s (%T, %T, %v, %v) swapped to %s", i, d.N(), alg.Name(), sched, adv, rule, start, mode)
			lockstep(t, name, got, want)
		}
	}
}
