package adversary_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// senderLoopGreedy is the reference greedy collider: the jamming policy
// stated the plain way. Each clean non-holder u is jammed by the first
// sender, in ascending order, other than u's lone reacher that has an
// unreliable edge to u, found by one membership test per sender; every CR4
// collision goes to Resolve.
type senderLoopGreedy struct{}

func (senderLoopGreedy) Name() string { return "sender-loop-greedy" }

func (senderLoopGreedy) AssignProcs(d *graph.Dual, rng *rand.Rand) ([]int, error) {
	return adversary.GreedyCollider{}.AssignProcs(d, rng)
}

func (a senderLoopGreedy) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

func (senderLoopGreedy) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	sink.EachReachedOnce(func(u, from graph.NodeID) bool {
		if v.HasMessage(u) {
			return true
		}
		for _, s := range senders {
			if s != from && v.Dual.HasUnreliableEdge(s, u) {
				sink.Add(s, u)
				break
			}
		}
		return true
	})
}

func (senderLoopGreedy) Resolve(v *sim.View, _ graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	for _, s := range reaching {
		if !v.HasMessage(s) {
			return s
		}
	}
	return sim.NoDelivery
}

// randomDirectedDual is a random directed network: a random arborescence
// out of the source in G, and random further arcs in G and in G' alone,
// reverses of G arcs included.
func randomDirectedDual(n int, rng *rand.Rand) (*graph.Dual, error) {
	g, gp := graph.NewBuilder(n, true), graph.NewBuilder(n, true)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := graph.NodeID(perm[rng.Intn(i)]), graph.NodeID(perm[i])
		g.MustAddEdge(u, v)
		gp.MustAddEdge(u, v)
	}
	for k := 0; k < 3*n; k++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		gp.MustAddEdge(u, v)
		if rng.Intn(3) == 0 {
			g.MustAddEdge(u, v)
		}
	}
	return graph.NewDual(g, gp, graph.NodeID(perm[0]))
}

// TestGreedyMatchesSenderLoopReference pins the greedy collider's in-row jam
// search and its silenced collisions against the reference: on random
// undirected and directed networks, under static, churn and fade schedules,
// CR1–CR4 and sync/async starts, both runs must be identical. Blank senders
// make rounds in which the greedy collider may not silence collisions.
func TestGreedyMatchesSenderLoopReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var nets []*graph.Dual
	for _, n := range []int{4, 9, 16, 24} {
		d, err := graph.RandomDual(n, 0.15, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, d)
		if d, err = randomDirectedDual(n, rng); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, d)
	}
	harmonic, err := core.NewHarmonic(3)
	if err != nil {
		t.Fatal(err)
	}
	algs := []sim.Algorithm{core.NewDecay(), harmonic, blankSender{}}
	for i, d := range nets {
		churn, err := graph.NewChurn(d, 3, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		fade, err := graph.NewFade(d, 2, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		for si, sched := range []graph.Schedule{graph.Static(d), churn, fade} {
			for _, alg := range algs {
				for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4} {
					for _, start := range []sim.StartRule{sim.SyncStart, sim.AsyncStart} {
						cfg := sim.Config{Rule: rule, Start: start, MaxRounds: 400, Seed: int64(7*i + si)}
						label := fmt.Sprintf("net%d(n=%d, directed=%v)/sched%d/%s/%v/%v", i, d.N(), d.Directed(), si, alg.Name(), rule, start)
						want, wantErr := sim.RunDynamic(sched, alg, senderLoopGreedy{}, cfg)
						got, gotErr := sim.RunDynamic(sched, alg, adversary.GreedyCollider{}, cfg)
						if wantErr != nil || gotErr != nil {
							t.Fatalf("%s: reference error %v, greedy error %v", label, wantErr, gotErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: greedy run %+v, reference run %+v", label, got, want)
						}
					}
				}
			}
		}
	}
}
