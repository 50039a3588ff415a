package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/metrics"
	"dualgraph/internal/sim"
)

// materializedSchedule serves every epoch of a schedule as a Dual assembled
// from the epoch's built cores, so a run over it reads only CSR slices.
type materializedSchedule struct{ graph.Schedule }

func (m materializedSchedule) Epoch(e int, seed int64) (*graph.Dual, error) {
	d, err := m.Schedule.Epoch(e, seed)
	if err != nil {
		return nil, err
	}
	return graph.NewDualGraphs(d.G(), d.GPrime(), d.Source())
}

// TestOverlayRunMatchesMaterialized is the differential check of overlay
// epochs at the simulator level: a run on a churn or fade schedule, whose
// epochs the round loop reads through Dual.Row and HasUnreliableEdge, must
// equal the same run on the same epochs' built cores — across dense and
// sparse delivery, undirected and directed bases, CR1–CR4, both start
// rules, and the built-in adversaries that read the fringe (full delivery,
// random), jam through membership tests (greedy), or plan over EdgeIDs
// (adaptive). Every run but the adaptive one must leave its epochs unbuilt.
func TestOverlayRunMatchesMaterialized(t *testing.T) {
	defer metrics.SetEnabled(metrics.Enabled())
	metrics.SetEnabled(true)
	rng := rand.New(rand.NewSource(5))
	type net struct {
		d        *graph.Dual
		adaptive bool // small enough for the planning adversary
	}
	var nets []net
	for _, n := range []int{5, 7, 9} {
		d, err := graph.RandomDual(n, 0.25, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net{d, n <= 7})
	}
	// Sparse delivery mode: a thin geometric network and a long directed
	// layered one.
	geo, err := graph.Geometric(160, 0.08, 0.16, rng)
	if err != nil {
		t.Fatal(err)
	}
	layers := make([]int, 40)
	for i := range layers {
		layers[i] = 2
	}
	directed, err := graph.DirectedLayered(layers)
	if err != nil {
		t.Fatal(err)
	}
	nets = append(nets, net{geo, false}, net{directed, false})

	random, err := adversary.NewRandom(0.5)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := adversary.NewAdaptive(3, 6, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	advs := []struct {
		name string
		adv  sim.Adversary
	}{{"full-delivery", adversary.FullDelivery{}}, {"random", random}, {"greedy", adversary.GreedyCollider{}}, {"adaptive", adaptive}}
	alg, err := core.NewUniform(0.2)
	if err != nil {
		t.Fatal(err)
	}
	for i, nt := range nets {
		churn, err := graph.NewChurn(nt.d, 2, 0.3)
		if err != nil {
			t.Fatal(err)
		}
		fade, err := graph.NewFade(nt.d, 2, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, sched := range []graph.Schedule{churn, fade} {
			for _, a := range advs {
				if a.name == "adaptive" && !nt.adaptive {
					continue
				}
				for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4} {
					for _, start := range []sim.StartRule{sim.SyncStart, sim.AsyncStart} {
						cfg := sim.Config{Rule: rule, Start: start, MaxRounds: 60, Seed: int64(i + 1)}
						label := fmt.Sprintf("net%d/%T/%s/%v/%v", i, sched, a.name, rule, start)
						built := materializations(t)
						got, gotErr := sim.RunDynamic(sched, alg, a.adv, cfg)
						if n := materializations(t) - built; n != 0 && a.name != "adaptive" {
							t.Fatalf("%s: the overlay run built %d epochs' cores", label, n)
						}
						want, wantErr := sim.RunDynamic(materializedSchedule{sched}, alg, a.adv, cfg)
						if (gotErr == nil) != (wantErr == nil) {
							t.Fatalf("%s: overlay error %v, built-cores error %v", label, gotErr, wantErr)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: overlay run %+v, built-cores run %+v", label, got, want)
						}
					}
				}
			}
		}
	}
}
