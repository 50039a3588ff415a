package adversary_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/interference"
	"dualgraph/internal/sim"
)

// mapOnly hides every interface of the wrapped adversary except
// sim.Adversary, so the engine drives it through Deliver and its map shim.
type mapOnly struct{ sim.Adversary }

// mapOnlyForker forwards sim.RunForker and hides the fork's fast path too.
type mapOnlyForker struct {
	mapOnly
	f sim.RunForker
}

func (a mapOnlyForker) ForkRun(sched graph.Schedule, alg sim.Algorithm, cfg sim.Config) (sim.Adversary, error) {
	fork, err := a.f.ForkRun(sched, alg, cfg)
	if err != nil {
		return nil, err
	}
	return mapOnly{fork}, nil
}

func hideFastPath(adv sim.Adversary) sim.Adversary {
	if f, ok := adv.(sim.RunForker); ok {
		return mapOnlyForker{mapOnly{adv}, f}
	}
	return mapOnly{adv}
}

// blankSender transmits with probability 1/2 in every round it is active,
// whether or not it holds the message, so collisions are reached by blank
// messages too. A process that heard another's message stays silent in the
// next round, so what a collision resolves to shows in the transmissions.
type blankSender struct{}

func (blankSender) Name() string { return "blank-sender" }

func (blankSender) NewProcess(_, _ int, rng *rand.Rand) sim.Process { return &blankProc{rng: rng} }

type blankProc struct {
	rng   *rand.Rand
	heard bool
}

func (*blankProc) Start(int, bool)   {}
func (p *blankProc) Decide(int) bool { return p.rng.Intn(2) == 0 && !p.heard }
func (p *blankProc) Receive(_ int, r sim.Reception) {
	p.heard = r.Kind == sim.Delivered && !r.Own
}

// TestMapDeliverMatchesSink pins that each built-in adversary states its
// delivery policy once: driven through its derived map Deliver, a run must
// equal the native DeliverInto run exactly, over random small duals,
// CR1–CR4, sync/async starts and static/churn schedules. The map form
// always calls Resolve, so it is also the oracle of a native DeliverInto
// that silences a round's collisions: with blank senders in play, the
// greedy collider must not silence, and resolves to a blank reacher.
func TestMapDeliverMatchesSink(t *testing.T) {
	type subject struct {
		adv  sim.Adversary
		nets []*graph.Dual
	}
	rng := rand.New(rand.NewSource(7))
	var duals []*graph.Dual
	for _, n := range []int{3, 5, 6, 8, 8} {
		d, err := graph.RandomDual(n, 0.2, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		duals = append(duals, d)
	}
	bridge, err := graph.CliqueBridge(7)
	if err != nil {
		t.Fatal(err)
	}
	layered, err := graph.DirectedLayered([]int{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	random, err := adversary.NewRandom(0.5)
	if err != nil {
		t.Fatal(err)
	}
	thm2, err := adversary.NewTheorem2(bridge.N(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// The planner's search is the slow part: a short delivery horizon on
	// the smaller duals keeps the adaptive subject cheap.
	adaptive, err := adversary.NewAdaptive(4, 8, 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	subjects := map[string]subject{
		"full-delivery": {adversary.FullDelivery{}, append(duals, bridge)},
		"random":        {random, append(duals, bridge)},
		"greedy":        {adversary.GreedyCollider{}, append(duals, bridge, layered)},
		"theorem2":      {thm2, []*graph.Dual{bridge}},
		"reduction":     {interference.ReductionAdversary{}, duals},
		"adaptive":      {adaptive, duals[:3]},
	}
	rules := []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4}
	for name, sub := range subjects {
		for i, d := range sub.nets {
			churn, err := graph.NewChurn(d, 3, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range []graph.Schedule{graph.Static(d), churn} {
				for _, alg := range []sim.Algorithm{core.NewRoundRobin(), core.NewDecay(), blankSender{}} {
					for _, rule := range rules {
						for _, start := range []sim.StartRule{sim.SyncStart, sim.AsyncStart} {
							cfg := sim.Config{Rule: rule, Start: start, MaxRounds: 300, Seed: int64(11 * (i + 1))}
							label := fmt.Sprintf("%s/net%d/epoch%d/%s/%v/%v", name, i, sched.EpochLength(), alg.Name(), rule, start)
							want, wantErr := sim.RunDynamic(sched, alg, sub.adv, cfg)
							got, gotErr := sim.RunDynamic(sched, alg, hideFastPath(sub.adv), cfg)
							if (wantErr == nil) != (gotErr == nil) {
								t.Fatalf("%s: native error %v, map error %v", label, wantErr, gotErr)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: map run %+v, native run %+v", label, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestUnforkedAdaptiveFailsOnBothPaths: outside the engine's fork, Adaptive
// fails the run whichever delivery form the engine calls.
func TestUnforkedAdaptiveFailsOnBothPaths(t *testing.T) {
	adaptive, err := adversary.NewAdaptive(0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := graph.CliqueBridge(5)
	if err != nil {
		t.Fatal(err)
	}
	// unforked drops RunForker, so the engine calls Adaptive's own delivery
	// methods.
	type unforked struct {
		sim.Adversary
		sim.BufferedDeliverer
	}
	if _, err := sim.Run(d, core.NewRoundRobin(), unforked{adaptive, adaptive}, sim.Config{MaxRounds: 5}); !errors.Is(err, adversary.ErrNotForked) {
		t.Errorf("sink path: want ErrNotForked, got %v", err)
	}
	// The map form has no typed failure channel: the failure arrives as a
	// map the engine rejects.
	if _, err := sim.Run(d, core.NewRoundRobin(), mapOnly{adaptive}, sim.Config{MaxRounds: 5}); !errors.Is(err, sim.ErrBadDelivery) {
		t.Errorf("map path: want ErrBadDelivery, got %v", err)
	}
}
