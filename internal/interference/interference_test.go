package interference_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/interference"
	"dualgraph/internal/sim"
)

func buildModel(t *testing.T, n int, seed int64) *interference.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := graph.RandomDual(n, 0.15, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	return interference.FromDual(d)
}

func TestNewModelValidation(t *testing.T) {
	gt := graph.NewBuilder(3, false)
	gt.MustAddEdge(0, 1)
	gt.MustAddEdge(1, 2)
	gi := graph.NewBuilder(3, false)
	gi.MustAddEdge(0, 1) // missing (1,2)
	if _, err := interference.NewModel(gt, gi, 0); !errors.Is(err, interference.ErrNotSubgraph) {
		t.Fatalf("want ErrNotSubgraph, got %v", err)
	}
	gi.MustAddEdge(1, 2)
	gi.MustAddEdge(0, 2)
	m, err := interference.NewModel(gt, gi, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 3 || m.Source() != 0 {
		t.Fatal("model shape wrong")
	}
}

func TestInterferenceOnlyEdgeNeverDelivers(t *testing.T) {
	// 0-1-2 path in G_T; interference edge 0-2 in G_I. When only the source
	// transmits, node 2 must hear silence even though the G_I message
	// reaches it.
	gt := graph.NewBuilder(3, false)
	gt.MustAddEdge(0, 1)
	gt.MustAddEdge(1, 2)
	gi := gt.Clone()
	gi.MustAddEdge(0, 2)
	m, err := interference.NewModel(gt, gi, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := interference.Run(m, core.NewRoundRobin(), sim.Config{
		Rule: sim.CR3, Start: sim.SyncStart, Seed: 1, MaxRounds: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Round robin: node 0 sends round 1, node 1 round 2; node 2 must first
	// receive in round 2, not round 1 via the interference edge.
	if res.FirstReceive[2] != 2 {
		t.Fatalf("FirstReceive[2] = %d, want 2", res.FirstReceive[2])
	}
}

func TestInterferenceEdgeCausesCollision(t *testing.T) {
	// G_T: 0-1, 2-1? No — build: source 0 with G_T edge to 1; node 2 has a
	// G_T path via 1 and an interference edge to 1. When 0 and 2 transmit
	// together, node 1 must collide.
	gt := graph.NewBuilder(3, false)
	gt.MustAddEdge(0, 1)
	gt.MustAddEdge(0, 2)
	gi := gt.Clone()
	gi.MustAddEdge(1, 2)
	m, err := interference.NewModel(gt, gi, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Scripted: pids 1 and 3 transmit in round 1 (pid 3 spontaneously).
	alg := scriptedSenders{rounds: map[int]map[int]bool{1: {1: true, 3: true}}}
	res, _, err := interference.Run(m, alg, sim.Config{
		Rule: sim.CR3, Start: sim.SyncStart, Seed: 1, MaxRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 is reached by pid 1 (G_T) and pid 3 (G_I-only): collision, so
	// under CR3 it hears silence and does not learn the message.
	if res.FirstReceive[1] != -1 {
		t.Fatalf("node 1 received despite interference collision (round %d)", res.FirstReceive[1])
	}
}

// scriptedSenders transmits exactly in the configured rounds, regardless of
// holding the message (spontaneous transmission under synchronous start).
type scriptedSenders struct {
	rounds map[int]map[int]bool // round -> pid set
}

func (scriptedSenders) Name() string { return "scripted" }

func (a scriptedSenders) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	return &scriptedSender{alg: a, id: id}
}

type scriptedSender struct {
	alg scriptedSenders
	id  int
}

func (p *scriptedSender) Start(int, bool)            {}
func (p *scriptedSender) Decide(round int) bool      { return p.alg.rounds[round][p.id] }
func (p *scriptedSender) Receive(int, sim.Reception) {}

func TestLemma1ReductionExactEquivalence(t *testing.T) {
	algs := []func(n int) (sim.Algorithm, error){
		func(n int) (sim.Algorithm, error) { return core.NewRoundRobin(), nil },
		func(n int) (sim.Algorithm, error) { return core.NewStrongSelect(n) },
		func(n int) (sim.Algorithm, error) { return core.NewHarmonicForN(n, 0.1) },
		func(n int) (sim.Algorithm, error) { return core.NewDecay(), nil },
	}
	rules := []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4}
	for seed := int64(1); seed <= 3; seed++ {
		m := buildModel(t, 20, seed)
		for _, rule := range rules {
			for _, mk := range algs {
				alg, err := mk(m.N())
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{
					Rule:      rule,
					Start:     sim.AsyncStart,
					Seed:      seed * 1000,
					MaxRounds: 4000,
				}
				native, nativeSenders, err := interference.Run(m, alg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				reduced, reducedSenders := reducedRun(t, m, alg, cfg)
				if !reflect.DeepEqual(nativeSenders, reducedSenders) {
					t.Fatalf("seed %d rule %v alg %s: transcripts differ", seed, rule, alg.Name())
				}
				if !reflect.DeepEqual(native.FirstReceive, reduced.FirstReceive) {
					t.Fatalf("seed %d rule %v alg %s: first-receive differs\nnative:  %v\nreduced: %v",
						seed, rule, alg.Name(), native.FirstReceive, reduced.FirstReceive)
				}
				if native.Completed != reduced.Completed || native.Rounds != reduced.Rounds {
					t.Fatalf("seed %d rule %v alg %s: summary differs (%v/%d vs %v/%d)",
						seed, rule, alg.Name(), native.Completed, native.Rounds, reduced.Completed, reduced.Rounds)
				}
			}
		}
	}
}

func TestLemma1SyncStartEquivalence(t *testing.T) {
	m := buildModel(t, 15, 9)
	alg, err := core.NewStrongSelect(m.N())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Rule:      sim.CR1,
		Start:     sim.SyncStart,
		Seed:      5,
		MaxRounds: 3000,
	}
	native, nativeSenders, err := interference.Run(m, alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reduced, reducedSenders := reducedRun(t, m, alg, cfg)
	if !reflect.DeepEqual(native.FirstReceive, reduced.FirstReceive) ||
		!reflect.DeepEqual(nativeSenders, reducedSenders) {
		t.Fatal("sync-start executions differ")
	}
}

// reducedRun plays alg on the Lemma 1 dual graph of m under the reduction
// adversary, stepping it to done, and returns its Result with every played
// round's senders.
func reducedRun(t *testing.T, m *interference.Model, alg sim.Algorithm, cfg sim.Config) (*sim.Result, [][]graph.NodeID) {
	t.Helper()
	run, err := sim.Start(graph.Static(m.Dual()), alg, interference.ReductionAdversary{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var senders [][]graph.NodeID
	for done := false; !done; {
		if done, err = run.Step(); err != nil {
			t.Fatal(err)
		}
		senders = append(senders, append([]graph.NodeID(nil), run.Senders()...))
	}
	return run.Result(), senders
}

func TestNativeRunCompletes(t *testing.T) {
	m := buildModel(t, 25, 3)
	alg, err := core.NewHarmonicForN(m.N(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := interference.Run(m, alg, sim.Config{Seed: 8, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("harmonic must complete on the explicit-interference model")
	}
}
