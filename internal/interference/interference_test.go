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

func randomDual(t *testing.T, n int, seed int64) *graph.Dual {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d, err := graph.RandomDual(n, 0.15, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	return d
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
	d, err := graph.NewDual(gt, gi, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := interference.Run(d, core.NewRoundRobin(), sim.Config{
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
	d, err := graph.NewDual(gt, gi, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Scripted: pids 1 and 3 transmit in round 1 (pid 3 spontaneously).
	alg := scriptedSenders{rounds: map[int]map[int]bool{1: {1: true, 3: true}}}
	res, _, err := interference.Run(d, alg, sim.Config{
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
		d := randomDual(t, 20, seed)
		for _, rule := range rules {
			for _, mk := range algs {
				alg, err := mk(d.N())
				if err != nil {
					t.Fatal(err)
				}
				cfg := sim.Config{
					Rule:      rule,
					Start:     sim.AsyncStart,
					Seed:      seed * 1000,
					MaxRounds: 4000,
				}
				native, nativeSenders, err := interference.Run(d, alg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				reduced, reducedSenders := reducedRun(t, d, alg, cfg)
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
	d := randomDual(t, 15, 9)
	alg, err := core.NewStrongSelect(d.N())
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Rule:      sim.CR1,
		Start:     sim.SyncStart,
		Seed:      5,
		MaxRounds: 3000,
	}
	native, nativeSenders, err := interference.Run(d, alg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reduced, reducedSenders := reducedRun(t, d, alg, cfg)
	if !reflect.DeepEqual(native.FirstReceive, reduced.FirstReceive) ||
		!reflect.DeepEqual(nativeSenders, reducedSenders) {
		t.Fatal("sync-start executions differ")
	}
}

// reducedRun plays alg on the Lemma 1 dual graph d under the reduction
// adversary, stepping it to done, and returns its Result with every played
// round's senders.
func reducedRun(t *testing.T, d *graph.Dual, alg sim.Algorithm, cfg sim.Config) (*sim.Result, [][]graph.NodeID) {
	t.Helper()
	run, err := sim.Start(graph.Static(d), alg, interference.ReductionAdversary{}, cfg)
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
	d := randomDual(t, 25, 3)
	alg, err := core.NewHarmonicForN(d.N(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := interference.Run(d, alg, sim.Config{Seed: 8, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("harmonic must complete on the explicit-interference model")
	}
}

// TestRunRejectsBadConfig checks that the native engine resolves its config
// exactly as sim.Start does: the same bad rules and cap fail with
// sim.ErrBadConfig, and a zero config runs as its explicit defaults.
func TestRunRejectsBadConfig(t *testing.T) {
	d := randomDual(t, 8, 2)
	for _, cfg := range []sim.Config{
		{Rule: 5},
		{Rule: -1},
		{Start: 3},
		{MaxRounds: -1},
	} {
		res, tr, err := interference.Run(d, core.NewRoundRobin(), cfg)
		if !errors.Is(err, sim.ErrBadConfig) || res != nil || tr != nil {
			t.Errorf("%+v: Run = %v, %v, %v; want ErrBadConfig", cfg, res, tr, err)
		}
	}
	zero, _, err := interference.Run(d, core.NewRoundRobin(), sim.Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	explicit, _, err := interference.Run(d, core.NewRoundRobin(), sim.Config{
		Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: 200*8*8 + 10000, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zero, explicit) {
		t.Fatalf("zero config ran %+v, explicit defaults %+v", zero, explicit)
	}
}
