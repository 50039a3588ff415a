package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// viewSpy wraps a buffered adversary and, at every DeliverInto and Resolve
// call, checks the View against the run's own record: Sent is exactly the
// round's senders, HasMessage is exactly the nodes whose first receipt came
// before the round, every holder is active, and no active node goes back to
// sleep. At DeliverInto it also checks that the sink's EachReachedOnce
// yields reached non-senders only, in ascending order.
type viewSpy struct {
	sim.Adversary
	bd       sim.BufferedDeliverer
	ex       *sim.Execution // set after Start, before the first Step
	sent     []bool         // this round's senders, from DeliverInto
	active   []bool         // View.Active at the previous check
	checks   int
	resolves int
	err      error // the first disagreement
}

func (s *viewSpy) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	clear(s.sent)
	for _, u := range senders {
		s.sent[u] = true
	}
	s.check(v, "DeliverInto")
	last := graph.NodeID(-1)
	sink.EachReachedOnce(func(u, _ graph.NodeID) bool {
		if (s.sent[u] || !sink.Reached(u) || u <= last) && s.err == nil {
			s.err = fmt.Errorf("round %d: EachReachedOnce yielded node %d after %d (sender %v, reached %v)",
				v.Round, u, last, s.sent[u], sink.Reached(u))
		}
		last = u
		return true
	})
	s.bd.DeliverInto(v, senders, sink)
}

func (s *viewSpy) Resolve(v *sim.View, node graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	s.resolves++
	s.check(v, fmt.Sprintf("Resolve(%d)", node))
	return s.Adversary.Resolve(v, node, reaching)
}

func (s *viewSpy) check(v *sim.View, at string) {
	s.checks++
	first := s.ex.Result().FirstReceive
	for i, r := range first {
		u := graph.NodeID(i)
		var bad string
		switch {
		case v.Sent(u) != s.sent[i]:
			bad = fmt.Sprintf("Sent = %v, but the senders say %v", v.Sent(u), s.sent[i])
		case v.HasMessage(u) != (r >= 0 && r < v.Round):
			bad = fmt.Sprintf("HasMessage = %v, but FirstReceive = %d", v.HasMessage(u), r)
		case v.HasMessage(u) && !v.Active(u):
			bad = "a holder is not Active"
		case s.active[i] && !v.Active(u):
			bad = "an Active node went back to sleep"
		}
		if bad != "" && s.err == nil {
			s.err = fmt.Errorf("round %d, %s, node %d: %s", v.Round, at, u, bad)
		}
		s.active[i] = v.Active(u)
	}
}

// TestViewAgreesWithRun steps runs under a spy adversary that checks, at
// every call the engine makes to it, that the View's per-node answers agree
// with the run: under CR1–CR4, sync and async starts, static, churn and fade
// schedules, both delivery modes, and two planning algorithms (Strong
// Select, and Harmonic with its value coins) beside a non-planning one
// (Harmonic with its contracts hidden).
func TestViewAgreesWithRun(t *testing.T) {
	rules := []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4}
	starts := []sim.StartRule{sim.SyncStart, sim.AsyncStart}
	cases := 24
	if testing.Short() {
		cases = 12
	}
	checks, resolves := 0, 0
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(2000 + i)))
		n := 8 + rng.Intn(24)
		if i%4 == 3 {
			n = 129 + rng.Intn(40)
		}
		d, err := graph.RandomDual(n, min(0.3, 6/float64(n)), min(0.6, 12/float64(n)), rng)
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
		// The greedy collider silences every round in which only holders
		// send, which is every round of the built-ins, so only Random(0.5)
		// draws Resolve calls.
		var inner sim.Adversary = adversary.GreedyCollider{}
		if i/8%2 == 0 {
			inner = must(adversary.NewRandom(0.5))
		}
		cfg := sim.Config{Rule: rules[i%4], Start: starts[i/4%2], Seed: rng.Int63(), MaxRounds: 400}
		planner := must(core.NewStrongSelect(n))
		harmonic := must(core.NewHarmonicForN(n, 0.1))
		if _, ok := planner.NewProcess(1, n, nil).(sim.SendPlanner); !ok {
			t.Fatal("Strong Select processes do not plan their sends")
		}
		for _, alg := range []sim.Algorithm{planner, harmonic, hidden{harmonic}} {
			for _, swap := range []bool{false, true} {
				spy := &viewSpy{Adversary: inner, bd: inner.(sim.BufferedDeliverer), sent: make([]bool, n), active: make([]bool, n)}
				ex, err := sim.Start(sched, alg, spy, cfg)
				if err != nil {
					t.Fatal(err)
				}
				spy.ex = ex
				mode := "native mode"
				if swap {
					mode = "sparse mode"
					if sim.SwapDeliveryMode(ex) {
						mode = "dense mode"
					}
				}
				name := fmt.Sprintf("case %d n=%d %s (%T, %T, %v, %v, %s)", i, n, alg.Name(), sched, inner, cfg.Rule, cfg.Start, mode)
				for done := false; !done && spy.err == nil; {
					if done, err = ex.Step(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				if spy.err != nil {
					t.Fatalf("%s: %v", name, spy.err)
				}
				checks += spy.checks
				resolves += spy.resolves
			}
		}
	}
	if resolves == 0 {
		t.Fatal("no Resolve call: the cases do not check the View mid-walk")
	}
	t.Logf("%d View checks, %d of them at Resolve", checks, resolves)
}
