package adversary_test

import (
	"math/rand"
	"testing"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// oneShot transmits in round 1 only (when it holds the message); used to set
// up precise single-round scenarios.
type oneShot struct {
	ids map[int]bool
}

func (a oneShot) Name() string { return "one-shot" }

func (a oneShot) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	return &oneShotProc{send: a.ids[id]}
}

type oneShotProc struct {
	send bool
	has  bool
	rec  sim.Reception
}

func (p *oneShotProc) Start(_ int, hasMessage bool) { p.has = hasMessage }
func (p *oneShotProc) Decide(round int) bool        { return round == 1 && p.send && p.has }
func (p *oneShotProc) Receive(_ int, r sim.Reception) {
	p.rec = r
}

func TestNewRandomValidation(t *testing.T) {
	if _, err := adversary.NewRandom(-0.1); err == nil {
		t.Fatal("expected error for p < 0")
	}
	if _, err := adversary.NewRandom(1.1); err == nil {
		t.Fatal("expected error for p > 1")
	}
	a, err := adversary.NewRandom(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "random(p=0.50)" {
		t.Errorf("name = %q", a.Name())
	}
}

func TestRandomAdversaryExtremes(t *testing.T) {
	// p=0 behaves like Benign, p=1 like FullDelivery, for delivery purposes.
	g := graph.NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	gp := g.Clone()
	gp.MustAddEdge(0, 2)
	d, err := graph.NewDual(g, gp, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p float64) *sim.Result {
		adv, err := adversary.NewRandom(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(d, core.NewRoundRobin(), adv, sim.Config{
			Rule: sim.CR3, Start: sim.SyncStart, Seed: 42, MaxRounds: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// With p=1 the source's unreliable shortcut delivers in round 1, so the
	// far node receives strictly earlier than with p=0.
	if run(1).FirstReceive[2] >= run(0).FirstReceive[2] {
		t.Fatal("p=1 must deliver the shortcut and beat p=0")
	}
}

func TestGreedyColliderJamsLoneDelivery(t *testing.T) {
	// Clique-bridge, n=5: bridge (node 1, pid 2) and another clique node
	// (node 2, pid 3) transmit together. The receiver is reached reliably
	// only by the bridge; the greedy adversary must deploy the other
	// sender's unreliable edge to the receiver to cause a collision.
	n := 5
	d, err := graph.CliqueBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	// Give both senders the message artificially by making the source also a
	// sender: pids at nodes: identity (pid = node+1).
	alg := oneShot{ids: map[int]bool{1: true, 2: true, 3: true}}
	procs := map[int]*oneShotProc{}
	wrapped := captureAlg{inner: alg, procs: procs}
	_, err = sim.Run(d, wrapped, adversary.GreedyCollider{}, sim.Config{
		Rule: sim.CR2, Start: sim.SyncStart, MaxRounds: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Under CR2 the receiver (pid 5) must see ⊤, not the bridge's message:
	// the greedy adversary jammed it. (Only the source holds the broadcast
	// message, so senders 2 and 3 transmit non-broadcast messages, but they
	// still collide.)
	recPID5 := procs[5].rec
	if recPID5.Kind != sim.Collision {
		t.Fatalf("receiver reception = %+v, want collision", recPID5)
	}
}

// captureAlg wraps an algorithm to expose the created processes.
type captureAlg struct {
	inner oneShot
	procs map[int]*oneShotProc
}

func (c captureAlg) Name() string { return c.inner.Name() }

func (c captureAlg) NewProcess(id, n int, rng *rand.Rand) sim.Process {
	p, ok := c.inner.NewProcess(id, n, rng).(*oneShotProc)
	if !ok {
		panic("unexpected process type")
	}
	// Every process with a scripted send needs the message; mark all as
	// holders via Start(hasMessage=true) interception below.
	c.procs[id] = p
	return &forceHolder{p}
}

// forceHolder marks the process as holding the message at start so that
// scripted senders actually transmit.
type forceHolder struct {
	*oneShotProc
}

func (f *forceHolder) Start(round int, _ bool) { f.oneShotProc.Start(round, true) }

func TestGreedyColliderNeverDeliversToUnreached(t *testing.T) {
	// Single sender: greedy adversary must not deliver any unreliable edge
	// (delivering could only help the broadcast).
	n := 5
	d, err := graph.CliqueBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	alg := oneShot{ids: map[int]bool{1: true}}
	procs := map[int]*oneShotProc{}
	_, err = sim.Run(d, captureAlg{inner: alg, procs: procs}, adversary.GreedyCollider{}, sim.Config{
		Rule: sim.CR2, Start: sim.SyncStart, MaxRounds: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The receiver (pid 5) has no reliable edge from the source: silence.
	if procs[5].rec.Kind != sim.Silence {
		t.Fatalf("receiver reception = %v, want ⊥", procs[5].rec.Kind)
	}
}

func TestTheorem2Validation(t *testing.T) {
	if _, err := adversary.NewTheorem2(10, 1); err == nil {
		t.Fatal("expected error for bridge pid 1 (reserved for the source)")
	}
	if _, err := adversary.NewTheorem2(10, 10); err == nil {
		t.Fatal("expected error for bridge pid n (reserved for the receiver)")
	}
	if _, err := adversary.NewTheorem2(10, 5); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem2Assignment(t *testing.T) {
	n := 8
	d, err := graph.CliqueBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewTheorem2(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	procOf, err := adv.AssignProcs(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if procOf[d.Source()] != 1 {
		t.Errorf("source pid = %d, want 1", procOf[d.Source()])
	}
	if procOf[graph.BridgeNode] != 5 {
		t.Errorf("bridge pid = %d, want 5", procOf[graph.BridgeNode])
	}
	if procOf[graph.ReceiverNode(n)] != n {
		t.Errorf("receiver pid = %d, want %d", procOf[graph.ReceiverNode(n)], n)
	}
}

func TestTheorem2RejectsWrongTopology(t *testing.T) {
	d, err := graph.Complete(8)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewTheorem2(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adv.AssignProcs(d, nil); err == nil {
		t.Fatal("expected topology error on a complete graph")
	}
}

func TestTheorem2DeliveryRules(t *testing.T) {
	n := 6
	d, err := graph.CliqueBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.NewTheorem2(n, 3)
	if err != nil {
		t.Fatal(err)
	}

	run := func(senderPids ...int) map[int]*oneShotProc {
		ids := map[int]bool{}
		for _, pid := range senderPids {
			ids[pid] = true
		}
		procs := map[int]*oneShotProc{}
		_, err := sim.Run(d, captureAlg{inner: oneShot{ids: ids}, procs: procs}, adv, sim.Config{
			Rule: sim.CR1, Start: sim.SyncStart, MaxRounds: 1, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return procs
	}

	// Rule 2: lone clique sender (the source, pid 1): clique receives the
	// message, receiver (pid n) hears silence.
	procs := run(1)
	if procs[n].rec.Kind != sim.Silence {
		t.Errorf("rule 2: receiver heard %v, want ⊥", procs[n].rec.Kind)
	}
	if procs[2].rec.Kind != sim.Delivered {
		t.Errorf("rule 2: clique member heard %v, want message", procs[2].rec.Kind)
	}

	// Rule 3: lone bridge sender (pid 3 on the bridge node): everyone
	// receives the message.
	procs = run(3)
	for pid := 1; pid <= n; pid++ {
		if pid == 3 {
			continue
		}
		if procs[pid].rec.Kind != sim.Delivered {
			t.Errorf("rule 3: pid %d heard %v, want message", pid, procs[pid].rec.Kind)
		}
	}

	// Rule 1: two senders: everyone receives ⊤ under CR1.
	procs = run(1, 2)
	for pid := 1; pid <= n; pid++ {
		if procs[pid].rec.Kind != sim.Collision {
			t.Errorf("rule 1: pid %d heard %v, want ⊤", pid, procs[pid].rec.Kind)
		}
	}
}

func TestBenignAndFullDeliveryNames(t *testing.T) {
	if (adversary.Benign{}).Name() == "" || (adversary.FullDelivery{}).Name() == "" {
		t.Fatal("adversaries must have names")
	}
	if (adversary.GreedyCollider{}).Name() != "greedy-collider" {
		t.Fatal("greedy collider name")
	}
}
