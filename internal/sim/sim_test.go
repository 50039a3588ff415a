package sim_test

import (
	"errors"
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

// scriptAlg is a test algorithm whose processes transmit in scripted rounds
// (once they hold the message, unless sendWithoutMsg is set) and record every
// reception for later assertions.
type scriptAlg struct {
	name           string
	sendRounds     map[int]map[int]bool // pid -> set of rounds
	sendWithoutMsg bool
	procs          map[int]*scriptProc
}

func newScriptAlg(sendRounds map[int]map[int]bool, sendWithoutMsg bool) *scriptAlg {
	return &scriptAlg{
		name:           "script",
		sendRounds:     sendRounds,
		sendWithoutMsg: sendWithoutMsg,
		procs:          make(map[int]*scriptProc),
	}
}

func (a *scriptAlg) Name() string { return a.name }

func (a *scriptAlg) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	p := &scriptProc{alg: a, id: id, recs: map[int]sim.Reception{}}
	a.procs[id] = p
	return p
}

type scriptProc struct {
	alg     *scriptAlg
	id      int
	has     bool
	started int
	recs    map[int]sim.Reception
}

func (p *scriptProc) Start(round int, hasMessage bool) {
	p.started = round
	p.has = hasMessage
}

func (p *scriptProc) Decide(round int) bool {
	if !p.has && !p.alg.sendWithoutMsg {
		return false
	}
	return p.alg.sendRounds[p.id][round]
}

func (p *scriptProc) Receive(round int, r sim.Reception) {
	p.recs[round] = r
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}

func mustLine(t *testing.T, n int) *graph.Dual {
	t.Helper()
	d, err := graph.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRoundRobinOnClassicalLine(t *testing.T) {
	n := 6
	d := mustLine(t, n)
	res, err := sim.Run(d, core.NewRoundRobin(), adversary.Benign{}, sim.Config{
		Rule:  sim.CR3,
		Start: sim.SyncStart,
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("round robin must complete on a line")
	}
	// Node i (pid i+1) transmits in round i+1; the message advances one hop
	// per round, so node k first receives in round k.
	for k := 1; k < n; k++ {
		if res.FirstReceive[k] != k {
			t.Errorf("FirstReceive[%d] = %d, want %d", k, res.FirstReceive[k], k)
		}
	}
	if res.Rounds != n-1 {
		t.Errorf("Rounds = %d, want %d", res.Rounds, n-1)
	}
}

func TestSourceHoldsMessageBeforeRound1(t *testing.T) {
	d := mustLine(t, 3)
	res, err := sim.Run(d, core.NewRoundRobin(), adversary.Benign{}, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstReceive[0] != 0 {
		t.Fatalf("source FirstReceive = %d, want 0", res.FirstReceive[0])
	}
}

// buildTriangleWithTwoSenders runs a 3-node classical triangle where pids 1
// and 2 both transmit in round 1 and returns the reception seen by each pid.
func buildTriangleWithTwoSenders(t *testing.T, rule sim.CollisionRule) map[int]sim.Reception {
	t.Helper()
	g := graph.NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	d, err := graph.Classical(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	alg := newScriptAlg(map[int]map[int]bool{
		1: {1: true},
		2: {1: true},
	}, true)
	_, err = sim.Run(d, alg, adversary.Benign{}, sim.Config{
		Rule:      rule,
		Start:     sim.SyncStart,
		MaxRounds: 1,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := map[int]sim.Reception{}
	for pid, p := range alg.procs {
		out[pid] = p.recs[1]
	}
	return out
}

func TestCollisionRuleCR1(t *testing.T) {
	recs := buildTriangleWithTwoSenders(t, sim.CR1)
	// Everyone (including both senders) is reached by two messages: all ⊤.
	for pid := 1; pid <= 3; pid++ {
		if recs[pid].Kind != sim.Collision {
			t.Errorf("pid %d reception = %v, want ⊤", pid, recs[pid].Kind)
		}
	}
}

func TestCollisionRuleCR2(t *testing.T) {
	recs := buildTriangleWithTwoSenders(t, sim.CR2)
	// Senders hear their own message; the non-sender gets ⊤.
	for pid := 1; pid <= 2; pid++ {
		if recs[pid].Kind != sim.Delivered || !recs[pid].Own {
			t.Errorf("sender pid %d reception = %+v, want own message", pid, recs[pid])
		}
	}
	if recs[3].Kind != sim.Collision {
		t.Errorf("non-sender reception = %v, want ⊤", recs[3].Kind)
	}
}

func TestCollisionRuleCR3(t *testing.T) {
	recs := buildTriangleWithTwoSenders(t, sim.CR3)
	if recs[3].Kind != sim.Silence {
		t.Errorf("non-sender reception = %v, want ⊥", recs[3].Kind)
	}
}

func TestCollisionRuleCR4AdversaryChoice(t *testing.T) {
	// Benign resolves to silence; FullDelivery resolves to the first message.
	g := graph.NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	d, err := graph.Classical(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		adv  sim.Adversary
		want sim.ReceptionKind
	}{
		{adversary.Benign{}, sim.Silence},
		{adversary.FullDelivery{}, sim.Delivered},
	} {
		alg := newScriptAlg(map[int]map[int]bool{1: {1: true}, 2: {1: true}}, true)
		if _, err := sim.Run(d, alg, tc.adv, sim.Config{
			Rule: sim.CR4, Start: sim.SyncStart, MaxRounds: 1, Seed: 1,
		}); err != nil {
			t.Fatal(err)
		}
		if got := alg.procs[3].recs[1].Kind; got != tc.want {
			t.Errorf("adversary %s: non-sender reception = %v, want %v", tc.adv.Name(), got, tc.want)
		}
	}
}

func TestSingleSenderDelivers(t *testing.T) {
	d := mustLine(t, 3)
	alg := newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
	res, err := sim.Run(d, alg, adversary.Benign{}, sim.Config{
		Rule: sim.CR4, Start: sim.SyncStart, MaxRounds: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := alg.procs[2].recs[1]
	if rec.Kind != sim.Delivered || rec.FromProc != 1 || !rec.Broadcast || rec.Own {
		t.Fatalf("neighbour reception = %+v, want broadcast message from pid 1", rec)
	}
	if res.FirstReceive[1] != 1 {
		t.Fatalf("FirstReceive[1] = %d, want 1", res.FirstReceive[1])
	}
	// Node 2 is out of range of the source: silence.
	if alg.procs[3].recs[1].Kind != sim.Silence {
		t.Fatalf("far node reception = %v, want ⊥", alg.procs[3].recs[1].Kind)
	}
}

func TestAsyncStartActivatesOnFirstMessage(t *testing.T) {
	d := mustLine(t, 3)
	alg := newScriptAlg(map[int]map[int]bool{1: {1: true}, 2: {2: true}}, false)
	if _, err := sim.Run(d, alg, adversary.Benign{}, sim.Config{
		Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: 3, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if alg.procs[2].started != 1 {
		t.Fatalf("pid 2 started in round %d, want 1", alg.procs[2].started)
	}
	if alg.procs[3].started != 2 {
		t.Fatalf("pid 3 started in round %d, want 2", alg.procs[3].started)
	}
}

func TestAsyncStartInactiveHearsNothing(t *testing.T) {
	d := mustLine(t, 3)
	// Nobody ever transmits; the non-source processes must never start.
	alg := newScriptAlg(map[int]map[int]bool{}, false)
	if _, err := sim.Run(d, alg, adversary.Benign{}, sim.Config{
		Rule: sim.CR4, Start: sim.AsyncStart, MaxRounds: 5, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if alg.procs[2].started != 0 || alg.procs[3].started != 0 {
		t.Fatal("inactive processes must not be started without a message")
	}
	if len(alg.procs[2].recs) != 0 {
		t.Fatal("inactive processes must not receive")
	}
}

func TestUnreliableEdgeOnlyDeliversWhenAdversaryAllows(t *testing.T) {
	// Two nodes joined only by an unreliable edge cannot form a valid dual
	// (unreachable), so use: 0-1 reliable, 0-2 via 1 reliable, plus 0-2
	// unreliable shortcut.
	g := graph.NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	gp := g.Clone()
	gp.MustAddEdge(0, 2)
	d, err := graph.NewDual(g, gp, 0)
	if err != nil {
		t.Fatal(err)
	}
	alg := newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
	if _, err := sim.Run(d, alg, adversary.Benign{}, sim.Config{
		Rule: sim.CR4, Start: sim.SyncStart, MaxRounds: 1, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if alg.procs[3].recs[1].Kind != sim.Silence {
		t.Fatal("benign adversary must not deliver the unreliable shortcut")
	}

	alg = newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
	if _, err := sim.Run(d, alg, adversary.FullDelivery{}, sim.Config{
		Rule: sim.CR4, Start: sim.SyncStart, MaxRounds: 1, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if alg.procs[3].recs[1].Kind != sim.Delivered {
		t.Fatal("full-delivery adversary must deliver the unreliable shortcut")
	}
}

// mapAdversary delivers m's map through the map-based Deliver (it does not
// implement BufferedDeliverer, so it exercises the engine's map shim).
type mapAdversary struct {
	adversary.Benign
	m func(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID
}

func (a mapAdversary) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return a.m(v, senders)
}

// sinkAdversary pushes its deliveries through the buffered sink.
type sinkAdversary struct {
	adversary.Benign
	into func(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink)
}

func (a sinkAdversary) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	a.into(v, senders, sink)
}

// runRound1 plays round 1 of a 3-node line in which only the source sends,
// against adv.
func runRound1(t *testing.T, adv sim.Adversary) error {
	t.Helper()
	alg := newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
	_, err := sim.Run(mustLine(t, 3), alg, adv, sim.Config{MaxRounds: 1, Seed: 1})
	return err
}

// reliableArc is the source's first reliable arc: a delivery the adversary
// does not control.
func reliableArc(v *sim.View) (s, t graph.NodeID) {
	return 0, v.Dual.G().Out(0)[0]
}

// reliableArcMap delivers reliableArc through the map form.
func reliableArcMap(v *sim.View, _ []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	s, u := reliableArc(v)
	return map[graph.NodeID][]graph.NodeID{s: {u}}
}

func TestEngineRejectsInvalidDelivery(t *testing.T) {
	for name, m := range map[string]func(v *sim.View, _ []graph.NodeID) map[graph.NodeID][]graph.NodeID{
		"reliable edge": reliableArcMap,
		"sender past n": func(*sim.View, []graph.NodeID) map[graph.NodeID][]graph.NodeID {
			return map[graph.NodeID][]graph.NodeID{9: {1}}
		},
		"negative sender": func(*sim.View, []graph.NodeID) map[graph.NodeID][]graph.NodeID {
			return map[graph.NodeID][]graph.NodeID{-2: {1}, 0: {1}}
		},
	} {
		t.Run(name, func(t *testing.T) {
			if err := runRound1(t, mapAdversary{m: m}); !errors.Is(err, sim.ErrBadDelivery) {
				t.Fatalf("want ErrBadDelivery, got %v", err)
			}
		})
	}
}

// TestSinkRejectsInvalidDelivery pushes invalid deliveries through the
// buffered path; the sink must reject them like the map shim does.
func TestSinkRejectsInvalidDelivery(t *testing.T) {
	for name, into := range map[string]func(v *sim.View, _ []graph.NodeID, sink *sim.DeliverySink){
		"reliable edge": func(v *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
			sink.Add(reliableArc(v))
		},
		"sender past n": func(_ *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
			sink.Add(9, 1)
		},
		"negative sender": func(_ *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
			sink.Add(-2, 1)
		},
		"edge id out of range": func(_ *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
			sink.AddEdgeID(0) // a line has no unreliable edges
		},
	} {
		t.Run(name, func(t *testing.T) {
			if err := runRound1(t, sinkAdversary{into: into}); !errors.Is(err, sim.ErrBadDelivery) {
				t.Fatalf("want ErrBadDelivery, got %v", err)
			}
		})
	}
}

// TestEngineRejectsNonSenderDelivery returns a map entry for a node that did
// not transmit, which the shim must reject.
func TestEngineRejectsNonSenderDelivery(t *testing.T) {
	err := runRound1(t, mapAdversary{m: func(v *sim.View, _ []graph.NodeID) map[graph.NodeID][]graph.NodeID {
		for node := 0; node < v.Dual.N(); node++ {
			if !v.Sent[node] {
				return map[graph.NodeID][]graph.NodeID{graph.NodeID(node): nil}
			}
		}
		return nil
	}})
	if !errors.Is(err, sim.ErrBadDelivery) {
		t.Fatalf("want ErrBadDelivery, got %v", err)
	}
}

// TestSinkRejectsDuplicateDelivery delivers one unreliable arc twice in a
// round. That is not a subset of G' \ G, and counting the target as reached
// twice would turn the lone message into a collision, so every entry point
// must fail the run under every collision rule. Delivered once, the same arc
// is accepted and heard.
func TestSinkRejectsDuplicateDelivery(t *testing.T) {
	// G = 0–1–2; G' adds the shortcut 0–2.
	g := graph.NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	gp := g.Clone()
	gp.MustAddEdge(0, 2)
	d, err := graph.NewDual(g, gp, 0)
	if err != nil {
		t.Fatal(err)
	}
	arc, ok := d.UnreliableEdgeID(0, 2)
	if !ok {
		t.Fatal("fixture: (0,2) is not unreliable")
	}
	deliver := func(times int) map[string]sim.Adversary {
		return map[string]sim.Adversary{
			"Add": sinkAdversary{into: func(_ *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
				for range times {
					sink.Add(0, 2)
				}
			}},
			"AddEdgeID": sinkAdversary{into: func(_ *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
				for range times {
					sink.AddEdgeID(arc)
				}
			}},
			"AddInArc": sinkAdversary{into: func(_ *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
				for range times {
					sink.AddInArc(0, 2)
				}
			}},
			"map": mapAdversary{m: func(*sim.View, []graph.NodeID) map[graph.NodeID][]graph.NodeID {
				return map[graph.NodeID][]graph.NodeID{0: slices.Repeat([]graph.NodeID{2}, times)}
			}},
		}
	}
	for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4} {
		cfg := sim.Config{Rule: rule, Start: sim.SyncStart, MaxRounds: 1, Seed: 1}
		for via, adv := range deliver(2) {
			t.Run(rule.String()+"/"+via+"/twice", func(t *testing.T) {
				alg := newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
				if _, err := sim.Run(d, alg, adv, cfg); !errors.Is(err, sim.ErrBadDelivery) {
					t.Fatalf("want ErrBadDelivery, got %v", err)
				}
			})
		}
		for via, adv := range deliver(1) {
			t.Run(rule.String()+"/"+via+"/once", func(t *testing.T) {
				alg := newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
				if _, err := sim.Run(d, alg, adv, cfg); err != nil {
					t.Fatal(err)
				}
				if got := alg.procs[3].recs[1]; got.Kind != sim.Delivered || got.From != 0 {
					t.Fatalf("node 2 heard %+v, want the source's message", got)
				}
			})
		}
	}
}

// TestSinkAddInArcKeepsAddChecked: AddInArc takes an arc read off
// View.UnreliableIn without a fringe lookup, but it still rejects a sender
// that did not send, and the checked Add still rejects an arc outside the
// fringe with the typed error, in the same round and on the same network.
func TestSinkAddInArcKeepsAddChecked(t *testing.T) {
	// G = 0–1–2; G' adds the shortcut 0–2.
	g := graph.NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	gp := g.Clone()
	gp.MustAddEdge(0, 2)
	d, err := graph.NewDual(g, gp, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(into func(v *sim.View, sink *sim.DeliverySink)) error {
		alg := newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
		adv := sinkAdversary{into: func(v *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) { into(v, sink) }}
		_, err := sim.Run(d, alg, adv, sim.Config{Rule: sim.CR4, Start: sim.SyncStart, MaxRounds: 1, Seed: 1})
		return err
	}
	if err := run(func(v *sim.View, sink *sim.DeliverySink) {
		for _, w := range v.UnreliableIn(2) {
			sink.AddInArc(w, 2)
		}
	}); err != nil {
		t.Fatalf("AddInArc of the fringe arc read off UnreliableIn: %v", err)
	}
	if err := run(func(_ *sim.View, sink *sim.DeliverySink) { sink.AddInArc(1, 2) }); !errors.Is(err, sim.ErrBadDelivery) {
		t.Fatalf("AddInArc from a node that did not send: want ErrBadDelivery, got %v", err)
	}
	if err := run(func(_ *sim.View, sink *sim.DeliverySink) { sink.Add(0, 1) }); !errors.Is(err, sim.ErrBadDelivery) {
		t.Fatalf("Add of the non-fringe arc (0,1): want ErrBadDelivery, got %v", err)
	}
}

// badAssignAdversary returns a non-permutation assignment.
type badAssignAdversary struct{ adversary.Benign }

func (badAssignAdversary) Name() string { return "bad-assign" }

func (badAssignAdversary) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	procOf := make([]int, d.N())
	for i := range procOf {
		procOf[i] = 1
	}
	return procOf, nil
}

func TestEngineRejectsInvalidAssignment(t *testing.T) {
	d := mustLine(t, 3)
	_, err := sim.Run(d, core.NewRoundRobin(), badAssignAdversary{}, sim.Config{Seed: 1})
	if !errors.Is(err, sim.ErrBadAssignment) {
		t.Fatalf("want ErrBadAssignment, got %v", err)
	}
}

// badResolveAdversary resolves CR4 to a node that is not reaching.
type badResolveAdversary struct{ adversary.FullDelivery }

func (badResolveAdversary) Name() string { return "bad-resolve" }

func (badResolveAdversary) Resolve(v *sim.View, node graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	return node // a node never reaches itself as a non-sender
}

func TestEngineRejectsInvalidResolve(t *testing.T) {
	g := graph.NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(0, 2)
	d, err := graph.Classical(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	alg := newScriptAlg(map[int]map[int]bool{1: {1: true}, 2: {1: true}}, true)
	_, err = sim.Run(d, alg, badResolveAdversary{}, sim.Config{
		Rule: sim.CR4, Start: sim.SyncStart, MaxRounds: 1, Seed: 1,
	})
	if !errors.Is(err, sim.ErrBadResolve) {
		t.Fatalf("want ErrBadResolve, got %v", err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d, err := graph.RandomDual(24, 0.15, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewHarmonicForN(24, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*sim.Result, [][]graph.NodeID) {
		adv, err := adversary.NewRandom(0.5)
		if err != nil {
			t.Fatal(err)
		}
		res, senders, err := transcript(graph.Static(d), alg, adv, sim.Config{Seed: 12345})
		if err != nil {
			t.Fatal(err)
		}
		return res, senders
	}
	a, aSenders := run()
	b, bSenders := run()
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions {
		t.Fatalf("same seed produced different results: %d/%d vs %d/%d",
			a.Rounds, a.Transmissions, b.Rounds, b.Transmissions)
	}
	if !reflect.DeepEqual(aSenders, bSenders) {
		t.Fatal("same seed produced different transcripts")
	}
	if !reflect.DeepEqual(a.FirstReceive, b.FirstReceive) {
		t.Fatal("same seed produced different first-receive rounds")
	}
}

func TestSendersTranscript(t *testing.T) {
	d := mustLine(t, 4)
	res, senders, err := transcript(graph.Static(d), core.NewRoundRobin(), adversary.Benign{}, sim.Config{
		Rule: sim.CR3, Start: sim.SyncStart, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(senders) < res.Rounds {
		t.Fatalf("transcript has %d rounds, want >= %d", len(senders), res.Rounds)
	}
	if len(senders[0]) != 1 || res.ProcOf[senders[0][0]] != 1 {
		t.Fatalf("round 1 senders = %v, want the node of pid 1", senders[0])
	}
}

// TestStepPastCompletion: stepping a completed run to its cap plays every
// round, and Rounds stays the completion round.
func TestStepPastCompletion(t *testing.T) {
	d := mustLine(t, 3)
	cfg := sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 1, MaxRounds: 20}
	want, err := sim.Run(d, core.NewRoundRobin(), adversary.Benign{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runToCap(graph.Static(d), core.NewRoundRobin(), adversary.Benign{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("broadcast must still be detected as complete")
	}
	if res.Rounds != want.Rounds || want.Rounds >= 20 {
		t.Fatalf("Rounds = %d, want the completion round %d", res.Rounds, want.Rounds)
	}
	if res.Transmissions <= want.Transmissions {
		t.Fatalf("Transmissions = %d after 20 rounds, want more than the %d by completion", res.Transmissions, want.Transmissions)
	}
}

func TestIncompleteRunReported(t *testing.T) {
	// A network where the only route to node 2 is via node 1, but pid 2
	// never transmits: broadcast cannot complete.
	d := mustLine(t, 3)
	alg := newScriptAlg(map[int]map[int]bool{1: {1: true}}, false)
	res, err := sim.Run(d, alg, adversary.Benign{}, sim.Config{MaxRounds: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("broadcast must not complete")
	}
	if res.FirstReceive[2] != -1 {
		t.Fatalf("unreached node FirstReceive = %d, want -1", res.FirstReceive[2])
	}
}

func TestCollisionRuleStrings(t *testing.T) {
	cases := map[sim.CollisionRule]string{
		sim.CR1: "CR1", sim.CR2: "CR2", sim.CR3: "CR3", sim.CR4: "CR4",
	}
	for rule, want := range cases {
		if rule.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(rule), rule.String(), want)
		}
	}
	if sim.SyncStart.String() != "sync" || sim.AsyncStart.String() != "async" {
		t.Error("start rule strings wrong")
	}
}

func TestBenignEqualsClassicalStaticModel(t *testing.T) {
	// On a classical network the benign and full-delivery adversaries give
	// identical executions: there are no unreliable edges to control.
	d, err := graph.BinaryTree(15)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Rule: sim.CR3, Start: sim.SyncStart, Seed: 7}
	resA, sendersA, err := transcript(graph.Static(d), core.NewRoundRobin(), adversary.Benign{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resB, sendersB, err := transcript(graph.Static(d), core.NewRoundRobin(), adversary.FullDelivery{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sendersA, sendersB) ||
		!reflect.DeepEqual(resA.FirstReceive, resB.FirstReceive) {
		t.Fatal("classical network must be adversary-independent")
	}
}

// TestBenignDualEqualsClassical is the identity fig-separation's classical
// column rests on: the benign adversary never uses an unreliable edge, so a
// run on a dual (G, G') equals, round for round and result for result, the
// run on the classical network (G, G). It holds on churn and fade schedules
// too, since their epochs' G depends on the base G alone: churn keeps a down
// node's backbone arc and drops its other arcs, fade demotes non-backbone G
// edges into the fringe, the backbone is a BFS tree of G, and every coin is
// keyed by a node or a G edge. Waypoint schedules are left out: their epochs
// ignore the base's arcs, so both runs would play the same networks.
func TestBenignDualEqualsClassical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{3, 8, 16, 24} {
		d, err := graph.RandomDual(n, 0.15, 0.5, rng)
		if err != nil {
			t.Fatal(err)
		}
		classical, err := graph.NewDualGraphs(d.G(), d.G(), d.Source())
		if err != nil {
			t.Fatal(err)
		}
		ss, err := core.NewStrongSelect(n)
		if err != nil {
			t.Fatal(err)
		}
		h, err := core.NewHarmonicForN(n, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for kind := range 3 {
			schedule := func(d *graph.Dual) (graph.Schedule, error) {
				switch kind {
				case 1:
					return graph.NewChurn(d, 3, 0.3)
				case 2:
					return graph.NewFade(d, 2, 0.4)
				}
				return graph.Static(d), nil
			}
			dualSched, err := schedule(d)
			if err != nil {
				t.Fatal(err)
			}
			classicalSched, err := schedule(classical)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []sim.Algorithm{core.NewRoundRobin(), ss, h} {
				for _, rule := range []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4} {
					for _, start := range []sim.StartRule{sim.SyncStart, sim.AsyncStart} {
						cfg := sim.Config{Rule: rule, Start: start, MaxRounds: 5000, Seed: int64(n)}
						got, err := sim.Start(dualSched, alg, adversary.Benign{}, cfg)
						if err != nil {
							t.Fatal(err)
						}
						want, err := sim.Start(classicalSched, alg, adversary.Benign{}, cfg)
						if err != nil {
							t.Fatal(err)
						}
						lockstep(t, fmt.Sprintf("n=%d %T %s %v %v: dual vs classical", n, dualSched, alg.Name(), rule, start), got, want)
					}
				}
			}
		}
	}
}
