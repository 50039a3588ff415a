// Package interference implements the explicit-interference radio network
// model (a transmission graph G_T plus an interference graph G_I ⊇ G_T,
// e.g. Galčík et al.) and the Lemma 1 / Appendix A reduction showing that
// the dual graph model subsumes it: any algorithm for dual graphs runs
// unchanged on an explicit-interference network via a dual graph with
// G = G_T and G' = G_I and a reduction adversary that deploys exactly the
// interference edges involved in collisions.
package interference

import (
	"math/rand"

	"dualgraph/internal/graph"
	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// Run executes alg natively in the explicit-interference model given by the
// Lemma 1 dual graph d (G = G_T, G' = G_I; graph.NewDual checks G_T ⊆ G_I and
// source reachability), whose fringe G' \ G holds the interference-only arcs
// that cause interference but never deliver. It follows the Appendix A
// collision-rule semantics: every G_I message reaches its endpoint, only G_T
// messages are receivable, a lone G_I-only message yields silence, and CR4
// collisions resolve to silence (matching the reduction adversary).
// Processes are assigned to nodes by the identity mapping. With the Result
// it returns the transcript, every played round's senders as ascending node
// ids: the native reference of the Lemma 1 reduction. cfg is resolved
// exactly as sim.Start resolves it, so a bad rule, start rule or cap fails
// with sim.ErrBadConfig before round 1.
func Run(d *graph.Dual, alg sim.Algorithm, cfg sim.Config) (*sim.Result, [][]graph.NodeID, error) {
	n := d.N()
	cfg, err := cfg.Resolve(n)
	if err != nil {
		return nil, nil, err
	}

	procs := make([]sim.Process, n)
	procOf := make([]int, n)
	for node := 0; node < n; node++ {
		pid := node + 1
		procOf[node] = pid
		// The same stream sim.RunDynamic hands process pid, so the same
		// Config produces the same per-process randomness in both engines
		// (required for the Lemma 1 equivalence tests with randomized
		// algorithms).
		procs[node] = alg.NewProcess(pid, n, rng.Stream(cfg.Seed, rng.ProcStream(pid)))
	}

	src := d.Source()
	hasMsg := make([]bool, n)
	active := make([]bool, n)
	firstRecv := make([]int, n)
	for i := range firstRecv {
		firstRecv[i] = -1
	}
	hasMsg[src] = true
	firstRecv[src] = 0
	procs[src].Start(1, true)
	active[src] = true
	if cfg.Start == sim.SyncStart {
		for node := 0; node < n; node++ {
			if graph.NodeID(node) != src {
				procs[node].Start(1, false)
				active[node] = true
			}
		}
	}

	res := &sim.Result{FirstReceive: firstRecv, ProcOf: procOf}
	var transcript [][]graph.NodeID
	holders := 1
	sent := make([]bool, n)
	gtReach := make([][]graph.NodeID, n) // receivable messages
	giCount := make([]int, n)            // all reaching messages
	var row []graph.NodeID               // scratch for the dual's Row reads

	for round := 1; round <= cfg.MaxRounds; round++ {
		clear(sent)
		var senders []graph.NodeID
		for node := 0; node < n; node++ {
			if active[node] && procs[node].Decide(round) {
				sent[node] = true
				senders = append(senders, graph.NodeID(node))
			}
		}
		res.Transmissions += len(senders)
		transcript = append(transcript, senders)

		for i := range gtReach {
			gtReach[i] = gtReach[i][:0]
			giCount[i] = 0
		}
		for _, s := range senders {
			gtReach[s] = append(gtReach[s], s) // own message
			giCount[s]++
			// G_I = G_T ∪ (G_I \ G_T): walk the dual's two CSR rows instead
			// of testing G_T membership per G_I arc.
			for _, v := range d.Row(s, graph.Reliable, &row) {
				giCount[v]++
				gtReach[v] = append(gtReach[v], s)
			}
			for _, v := range d.Row(s, graph.Unreliable, &row) {
				giCount[v]++
			}
		}

		newHolders := make([]graph.NodeID, 0, 4)
		for node := 0; node < n; node++ {
			rec := nativeReception(cfg.Rule, graph.NodeID(node), sent[node], gtReach[node], giCount[node], procOf, hasMsg)
			if rec.Kind == sim.Delivered && rec.Broadcast && !rec.Own && !hasMsg[node] {
				newHolders = append(newHolders, graph.NodeID(node))
			}
			switch {
			case active[node]:
				procs[node].Receive(round, rec)
			case rec.Kind == sim.Delivered && cfg.Start == sim.AsyncStart:
				procs[node].Start(round, false)
				active[node] = true
				procs[node].Receive(round, rec)
			}
		}
		for _, node := range newHolders {
			hasMsg[node] = true
			firstRecv[node] = round
			holders++
		}
		res.Rounds = round // the completion round once the run breaks
		if holders == n {
			break
		}
	}
	res.Completed = holders == n
	return res, transcript, nil
}

// nativeReception applies the explicit-interference collision semantics of
// Section 2.2: interference-only (G_I \ G_T) messages can neither be
// received nor cause a collision on their own — a collision at u requires at
// least one transmitting G_T-neighbour (or u's own transmission) plus at
// least one further reaching message. giCount counts every reaching message
// and gtReach lists the receivable ones.
func nativeReception(
	rule sim.CollisionRule,
	node graph.NodeID,
	isSender bool,
	gtReach []graph.NodeID,
	giCount int,
	procOf []int,
	hasMsg []bool,
) sim.Reception {
	deliverFrom := func(s graph.NodeID) sim.Reception {
		return sim.Reception{
			Kind:      sim.Delivered,
			From:      s,
			FromProc:  procOf[s],
			Broadcast: hasMsg[s],
			Own:       s == node,
		}
	}
	switch {
	case len(gtReach) == 0:
		// No transmission message arrives: interference alone is inert.
		return sim.Reception{Kind: sim.Silence}
	case rule != sim.CR1 && isSender:
		return deliverFrom(node)
	case giCount == 1:
		return deliverFrom(gtReach[0])
	case rule <= sim.CR2:
		return sim.Reception{Kind: sim.Collision}
	}
	// CR3, and CR4 with the silence-resolving adversary used throughout this
	// package.
	return sim.Reception{Kind: sim.Silence}
}

// ReductionAdversary is the Appendix A dual-graph adversary: it deploys a
// G_I-only edge (s, u) of a sender s exactly when some G_T-neighbour of u is
// also transmitting, i.e. when the interference edge participates in a
// collision; it never delivers messages through CR4 resolution. Running any
// dual-graph algorithm on the Lemma 1 dual graph with this adversary
// reproduces the native explicit-interference execution exactly (Lemma 1).
type ReductionAdversary struct{}

var _ sim.Adversary = (*ReductionAdversary)(nil)

// Name implements sim.Adversary.
func (ReductionAdversary) Name() string { return "lemma1-reduction" }

// AssignProcs implements sim.Adversary with the identity assignment.
func (ReductionAdversary) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	procOf := make([]int, d.N())
	for i := range procOf {
		procOf[i] = i + 1
	}
	return procOf, nil
}

// Deliver implements sim.Adversary as the map form of DeliverInto.
func (a ReductionAdversary) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer with the reduction rule: an
// interference edge (s, u) delivers exactly when u transmits or some G_T
// neighbour of u does. Before any Add the sink's reach state is exactly that
// G_T picture, and every Add below targets an already-reached node, so
// sink.Reached stays that picture for the whole call.
func (ReductionAdversary) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	for _, s := range senders {
		for _, u := range v.UnreliableOut(s) {
			if sink.Reached(u) {
				sink.Add(s, u)
			}
		}
	}
}

// Resolve implements sim.Adversary: CR4 collisions resolve to silence,
// matching the native engine in this package.
func (ReductionAdversary) Resolve(_ *sim.View, _ graph.NodeID, _ []graph.NodeID) graph.NodeID {
	return sim.NoDelivery
}
