// Package adversary provides implementations of the dual-graph adversary:
// the entity that chooses the process-to-node assignment, decides each round
// which unreliable (G' \ G) edges deliver, and resolves CR4 collisions.
//
// The implementations range from Benign (never uses unreliable edges, which
// makes a classical network behave exactly like the static model) through
// Random and FullDelivery to GreedyCollider (an adaptive jammer) and
// Theorem2 (the exact adversary from the paper's Theorem 2 proof).
package adversary

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// identityAssign maps node i to process id i+1.
func identityAssign(n int) []int {
	procOf := make([]int, n)
	for i := range procOf {
		procOf[i] = i + 1
	}
	return procOf
}

// Benign never delivers along unreliable edges and resolves CR4 collisions
// to silence. On a classical network (G = G') it makes the simulation
// coincide with the standard static radio model under CR3/CR4.
type Benign struct{}

var _ sim.Adversary = (*Benign)(nil)

// Name implements sim.Adversary.
func (Benign) Name() string { return "benign" }

// AssignProcs implements sim.Adversary with the identity assignment.
func (Benign) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	return identityAssign(d.N()), nil
}

// Deliver implements sim.Adversary: no unreliable edge ever delivers.
//
// Benign deliberately does NOT implement sim.BufferedDeliverer: its nil map
// makes the compatibility shim free anyway, and Benign is the adversary most
// commonly embedded by wrappers that override Deliver — an inherited
// DeliverInto would silently shadow such overrides.
func (Benign) Deliver(_ *sim.View, _ []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return nil
}

// Resolve implements sim.Adversary: collisions resolve to silence.
func (Benign) Resolve(_ *sim.View, _ graph.NodeID, _ []graph.NodeID) graph.NodeID {
	return sim.NoDelivery
}

// FullDelivery delivers every unreliable edge of every sender in every
// round, making G' behave like a static graph. CR4 collisions resolve to
// the first reaching message.
type FullDelivery struct{}

var _ sim.Adversary = (*FullDelivery)(nil)

// Name implements sim.Adversary.
func (FullDelivery) Name() string { return "full-delivery" }

// AssignProcs implements sim.Adversary with the identity assignment.
func (FullDelivery) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	return identityAssign(d.N()), nil
}

// Deliver implements sim.Adversary as the map form of DeliverInto.
func (a FullDelivery) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer: every unreliable edge
// delivers.
func (FullDelivery) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	for _, s := range senders {
		for _, t := range v.UnreliableOut(s) {
			sink.Add(s, t)
		}
	}
}

// Resolve implements sim.Adversary: deliver the first reaching message.
func (FullDelivery) Resolve(_ *sim.View, _ graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	return reaching[0]
}

// Random delivers each unreliable edge of each sender independently with
// probability P each round, assigns processes to nodes uniformly at random,
// and resolves CR4 collisions uniformly among silence and the reaching
// messages. It models benign stochastic link flakiness rather than a
// worst-case opponent.
type Random struct {
	// P is the per-edge, per-round delivery probability.
	P float64
}

var _ sim.Adversary = (*Random)(nil)

// NewRandom validates p and returns a Random adversary.
func NewRandom(p float64) (*Random, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("delivery probability %v outside [0,1]", p)
	}
	return &Random{P: p}, nil
}

// Name implements sim.Adversary.
func (a *Random) Name() string { return fmt.Sprintf("random(p=%.2f)", a.P) }

// AssignProcs implements sim.Adversary with a uniformly random assignment.
func (a *Random) AssignProcs(d *graph.Dual, rng *rand.Rand) ([]int, error) {
	n := d.N()
	procOf := make([]int, n)
	for i, p := range rng.Perm(n) {
		procOf[i] = p + 1
	}
	return procOf, nil
}

// Deliver implements sim.Adversary as the map form of DeliverInto.
func (a *Random) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer: each unreliable edge of each
// sender delivers with probability P, drawn from v.Rng in (sender, target)
// order.
func (a *Random) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	for _, s := range senders {
		for _, t := range v.UnreliableOut(s) {
			if v.Rng.Float64() < a.P {
				sink.Add(s, t)
			}
		}
	}
}

// Resolve implements sim.Adversary: uniform among ⊥ and the messages.
func (a *Random) Resolve(v *sim.View, _ graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	i := v.Rng.Intn(len(reaching) + 1)
	if i == len(reaching) {
		return sim.NoDelivery
	}
	return reaching[i]
}

// GreedyCollider is an adaptive jammer: whenever a node that lacks the
// message is reached by exactly one transmission, it deploys an unreliable
// edge from another concurrent sender to turn the reception into a
// collision, and it never delivers a message to a node that no reliable edge
// reaches. Under CR4 it resolves collisions to a message from a sender that
// does not hold the broadcast message when possible, and to silence
// otherwise, so collisions never leak the payload.
type GreedyCollider struct{}

var _ sim.Adversary = (*GreedyCollider)(nil)

// Name implements sim.Adversary.
func (GreedyCollider) Name() string { return "greedy-collider" }

// AssignProcs implements sim.Adversary with the identity assignment.
func (GreedyCollider) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	return identityAssign(d.N()), nil
}

// Deliver implements sim.Adversary as the map form of DeliverInto.
func (a GreedyCollider) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer with the jamming policy,
// reading the reliable reception picture straight off the sink's reach
// bitsets: EachReachedOnce yields exactly the non-senders a lone message
// would cleanly reach, in ascending node order. Each jam targets only the
// node just yielded, so adding mid-iteration never changes which nodes the
// sweep visits, and no node is jammed twice.
//
// When every sender holds the message, Resolve would answer ⊥ for every
// collision of the round, so DeliverInto tells the sink so up front and the
// engine skips the round's reaching lists and Resolve calls.
func (GreedyCollider) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	if !slices.ContainsFunc(senders, func(s graph.NodeID) bool { return !v.HasMessage(s) }) {
		sink.SilenceCollisions()
	}
	sink.EachReachedOnce(func(u, from graph.NodeID) bool {
		if v.HasMessage(u) {
			return true
		}
		// u would cleanly receive a message: jam it with the lowest other
		// sender that has an unreliable edge to u, found along u's
		// unreliable in-row.
		for _, w := range v.UnreliableIn(u) {
			if v.Sent(w) && w != from {
				sink.AddInArc(w, u)
				break
			}
		}
		return true
	})
}

// Resolve implements sim.Adversary.
func (GreedyCollider) Resolve(v *sim.View, _ graph.NodeID, reaching []graph.NodeID) graph.NodeID {
	for _, s := range reaching {
		if !v.HasMessage(s) {
			return s
		}
	}
	return sim.NoDelivery
}

// ErrWrongTopology is returned when a proof-specific adversary is used on a
// network with the wrong shape.
var ErrWrongTopology = errors.New("adversary requires a specific topology")

// Theorem2 is the adversary from the proof of Theorem 2, specialized to the
// CliqueBridge network: the source node holds process 1, the receiver holds
// process n, and the bridge holds the adversarially chosen process
// BridgePid. Communication nondeterminism is resolved by the proof's rules:
//
//  1. If more than one process sends, all messages reach all processes.
//  2. If a single process at a clique node other than the bridge sends, its
//     message reaches exactly the clique.
//  3. If only the bridge or only the receiver sends, the message reaches
//     everyone.
type Theorem2 struct {
	// BridgePid is the process id placed on the bridge node (2..n-1).
	BridgePid int
}

var _ sim.Adversary = (*Theorem2)(nil)

// NewTheorem2 validates the bridge process id for an n-process network.
func NewTheorem2(n, bridgePid int) (*Theorem2, error) {
	if bridgePid < 2 || bridgePid > n-1 {
		return nil, fmt.Errorf("bridge pid %d outside [2, %d]", bridgePid, n-1)
	}
	return &Theorem2{BridgePid: bridgePid}, nil
}

// Name implements sim.Adversary.
func (a *Theorem2) Name() string { return fmt.Sprintf("theorem2(bridge=%d)", a.BridgePid) }

// AssignProcs implements sim.Adversary: process 1 at the source, process n
// at the receiver, BridgePid at the bridge, all other processes in
// increasing id order on the remaining clique nodes (the proof's "default
// rule").
func (a *Theorem2) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	n := d.N()
	if a.BridgePid < 2 || a.BridgePid > n-1 {
		return nil, fmt.Errorf("%w: bridge pid %d outside [2,%d]", ErrWrongTopology, a.BridgePid, n-1)
	}
	if d.G().OutDegree(graph.ReceiverNode(n)) != 1 {
		return nil, fmt.Errorf("%w: clique-bridge expected", ErrWrongTopology)
	}
	procOf := make([]int, n)
	procOf[d.Source()] = 1
	procOf[graph.ReceiverNode(n)] = n
	procOf[graph.BridgeNode] = a.BridgePid
	next := 2
	for node := 0; node < n; node++ {
		if procOf[node] != 0 {
			continue
		}
		if next == a.BridgePid {
			next++
		}
		procOf[node] = next
		next++
	}
	return procOf, nil
}

// Deliver implements sim.Adversary as the map form of DeliverInto.
func (a *Theorem2) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer using the proof's three
// rules.
func (a *Theorem2) DeliverInto(v *sim.View, senders []graph.NodeID, sink *sim.DeliverySink) {
	n := v.Dual.N()
	receiver := graph.ReceiverNode(n)
	all := func() {
		for _, s := range senders {
			for _, t := range v.UnreliableOut(s) {
				sink.Add(s, t)
			}
		}
	}
	if len(senders) > 1 {
		all() // Rule 1: everything reaches everyone (⊤ everywhere).
		return
	}
	if len(senders) == 1 {
		s := senders[0]
		if s == graph.BridgeNode || s == receiver {
			all() // Rule 3: message reaches all processes.
		}
		// Rule 2: a lone clique sender reaches exactly the clique, which its
		// reliable edges already cover; no unreliable delivery.
	}
}

// Resolve implements sim.Adversary. Theorem 2 is proved under CR1 where
// Resolve is never consulted; under CR4 we resolve to silence, which is the
// adversary's strongest choice.
func (a *Theorem2) Resolve(_ *sim.View, _ graph.NodeID, _ []graph.NodeID) graph.NodeID {
	return sim.NoDelivery
}
