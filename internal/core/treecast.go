package core

import (
	"fmt"
	"math/rand"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// TreeCast is a centralized, known-topology broadcast schedule: given a
// graph believed to be reliable, it precomputes a BFS order from the source
// and has each node transmit exactly once, in the round equal to its BFS
// index. With a single sender per round there are no collisions, and on a
// truly reliable topology the broadcast completes in at most n-1 rounds.
//
// TreeCast is the protocol a deployment builds after ETX-style link culling
// (see internal/linkest): it is optimal when the culled topology really is
// reliable and fails when a link it trusts turns out to be adversarial —
// the cautionary tale motivating the dual graph model. It assumes the
// identity process-to-node assignment, unlike the topology-oblivious
// algorithms in this package.
type TreeCast struct {
	slots []int // slots[pid-1] = transmission round of that process
	n     int
}

var _ sim.Algorithm = (*TreeCast)(nil)

// NewTreeCast precomputes the BFS schedule of g from source. Unreachable
// nodes get no slot (they never transmit).
func NewTreeCast(g *graph.Graph, source graph.NodeID) (*TreeCast, error) {
	n := g.N()
	if n < 2 {
		return nil, fmt.Errorf("treecast needs n >= 2, got %d", n)
	}
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("source %d out of range", source)
	}
	t := &TreeCast{slots: make([]int, n), n: n}
	order := 1
	queue := []graph.NodeID{source}
	seen := make([]bool, n)
	seen[source] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		t.slots[int(u)] = order
		order++
		for _, v := range g.Out(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return t, nil
}

// Name implements sim.Algorithm.
func (t *TreeCast) Name() string { return "treecast" }

// Rounds returns the schedule length (diagnostics).
func (t *TreeCast) Rounds() int { return t.n }

// NewProcess implements sim.Algorithm. The schedule is deterministic.
func (t *TreeCast) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	slot := 0
	if id >= 1 && id <= len(t.slots) {
		slot = t.slots[id-1]
	}
	return &treeCastProc{slot: slot}
}

// HoldersIgnoreReceptions implements sim.DeafHolders.
func (t *TreeCast) HoldersIgnoreReceptions() bool { return true }

type treeCastProc struct {
	slot int
	has  bool
}

var _ sim.Process = (*treeCastProc)(nil)

func (p *treeCastProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *treeCastProc) Decide(round int) bool {
	return p.has && p.slot != 0 && round == p.slot
}

func (p *treeCastProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}
