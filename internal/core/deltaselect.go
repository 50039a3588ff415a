package core

import (
	"fmt"
	"math/rand"

	"dualgraph/internal/sim"
	"dualgraph/internal/ssf"
)

// DeltaSelect is the oblivious algorithm of Clementi, Monti and Silvestri
// for dynamic-fault graphs that the paper compares against in Section 2.2:
// all holders cycle forever through a single (n, Δ)-strongly-selective
// family, where Δ is a known upper bound on the in-degree of the
// interference graph G'. Whenever a frontier node u has a G-neighbour v
// without the message, the contention set at v (its G'-in-neighbours that
// hold the message) has size at most Δ, so some set of the family isolates u
// within it and v receives.
//
// Its round complexity is O(n · min{n, Δ² log n}) with the constructive
// families used here; it beats Strong Select when Δ is small but, unlike
// Strong Select, requires knowledge of Δ (the comparison the paper makes:
// "This algorithm outperforms ours when Δ = o(√(n/log n)); however, it
// requires that all processes know the in-degree Δ of the interference
// graph G'").
type DeltaSelect struct {
	n      int
	delta  int
	family ssf.Family
}

var _ sim.Algorithm = (*DeltaSelect)(nil)

// NewDeltaSelect builds the algorithm for n processes with the in-degree
// bound delta (clamped to n).
func NewDeltaSelect(n, delta int) (*DeltaSelect, error) {
	if n < 2 {
		return nil, fmt.Errorf("delta select needs n >= 2, got %d", n)
	}
	if delta < 1 {
		return nil, fmt.Errorf("delta select needs delta >= 1, got %d", delta)
	}
	if delta > n {
		delta = n
	}
	family, err := ssf.New(n, delta)
	if err != nil {
		return nil, fmt.Errorf("selective family: %w", err)
	}
	return &DeltaSelect{n: n, delta: delta, family: family}, nil
}

// Name implements sim.Algorithm.
func (a *DeltaSelect) Name() string { return fmt.Sprintf("delta-select(Δ=%d)", a.delta) }

// FamilySize returns the size of the underlying selective family
// (diagnostics).
func (a *DeltaSelect) FamilySize() int { return a.family.Size() }

// NewProcess implements sim.Algorithm; the algorithm is deterministic and
// oblivious (the schedule depends only on the id and the round), so rng is
// ignored.
func (a *DeltaSelect) NewProcess(id, n int, _ *rand.Rand) sim.Process {
	return &deltaSelectProc{alg: a, id: id}
}

// HoldersIgnoreReceptions implements sim.DeafHolders.
func (a *DeltaSelect) HoldersIgnoreReceptions() bool { return true }

type deltaSelectProc struct {
	alg *DeltaSelect
	id  int
	has bool
}

var _ sim.Process = (*deltaSelectProc)(nil)

func (p *deltaSelectProc) Start(_ int, hasMessage bool) { p.has = hasMessage }

func (p *deltaSelectProc) Decide(round int) bool {
	if !p.has {
		return false
	}
	set := (round - 1) % p.alg.family.Size()
	return p.alg.family.Contains(set, p.id)
}

func (p *deltaSelectProc) Receive(_ int, r sim.Reception) {
	if r.Kind == sim.Delivered && r.Broadcast {
		p.has = true
	}
}
