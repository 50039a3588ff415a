package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// graphEqual reports structural equality of two frozen CSR graphs.
func graphEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for u := 0; u < a.N(); u++ {
		ra, rb := a.Out(NodeID(u)), b.Out(NodeID(u))
		if len(ra) != len(rb) {
			return false
		}
		for i := range ra {
			if ra[i] != rb[i] {
				return false
			}
		}
	}
	return true
}

// dualEqual reports structural equality of two duals (same G, G', source).
func dualEqual(a, b *Dual) bool {
	return a.Source() == b.Source() && graphEqual(a.G(), b.G()) && graphEqual(a.GPrime(), b.GPrime())
}

func testBase(t *testing.T) *Dual {
	t.Helper()
	d, err := RandomDual(24, 0.2, 0.4, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStaticScheduleIsTheBase(t *testing.T) {
	d := testBase(t)
	s := Static(d)
	if s.EpochLength() != 0 {
		t.Fatalf("EpochLength = %d, want 0", s.EpochLength())
	}
	if s.N() != d.N() {
		t.Fatalf("N = %d, want %d", s.N(), d.N())
	}
	for _, e := range []int{0, 1, 50} {
		got, err := s.Epoch(e, 99)
		if err != nil {
			t.Fatal(err)
		}
		if got != d {
			t.Fatalf("epoch %d is not the base network pointer", e)
		}
	}
}

// TestEpochPurity is the determinism property every schedule must satisfy:
// Epoch(e, seed) is a pure function — repeated and out-of-order calls return
// structurally identical networks, and different seeds or epochs may differ.
func TestEpochPurity(t *testing.T) {
	base := testBase(t)
	churn, err := NewChurn(base, 4, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fade, err := NewFade(base, 4, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	wp, err := NewWaypoint(base, 4, 3, 0.3, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Schedule{"churn": churn, "fade": fade, "waypoint": wp} {
		// Walk epochs forward, then revisit in arbitrary order.
		first := make(map[int]*Dual)
		for e := 0; e < 6; e++ {
			d, err := s.Epoch(e, 7)
			if err != nil {
				t.Fatalf("%s epoch %d: %v", name, e, err)
			}
			first[e] = d
		}
		for _, e := range []int{5, 0, 3, 1, 5, 2} {
			d, err := s.Epoch(e, 7)
			if err != nil {
				t.Fatalf("%s revisit epoch %d: %v", name, e, err)
			}
			if !dualEqual(d, first[e]) {
				t.Fatalf("%s epoch %d is not pure: revisit differs", name, e)
			}
		}
		// A different run seed must be able to produce different dynamics
		// (epoch 0 is the base for churn/fade, so compare a later epoch).
		d7, err := s.Epoch(3, 7)
		if err != nil {
			t.Fatal(err)
		}
		d8, err := s.Epoch(3, 8)
		if err != nil {
			t.Fatal(err)
		}
		if dualEqual(d7, d8) {
			t.Logf("%s: seeds 7 and 8 coincide at epoch 3 (possible but suspicious)", name)
		}
	}
}

// TestEpochValidity: every materialized epoch must satisfy the NewDual
// invariants — the constructors revalidate, so a successful build plus a
// reachability sweep is the whole check.
func TestEpochValidity(t *testing.T) {
	base := testBase(t)
	churn, _ := NewChurn(base, 2, 0.9)
	fade, _ := NewFade(base, 2, 0.95)
	wp, _ := NewWaypoint(base, 2, 2, 0.2, 0.5)
	for name, s := range map[string]Schedule{"churn": churn, "fade": fade, "waypoint": wp} {
		for e := 0; e < 8; e++ {
			d, err := s.Epoch(e, 5)
			if err != nil {
				t.Fatalf("%s epoch %d invalid: %v", name, e, err)
			}
			if d.N() != base.N() {
				t.Fatalf("%s epoch %d has %d nodes, want %d", name, e, d.N(), base.N())
			}
			for v, dist := range d.G().DistancesFrom(d.Source()) {
				if dist < 0 {
					t.Fatalf("%s epoch %d: node %d unreachable in G", name, e, v)
				}
			}
		}
	}
}

func TestChurnEpochZeroIsBase(t *testing.T) {
	base := testBase(t)
	for _, s := range []Schedule{
		func() Schedule { s, _ := NewChurn(base, 3, 0.5); return s }(),
		func() Schedule { s, _ := NewFade(base, 3, 0.5); return s }(),
	} {
		d, err := s.Epoch(0, 42)
		if err != nil {
			t.Fatal(err)
		}
		if d != base {
			t.Fatalf("%T epoch 0 is not the base network", s)
		}
	}
}

// TestChurnTotalCrashLeavesBackbone: with p-down=1 every non-source node is
// down in every epoch > 0, so the epoch network is exactly the BFS backbone
// — G a spanning tree, empty fringe — and still valid.
func TestChurnTotalCrashLeavesBackbone(t *testing.T) {
	base := testBase(t)
	s, err := NewChurn(base, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Epoch(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (base.N() - 1); d.G().NumEdges() != want {
		t.Fatalf("backbone epoch has %d arcs, want spanning tree %d", d.G().NumEdges(), want)
	}
	if d.NumUnreliable() != 0 {
		t.Fatalf("backbone epoch has %d unreliable arcs, want 0", d.NumUnreliable())
	}
}

func TestChurnZeroProbabilityIsIdentity(t *testing.T) {
	base := testBase(t)
	s, _ := NewChurn(base, 1, 0)
	d, err := s.Epoch(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !dualEqual(d, base) {
		t.Fatal("p-down=0 epoch differs from the base")
	}
}

// TestFadeKeepsGPrime: fading only demotes within G' — the epoch shares the
// base's frozen G' core, G shrinks (never below the backbone), and every
// demoted edge shows up in the fringe.
func TestFadeKeepsGPrime(t *testing.T) {
	base := testBase(t)
	s, _ := NewFade(base, 1, 0.6)
	d, err := s.Epoch(2, 13)
	if err != nil {
		t.Fatal(err)
	}
	if d.GPrime() != base.GPrime() {
		t.Fatal("fade epoch does not alias the base G' core")
	}
	if got, want := d.G().NumEdges(), base.G().NumEdges(); got > want {
		t.Fatalf("fade grew G: %d arcs > base %d", got, want)
	}
	if got, want := d.NumUnreliable(), base.NumUnreliable(); got < want {
		t.Fatalf("fade shrank the fringe: %d < base %d", got, want)
	}
	// Every arc of epoch G must exist in base G (demotion only).
	for u := 0; u < d.N(); u++ {
		for _, v := range d.ReliableOut(NodeID(u)) {
			if !base.G().HasEdge(NodeID(u), v) {
				t.Fatalf("fade invented reliable arc (%d,%d)", u, v)
			}
		}
	}
}

// TestFadeTotalLeavesBackbone: p-fade=1 demotes every non-backbone reliable
// edge, so G is the spanning tree and the fringe holds everything else.
func TestFadeTotalLeavesBackbone(t *testing.T) {
	base := testBase(t)
	s, _ := NewFade(base, 1, 1.0)
	d, err := s.Epoch(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * (base.N() - 1); d.G().NumEdges() != want {
		t.Fatalf("fully faded G has %d arcs, want backbone %d", d.G().NumEdges(), want)
	}
	if want := base.GPrime().NumEdges() - 2*(base.N()-1); d.NumUnreliable() != want {
		t.Fatalf("fully faded fringe has %d arcs, want %d", d.NumUnreliable(), want)
	}
}

// TestWaypointMoves: successive legs produce different geometry (motion),
// while every epoch keeps the Hamiltonian-path backbone reachable.
func TestWaypointMoves(t *testing.T) {
	base := testBase(t)
	s, err := NewWaypoint(base, 4, 1, 0.3, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := s.Epoch(0, 21)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := s.Epoch(1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if dualEqual(d0, d1) {
		t.Fatal("waypoint epochs 0 and 1 are identical: no motion")
	}
}

// TestDirectedBaseSchedules: churn and fade must preserve directedness and
// validity on directed bases.
func TestDirectedBaseSchedules(t *testing.T) {
	base, err := DirectedLayered([]int{3, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	churn, _ := NewChurn(base, 1, 0.5)
	fade, _ := NewFade(base, 1, 0.5)
	for name, s := range map[string]Schedule{"churn": churn, "fade": fade} {
		d, err := s.Epoch(2, 6)
		if err != nil {
			t.Fatalf("%s on directed base: %v", name, err)
		}
		if !d.G().Directed() {
			t.Fatalf("%s lost directedness", name)
		}
	}
}

func TestScheduleConstructorValidation(t *testing.T) {
	base := testBase(t)
	if _, err := NewChurn(base, 0, 0.5); err == nil {
		t.Error("churn accepted epoch length 0")
	}
	if _, err := NewChurn(base, 1, 1.5); err == nil {
		t.Error("churn accepted p-down > 1")
	}
	if _, err := NewFade(base, -1, 0.5); err == nil {
		t.Error("fade accepted negative epoch length")
	}
	if _, err := NewFade(base, 1, -0.1); err == nil {
		t.Error("fade accepted negative p-fade")
	}
	if _, err := NewWaypoint(base, 1, 0, 0.2, 0.5); err == nil {
		t.Error("waypoint accepted leg-epochs 0")
	}
	if _, err := NewWaypoint(base, 1, 1, 0.5, 0.2); err == nil {
		t.Error("waypoint accepted r-unreliable < r-reliable")
	}
}

func TestEpochSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for e := 0; e < 100; e++ {
		s := EpochSeed(1, e)
		if seen[s] {
			t.Fatalf("EpochSeed collision at epoch %d", e)
		}
		seen[s] = true
	}
	if EpochSeed(1, 5) == EpochSeed(2, 5) {
		t.Fatal("EpochSeed ignores the run seed")
	}
}

// rebuildReference re-freezes a base core through the Builder the way the
// pre-incremental schedules did: every arc of every row re-filtered, re-sorted,
// re-deduplicated. The incremental patch path must be structurally
// indistinguishable from this, down to fringe EdgeID order.
func rebuildReference(base *Graph, keep func(u, v NodeID) bool) *Graph {
	b := NewBuilder(base.N(), base.Directed())
	for u := 0; u < base.N(); u++ {
		for _, v := range base.Out(NodeID(u)) {
			if keep(NodeID(u), v) {
				b.addArc(NodeID(u), v)
			}
		}
	}
	return b.Freeze()
}

// TestEpochPatchingMatchesFullRebuild pins the row-by-row epoch path (each
// epoch row filtered or merged from the matching base rows, no validation
// BFS) against a full Builder→Freeze→NewDualGraphs rebuild with the same
// keep predicates, for churn and fade on undirected and directed bases and
// on the churn-epochs benchmark network (geometric n=1024, radii .06/.12).
// The probabilities cover the extremes: 0 (no row changes; the epoch must be
// the base pointer), 0.01 (a few rows), the workloads' own rates, and 1
// (every row of churn changes; fade demotes every non-backbone edge).
// Structural identity here is what keeps the simulator's dynamic goldens
// byte-identical across the optimization.
func TestEpochPatchingMatchesFullRebuild(t *testing.T) {
	directed, err := DirectedLayered([]int{4, 5, 4, 3})
	if err != nil {
		t.Fatal(err)
	}
	geometric, err := Geometric(1024, 0.06, 0.12, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	bases := []struct {
		name   string
		d      *Dual
		epochs int
	}{{"undirected", testBase(t), 16}, {"directed", directed, 16}, {"geometric-1024", geometric, 4}}
	const runSeed = 7
	for _, b := range bases {
		base := b.d
		backbone := newBackboneTree(base)
		for _, p := range []float64{0, 0.01, 0.05, 0.3, 1} {
			churn, err := NewChurn(base, 3, p)
			if err != nil {
				t.Fatal(err)
			}
			fade, err := NewFade(base, 3, p)
			if err != nil {
				t.Fatal(err)
			}
			for e := 1; e <= b.epochs; e++ {
				seed := EpochSeed(runSeed, e)
				name := fmt.Sprintf("%s p=%v epoch %d", b.name, p, e)

				// Churn reference: recompute the down set and rebuild both cores.
				down := make([]bool, base.N())
				for v := 0; v < base.N(); v++ {
					if NodeID(v) != base.Source() && unitHash(seed, churnTag, uint64(v)) < p {
						down[v] = true
					}
				}
				keepChurn := func(u, v NodeID) bool {
					if !down[u] && !down[v] {
						return true
					}
					return backbone.has(u, v)
				}
				wantChurn, err := NewDualGraphs(
					rebuildReference(base.G(), keepChurn),
					rebuildReference(base.GPrime(), keepChurn),
					base.Source())
				if err != nil {
					t.Fatalf("%s: churn reference: %v", name, err)
				}
				gotChurn, err := churn.Epoch(e, runSeed)
				if err != nil {
					t.Fatalf("%s: churn: %v", name, err)
				}
				if err := coresIdentical(gotChurn, wantChurn); err != nil {
					t.Fatalf("%s: churn epoch differs from full rebuild: %v", name, err)
				}
				if p == 0 && gotChurn != base {
					t.Fatalf("%s: p-down=0 churn epoch is not the base pointer", name)
				}

				// Fade reference: rebuild G only; G' is shared with the base.
				keepFade := func(u, v NodeID) bool {
					if backbone.has(u, v) {
						return true
					}
					return unitHash(seed, fadeTag, canonArc(u, v, base.G().Directed())) >= p
				}
				wantFade, err := NewDualGraphs(rebuildReference(base.G(), keepFade), base.GPrime(), base.Source())
				if err != nil {
					t.Fatalf("%s: fade reference: %v", name, err)
				}
				gotFade, err := fade.Epoch(e, runSeed)
				if err != nil {
					t.Fatalf("%s: fade: %v", name, err)
				}
				if err := coresIdentical(gotFade, wantFade); err != nil {
					t.Fatalf("%s: fade epoch differs from full rebuild: %v", name, err)
				}
				if gotFade.GPrime() != base.GPrime() {
					t.Fatalf("%s: fade G' no longer aliases the base core", name)
				}
				if p == 0 && gotFade != base {
					t.Fatalf("%s: p-fade=0 fade epoch is not the base pointer", name)
				}
				if p == 1 && gotFade.G().NumEdges() != rebuildReference(base.G(), backbone.has).NumEdges() {
					t.Fatalf("%s: p-fade=1 left more than the backbone in G", name)
				}
			}
		}
	}
}
