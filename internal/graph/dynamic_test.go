package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
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
	nan := math.NaN()
	for _, c := range []struct {
		rRel, rUnrel float64
		names        string
	}{{nan, 0.5, "rReliable"}, {0.2, nan, "rUnreliable"}, {nan, nan, "rReliable"}} {
		if _, err := NewWaypoint(base, 8, 4, c.rRel, c.rUnrel); err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("waypoint r=%v/%v: err = %v, want one naming %s", c.rRel, c.rUnrel, err, c.names)
		}
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

// rebuildReference re-freezes a base core through the Builder: every arc of
// every row re-filtered, re-sorted, re-deduplicated. Overlay epochs, read
// through Row or built into cores, must be structurally indistinguishable
// from this, down to fringe EdgeID order.
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

// referenceEpochs rebuilds churn and fade epoch e of base through the
// Builder, with the keep predicates stated from scratch: the oracle the
// overlay epochs are held to.
func referenceEpochs(t testing.TB, base *Dual, p float64, runSeed int64, e int) (churn, fade *Dual) {
	t.Helper()
	backbone := newBackboneTree(base)
	seed := EpochSeed(runSeed, e)
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
	churn, err := NewDualGraphs(
		rebuildReference(base.G(), keepChurn),
		rebuildReference(base.GPrime(), keepChurn),
		base.Source())
	if err != nil {
		t.Fatalf("churn reference: %v", err)
	}
	// Fade rebuilds G only; G' is the base's.
	keepFade := func(u, v NodeID) bool {
		if backbone.has(u, v) {
			return true
		}
		return unitHash(seed, fadeTag, canonArc(u, v, base.G().Directed())) >= p
	}
	fade, err = NewDualGraphs(rebuildReference(base.G(), keepFade), base.GPrime(), base.Source())
	if err != nil {
		t.Fatalf("fade reference: %v", err)
	}
	return churn, fade
}

// overlayReadsMatch reads every row of got through Row — reliable and
// fringe out-rows and in-rows — and HasUnreliableEdge over every arc of base
// G' plus a sample of non-arcs and out-of-range nodes, against the rebuilt
// want, all through one reused buffer. The reads must leave an overlay epoch
// without cores.
func overlayReadsMatch(got, want, base *Dual) error {
	if got.N() != want.N() || got.Directed() != want.Directed() || got.Source() != want.Source() {
		return fmt.Errorf("shape (%d, %v, %d) vs (%d, %v, %d)",
			got.N(), got.Directed(), got.Source(), want.N(), want.Directed(), want.Source())
	}
	n := want.N()
	gIn, fringeIn := want.g.Transpose(), want.fringe.Transpose()
	var buf []NodeID
	for u := NodeID(0); int(u) < n; u++ {
		for _, c := range []struct {
			k    RowKind
			want []NodeID
		}{{Reliable, want.g.Out(u)}, {Unreliable, want.fringe.Out(u)}, {ReliableIn, gIn.Out(u)}, {UnreliableIn, fringeIn.Out(u)}} {
			if row := got.Row(u, c.k, &buf); !slices.Equal(row, c.want) {
				return fmt.Errorf("row kind %d of node %d: %v, want %v", c.k, u, row, c.want)
			}
		}
		probes := append(slices.Clone(base.GPrime().Out(u)), (u*7+3)%NodeID(n), (u+1)%NodeID(n), u, -1, NodeID(n))
		for _, v := range probes {
			if got.HasUnreliableEdge(u, v) != want.fringe.HasEdge(u, v) {
				return fmt.Errorf("HasUnreliableEdge(%d, %d) = %v", u, v, !want.fringe.HasEdge(u, v))
			}
		}
	}
	for _, u := range []NodeID{-1, NodeID(n)} {
		if got.HasUnreliableEdge(u, 0) {
			return fmt.Errorf("HasUnreliableEdge(%d, 0) on an out-of-range node", u)
		}
	}
	if got.ov != nil && got.ov.mat != nil {
		return fmt.Errorf("Row or HasUnreliableEdge built the overlay's cores")
	}
	return nil
}

// TestEpochPatchingMatchesFullRebuild pins the overlay epochs (a down set or
// a faded-arc set over the base, read row by row through Row) against a full
// Builder→Freeze→NewDualGraphs rebuild with the same keep predicates, for
// churn and fade on undirected and directed bases and on the churn-epochs
// benchmark network (geometric n=1024, radii .06/.12). Every epoch is read
// through the accessor first, which must not build its cores; then the
// lazily built cores must be identical to the rebuild, dense EdgeIDs
// included. The probabilities cover the extremes: 0 (no row changes; the
// epoch must be the base pointer), 0.01 (a few rows), the workloads' own
// rates, and 1 (every row of churn changes; fade demotes every non-backbone
// edge). Structural identity here is what keeps the simulator's dynamic
// goldens byte-identical.
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
				name := fmt.Sprintf("%s p=%v epoch %d", b.name, p, e)
				wantChurn, wantFade := referenceEpochs(t, base, p, runSeed, e)

				gotChurn, err := churn.Epoch(e, runSeed)
				if err != nil {
					t.Fatalf("%s: churn: %v", name, err)
				}
				if err := overlayReadsMatch(gotChurn, wantChurn, base); err != nil {
					t.Fatalf("%s: churn overlay reads differ from full rebuild: %v", name, err)
				}
				if err := coresIdentical(gotChurn, wantChurn); err != nil {
					t.Fatalf("%s: churn epoch differs from full rebuild: %v", name, err)
				}
				if p == 0 && gotChurn != base {
					t.Fatalf("%s: p-down=0 churn epoch is not the base pointer", name)
				}

				gotFade, err := fade.Epoch(e, runSeed)
				if err != nil {
					t.Fatalf("%s: fade: %v", name, err)
				}
				if err := overlayReadsMatch(gotFade, wantFade, base); err != nil {
					t.Fatalf("%s: fade overlay reads differ from full rebuild: %v", name, err)
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

// TestOverlayConcurrentMaterialize has 8 goroutines ask one overlay epoch
// for its cores at once, through different id-indexed readers; under -race
// it checks that the one build is published safely, and every caller must
// see the same cores. Eight first callers of a fresh fade schedule's epoch 1
// likewise share its one coin-table build.
func TestOverlayConcurrentMaterialize(t *testing.T) {
	base := testBase(t)
	const p, runSeed = 0.4, 3
	churn, err := NewChurn(base, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	fade, err := NewFade(base, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	wantChurn, wantFade := referenceEpochs(t, base, p, runSeed, 1)
	for _, c := range []struct {
		s    Schedule
		want *Dual
	}{{churn, wantChurn}, {fade, wantFade}} {
		d, err := c.s.Epoch(1, runSeed)
		if err != nil {
			t.Fatal(err)
		}
		if d.ov == nil {
			t.Fatalf("%T epoch 1 is not an overlay", c.s)
		}
		const readers = 8
		got := make([]*Graph, readers)
		var wg sync.WaitGroup
		for i := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch i % 3 {
				case 0:
					d.NumUnreliable()
				case 1:
					d.UnreliableEdges(NodeID(i % d.N()))
				}
				got[i] = d.G()
			}()
		}
		wg.Wait()
		for i := 1; i < readers; i++ {
			if got[i] != got[0] {
				t.Fatalf("%T: reader %d saw different cores", c.s, i)
			}
		}
		if err := coresIdentical(d, c.want); err != nil {
			t.Fatalf("%T: concurrently built cores differ from the rebuild: %v", c.s, err)
		}
	}
	// A fresh fade schedule builds its coin table on the first epoch e ≥ 1,
	// here under concurrent first callers.
	fresh, err := NewFade(base, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	epochs := make([]*Dual, 8)
	var wg sync.WaitGroup
	for i := range epochs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			epochs[i], _ = fresh.Epoch(1, runSeed)
		}()
	}
	wg.Wait()
	for i, d := range epochs {
		if err := coresIdentical(d, wantFade); err != nil {
			t.Fatalf("fade epoch %d of concurrent first callers differs from the rebuild: %v", i, err)
		}
	}
}

// randomDirectedDual is a random directed base: a random arborescence out of
// the source in G, random extra arcs in G, and random further arcs in G',
// reverses of G arcs included.
func randomDirectedDual(n int, rng *rand.Rand) (*Dual, error) {
	g, gp := NewBuilder(n, true), NewBuilder(n, true)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u, v := NodeID(perm[rng.Intn(i)]), NodeID(perm[i])
		g.MustAddEdge(u, v)
		gp.MustAddEdge(u, v)
	}
	for k := 0; k < 2*n; k++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		gp.MustAddEdge(u, v)
		if rng.Intn(2) == 0 {
			g.MustAddEdge(u, v)
		}
	}
	return NewDual(g, gp, NodeID(perm[0]))
}

// FuzzEpochOverlay checks churn and fade overlay epochs of a random small
// base — undirected or directed — at a random probability and epoch against
// the full rebuild: every row read through Row, edge membership, and the
// lazily built cores.
func FuzzEpochOverlay(f *testing.F) {
	f.Add(uint8(12), int64(1), uint8(30), uint16(1), false)
	f.Add(uint8(2), int64(2), uint8(255), uint16(3), true)
	f.Add(uint8(40), int64(3), uint8(5), uint16(9), false)
	f.Add(uint8(25), int64(4), uint8(128), uint16(2), true)
	f.Fuzz(func(t *testing.T, n uint8, seed int64, pByte uint8, epoch uint16, directed bool) {
		if n < 2 || n > 64 || epoch == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		var base *Dual
		var err error
		if directed {
			base, err = randomDirectedDual(int(n), rng)
		} else {
			base, err = RandomDual(int(n), 0.2, 0.3, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		p := float64(pByte) / 255
		churn, err := NewChurn(base, 1, p)
		if err != nil {
			t.Fatal(err)
		}
		fade, err := NewFade(base, 1, p)
		if err != nil {
			t.Fatal(err)
		}
		wantChurn, wantFade := referenceEpochs(t, base, p, seed, int(epoch))
		for _, c := range []struct {
			s    Schedule
			want *Dual
		}{{churn, wantChurn}, {fade, wantFade}} {
			got, err := c.s.Epoch(int(epoch), seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := overlayReadsMatch(got, c.want, base); err != nil {
				t.Fatalf("%T p=%v epoch %d: %v", c.s, p, epoch, err)
			}
			if err := coresIdentical(got, c.want); err != nil {
				t.Fatalf("%T p=%v epoch %d: cores: %v", c.s, p, epoch, err)
			}
		}
	})
}
