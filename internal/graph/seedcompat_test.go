package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// This file pins the CSR builder pipeline to the seed implementation: a
// faithful reimplementation of the original map[edge]struct{} graph and its
// generator loops (including the exact rng draw order) must produce the
// same dual edge sets as the frozen CSR path for fixed seeds.

// refGraph is the seed's construction-oriented graph: a map edge set plus
// ragged adjacency, exactly as in the pre-CSR implementation.
type refGraph struct {
	n     int
	out   [][]NodeID
	edges map[[2]NodeID]struct{}
}

func newRefGraph(n int) *refGraph {
	return &refGraph{n: n, out: make([][]NodeID, n), edges: make(map[[2]NodeID]struct{})}
}

func (g *refGraph) addArc(u, v NodeID) {
	e := [2]NodeID{u, v}
	if _, ok := g.edges[e]; ok {
		return
	}
	g.edges[e] = struct{}{}
	g.out[u] = append(g.out[u], v)
}

func (g *refGraph) addEdge(u, v NodeID) { g.addArc(u, v); g.addArc(v, u) }

func (g *refGraph) hasEdge(u, v NodeID) bool {
	_, ok := g.edges[[2]NodeID{u, v}]
	return ok
}

func (g *refGraph) clone() *refGraph {
	c := newRefGraph(g.n)
	for e := range g.edges {
		c.addArc(e[0], e[1])
	}
	return c
}

// sortedOut returns u's neighbours sorted, as the frozen CSR exposes them.
func (g *refGraph) sortedOut(u NodeID) []NodeID {
	out := append([]NodeID(nil), g.out[u]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// assertDualMatchesRef checks that the dual's reliable and unreliable rows
// coincide with the reference (g, gp) pair for every node.
func assertDualMatchesRef(t *testing.T, d *Dual, g, gp *refGraph) {
	t.Helper()
	if d.N() != g.n {
		t.Fatalf("n = %d, want %d", d.N(), g.n)
	}
	for u := 0; u < g.n; u++ {
		wantRel := g.sortedOut(NodeID(u))
		gotRel := d.G().Out(NodeID(u))
		if len(gotRel) != len(wantRel) {
			t.Fatalf("node %d: reliable row %v, want %v", u, gotRel, wantRel)
		}
		for i := range wantRel {
			if gotRel[i] != wantRel[i] {
				t.Fatalf("node %d: reliable row %v, want %v", u, gotRel, wantRel)
			}
		}
		var wantUnrel []NodeID
		for _, v := range gp.sortedOut(NodeID(u)) {
			if !g.hasEdge(NodeID(u), v) {
				wantUnrel = append(wantUnrel, v)
			}
		}
		gotUnrel := unrel(d, NodeID(u))
		if len(gotUnrel) != len(wantUnrel) {
			t.Fatalf("node %d: unreliable row %v, want %v", u, gotUnrel, wantUnrel)
		}
		for i := range wantUnrel {
			if gotUnrel[i] != wantUnrel[i] {
				t.Fatalf("node %d: unreliable row %v, want %v", u, gotUnrel, wantUnrel)
			}
		}
	}
}

// refGrid replays the seed Grid loops verbatim (same rng draw order).
func refGrid(rows, cols, reach int, p float64, rng *rand.Rand) (*refGraph, *refGraph) {
	n := rows * cols
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	g := newRefGraph(n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				g.addEdge(id(r, c), id(r+1, c))
			}
			if c+1 < cols {
				g.addEdge(id(r, c), id(r, c+1))
			}
		}
	}
	gp := g.clone()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for dr := -reach; dr <= reach; dr++ {
				for dc := -reach; dc <= reach; dc++ {
					r2, c2 := r+dr, c+dc
					if r2 < 0 || r2 >= rows || c2 < 0 || c2 >= cols {
						continue
					}
					u, v := id(r, c), id(r2, c2)
					if u >= v || g.hasEdge(u, v) {
						continue
					}
					if rng.Float64() < p {
						gp.addEdge(u, v)
					}
				}
			}
		}
	}
	return g, gp
}

func TestGridMatchesSeedImplementation(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		d, err := Grid(6, 7, 2, 0.35, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		g, gp := refGrid(6, 7, 2, 0.35, rand.New(rand.NewSource(seed)))
		assertDualMatchesRef(t, d, g, gp)
	}
}

// refGeometric replays the seed's all-pairs Geometric construction.
func refGeometric(n int, rReliable, rUnreliable float64, rng *rand.Rand) (*refGraph, *refGraph) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist := func(u, v int) float64 { return math.Hypot(xs[u]-xs[v], ys[u]-ys[v]) }
	g := newRefGraph(n)
	for u := 0; u+1 < n; u++ {
		g.addEdge(NodeID(u), NodeID(u+1))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if dist(u, v) <= rReliable {
				g.addEdge(NodeID(u), NodeID(v))
			}
		}
	}
	gp := g.clone()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !gp.hasEdge(NodeID(u), NodeID(v)) && dist(u, v) <= rUnreliable {
				gp.addEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g, gp
}

func TestGeometricMatchesSeedImplementation(t *testing.T) {
	// Radii both above and below the bucket-side cap exercise the cell
	// enumeration against the all-pairs reference.
	cases := []struct {
		n      int
		rR, rU float64
		seed   int64
	}{
		{25, 0.25, 0.6, 3},
		{80, 0.12, 0.3, 9},
		{200, 0.05, 0.11, 11},
		{60, 0.5, 1.5, 5}, // radius beyond the unit square: complete G'
	}
	for _, c := range cases {
		d, err := Geometric(c.n, c.rR, c.rU, rand.New(rand.NewSource(c.seed)))
		if err != nil {
			t.Fatal(err)
		}
		g, gp := refGeometric(c.n, c.rR, c.rU, rand.New(rand.NewSource(c.seed)))
		assertDualMatchesRef(t, d, g, gp)
	}
}

// refRandomDual replays the seed RandomDual loops verbatim.
func refRandomDual(n int, pReliable, pUnreliable float64, rng *rand.Rand) (*refGraph, *refGraph) {
	g := newRefGraph(n)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.addEdge(NodeID(perm[i]), NodeID(perm[i+1]))
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.hasEdge(NodeID(u), NodeID(v)) && rng.Float64() < pReliable {
				g.addEdge(NodeID(u), NodeID(v))
			}
		}
	}
	gp := g.clone()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !gp.hasEdge(NodeID(u), NodeID(v)) && rng.Float64() < pUnreliable {
				gp.addEdge(NodeID(u), NodeID(v))
			}
		}
	}
	return g, gp
}

func TestRandomDualMatchesSeedImplementation(t *testing.T) {
	for _, seed := range []int64{2, 5, 77} {
		d, err := RandomDual(40, 0.12, 0.35, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		g, gp := refRandomDual(40, 0.12, 0.35, rand.New(rand.NewSource(seed)))
		assertDualMatchesRef(t, d, g, gp)
	}
}

// refLayeredRandom replays the seed LayeredRandom construction.
func refLayeredRandom(layerSizes []int) (*refGraph, *refGraph) {
	n := 1
	for _, s := range layerSizes {
		n += s
	}
	g := newRefGraph(n)
	prev := []NodeID{0}
	next := 1
	for _, s := range layerSizes {
		cur := make([]NodeID, 0, s)
		for i := 0; i < s; i++ {
			cur = append(cur, NodeID(next))
			next++
		}
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				g.addEdge(cur[i], cur[j])
			}
		}
		for _, u := range prev {
			for _, v := range cur {
				g.addEdge(u, v)
			}
		}
		prev = cur
	}
	gp := newRefGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gp.addEdge(NodeID(u), NodeID(v))
		}
	}
	return g, gp
}

func TestLayeredRandomMatchesSeedImplementation(t *testing.T) {
	for _, sizes := range [][]int{{3, 1, 4}, {2, 2, 2, 2}, {5}} {
		d, err := LayeredRandom(sizes)
		if err != nil {
			t.Fatal(err)
		}
		g, gp := refLayeredRandom(sizes)
		assertDualMatchesRef(t, d, g, gp)
	}
}

// TestBuilderMatchesSeedSemantics drives a Builder and the reference map
// graph through the same random edge insertions (with duplicates and
// interleaved freezes) and checks the frozen CSR agrees.
func TestBuilderMatchesSeedSemantics(t *testing.T) {
	for _, seed := range []int64{1, 13} {
		rng := rand.New(rand.NewSource(seed))
		const n = 30
		b := NewBuilder(n, false)
		ref := newRefGraph(n)
		for i := 0; i < 400; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			b.MustAddEdge(u, v)
			ref.addEdge(u, v)
			if i%17 == 0 { // interleave freezes: the builder stays usable
				if fz := b.Freeze(); fz.NumEdges() != len(ref.edges) || !fz.HasEdge(u, v) {
					t.Fatalf("mid-build freeze diverged after (%d,%d)", u, v)
				}
			}
		}
		fz := b.Freeze()
		if fz.NumEdges() != len(ref.edges) {
			t.Fatalf("frozen NumEdges = %d, want %d", fz.NumEdges(), len(ref.edges))
		}
		for u := 0; u < n; u++ {
			want := ref.sortedOut(NodeID(u))
			got := fz.Out(NodeID(u))
			if len(got) != len(want) {
				t.Fatalf("node %d: row %v, want %v", u, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d: row %v, want %v", u, got, want)
				}
			}
			for v := 0; v < n; v++ {
				if fz.HasEdge(NodeID(u), NodeID(v)) != ref.hasEdge(NodeID(u), NodeID(v)) {
					t.Fatalf("frozen HasEdge(%d,%d) diverged", u, v)
				}
			}
		}
	}
}

// refCompleteLayered replays the seed CompleteLayered loops verbatim.
func refCompleteLayered(n int) (*refGraph, *refGraph) {
	g := newRefGraph(n)
	layers := (n - 1) / 2
	layerOf := func(k int) []NodeID {
		if k == 0 {
			return []NodeID{0}
		}
		return []NodeID{NodeID(2*k - 1), NodeID(2 * k)}
	}
	for k := 0; k <= layers; k++ {
		cur := layerOf(k)
		for i := 0; i < len(cur); i++ {
			for j := i + 1; j < len(cur); j++ {
				g.addEdge(cur[i], cur[j])
			}
		}
		if k < layers {
			for _, u := range cur {
				for _, v := range layerOf(k + 1) {
					g.addEdge(u, v)
				}
			}
		}
	}
	gp := newRefGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			gp.addEdge(NodeID(u), NodeID(v))
		}
	}
	return g, gp
}

func TestCompleteLayeredMatchesSeedImplementation(t *testing.T) {
	for _, n := range []int{5, 7, 9, 17, 33, 257} {
		d, err := CompleteLayered(n)
		if err != nil {
			t.Fatal(err)
		}
		g, gp := refCompleteLayered(n)
		assertDualMatchesRef(t, d, g, gp)
	}
}

// refDirectedLayered replays the seed DirectedLayered loops verbatim: G
// points each layer at the next, G' additionally at every later layer.
func refDirectedLayered(layerSizes []int) (*refGraph, *refGraph) {
	n := 1
	for _, s := range layerSizes {
		n += s
	}
	g, gp := newRefGraph(n), newRefGraph(n)
	layers := [][]NodeID{{0}}
	next := 1
	for _, s := range layerSizes {
		cur := make([]NodeID, 0, s)
		for i := 0; i < s; i++ {
			cur = append(cur, NodeID(next))
			next++
		}
		layers = append(layers, cur)
	}
	for k := 0; k+1 < len(layers); k++ {
		for _, u := range layers[k] {
			for _, v := range layers[k+1] {
				g.addArc(u, v)
				gp.addArc(u, v)
			}
			for j := k + 2; j < len(layers); j++ {
				for _, v := range layers[j] {
					gp.addArc(u, v)
				}
			}
		}
	}
	return g, gp
}

func TestDirectedLayeredMatchesSeedImplementation(t *testing.T) {
	for _, sizes := range [][]int{{1}, {2, 3}, {3, 1, 4}} {
		d, err := DirectedLayered(sizes)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Directed() {
			t.Fatalf("DirectedLayered(%v) is undirected", sizes)
		}
		g, gp := refDirectedLayered(sizes)
		assertDualMatchesRef(t, d, g, gp)
	}
}
