package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeRejectsSelfLoop(t *testing.T) {
	g := NewBuilder(3, false)
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("expected error for self-loop")
	}
}

func TestAddEdgeRejectsOutOfRange(t *testing.T) {
	g := NewBuilder(3, false)
	for _, e := range [][2]NodeID{{-1, 0}, {0, 3}, {5, 1}} {
		if err := g.AddEdge(e[0], e[1]); err == nil {
			t.Errorf("expected error for edge %v", e)
		}
	}
}

func TestUndirectedAddsBothArcs(t *testing.T) {
	g := NewBuilder(4, false)
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(2, 0) {
		t.Fatal("undirected edge must exist in both directions")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("want 2 arcs, got %d", g.NumEdges())
	}
}

func TestDirectedAddsOneArc(t *testing.T) {
	g := NewBuilder(4, true)
	if err := g.AddEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 2) {
		t.Fatal("arc (0,2) missing")
	}
	if g.HasEdge(2, 0) {
		t.Fatal("directed graph must not add reverse arc")
	}
}

func TestDuplicateEdgeIgnored(t *testing.T) {
	g := NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 1)
	if g.NumEdges() != 2 {
		t.Fatalf("duplicate edge changed edge count: %d", g.NumEdges())
	}
	if out := g.Freeze().Out(0); len(out) != 1 {
		t.Fatalf("duplicate edge duplicated adjacency: %v", out)
	}
}

func TestDistancesFromLine(t *testing.T) {
	g := NewBuilder(5, false)
	for u := 0; u+1 < 5; u++ {
		g.MustAddEdge(NodeID(u), NodeID(u+1))
	}
	dist := g.Freeze().DistancesFrom(0)
	for i, d := range dist {
		if d != i {
			t.Errorf("dist[%d] = %d, want %d", i, d, i)
		}
	}
}

func TestDistancesUnreachable(t *testing.T) {
	g := NewBuilder(3, true)
	g.MustAddEdge(0, 1)
	dist := g.Freeze().DistancesFrom(0)
	if dist[2] != -1 {
		t.Fatalf("node 2 should be unreachable, got dist %d", dist[2])
	}
}

func TestNewDualValidation(t *testing.T) {
	g := NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	gp := NewBuilder(3, false)
	gp.MustAddEdge(0, 1) // missing (1,2): G not subgraph

	if _, err := NewDual(g, gp, 0); !errors.Is(err, ErrNotSubgraph) {
		t.Fatalf("want ErrNotSubgraph, got %v", err)
	}

	gp.MustAddEdge(1, 2)
	if _, err := NewDual(g, gp, 0); err != nil {
		t.Fatalf("valid dual rejected: %v", err)
	}

	if _, err := NewDual(g, gp, 7); !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource, got %v", err)
	}

	small := NewBuilder(1, false)
	if _, err := NewDual(small, small, 0); !errors.Is(err, ErrTooSmall) {
		t.Fatalf("want ErrTooSmall, got %v", err)
	}

	other := NewBuilder(4, false)
	if _, err := NewDual(g, other, 0); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("want ErrSizeMismatch, got %v", err)
	}

	disconnected := NewBuilder(3, false)
	disconnected.MustAddEdge(0, 1)
	gpd := disconnected.Clone()
	gpd.MustAddEdge(1, 2)
	if _, err := NewDual(disconnected, gpd, 0); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
}

// TestSubtractReportsFirstMissingArc pins the subgraph error to the first
// reliable arc in (from, to) order that G' lacks, both when the offending
// row has no more G arcs than G' arcs (found by the mark-and-compact pass)
// and when it has more (found by the degree pre-pass).
func TestSubtractReportsFirstMissingArc(t *testing.T) {
	build := func(n int, arcs [][2]NodeID) *Graph {
		b := NewBuilder(n, true)
		for _, a := range arcs {
			b.MustAddEdge(a[0], a[1])
		}
		return b.Freeze()
	}
	cases := []struct {
		name  string
		g, gp [][2]NodeID
		want  string
	}{
		{"same-degree", [][2]NodeID{{0, 1}, {0, 3}}, [][2]NodeID{{0, 1}, {0, 2}, {0, 4}}, "edge (0,3)"},
		{"wider-g-row", [][2]NodeID{{2, 5}, {2, 6}}, [][2]NodeID{{2, 5}}, "edge (2,6)"},
		{"earlier-row-first", [][2]NodeID{{0, 3}, {2, 5}, {2, 6}}, [][2]NodeID{{0, 4}, {2, 5}}, "edge (0,3)"},
		{"smallest-arc-first", [][2]NodeID{{1, 2}, {1, 4}}, [][2]NodeID{{1, 3}, {1, 5}}, "edge (1,2)"},
	}
	for _, c := range cases {
		_, err := subtract(build(7, c.gp), build(7, c.g))
		if !errors.Is(err, ErrNotSubgraph) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want ErrNotSubgraph naming %s", c.name, err, c.want)
		}
	}
}

func TestUnreliableOutComputed(t *testing.T) {
	g := NewBuilder(3, false)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	gp := g.Clone()
	gp.MustAddEdge(0, 2)
	d, err := NewDual(g, gp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.UnreliableOut(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("UnreliableOut(0) = %v, want [2]", got)
	}
	if got := d.UnreliableOut(1); len(got) != 0 {
		t.Fatalf("UnreliableOut(1) = %v, want empty", got)
	}
	if d.Classical() {
		t.Fatal("dual with extra G' edge must not be classical")
	}
}

func TestClassicalDual(t *testing.T) {
	d, err := Line(6)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Classical() {
		t.Fatal("Line must be classical")
	}
	if d.Eccentricity() != 5 {
		t.Fatalf("line eccentricity = %d, want 5", d.Eccentricity())
	}
}

func TestCliqueBridgeShape(t *testing.T) {
	n := 8
	d, err := CliqueBridge(n)
	if err != nil {
		t.Fatal(err)
	}
	r := ReceiverNode(n)
	if got := d.ReliableOut(r); len(got) != 1 || got[0] != BridgeNode {
		t.Fatalf("receiver reliable neighbours = %v, want [bridge]", got)
	}
	// Clique: every node in C has n-2 reliable neighbours except the bridge.
	for u := 0; u < n-1; u++ {
		want := n - 2
		if NodeID(u) == BridgeNode {
			want = n - 1
		}
		if got := len(d.ReliableOut(NodeID(u))); got != want {
			t.Errorf("node %d reliable degree = %d, want %d", u, got, want)
		}
	}
	// G' complete: every node has n-1 out-neighbours in total.
	for u := 0; u < n; u++ {
		total := len(d.ReliableOut(NodeID(u))) + len(d.UnreliableOut(NodeID(u)))
		if total != n-1 {
			t.Errorf("node %d total degree = %d, want %d", u, total, n-1)
		}
	}
	if d.Eccentricity() != 2 {
		t.Fatalf("clique-bridge eccentricity = %d, want 2", d.Eccentricity())
	}
}

func TestCliqueBridgeTooSmall(t *testing.T) {
	if _, err := CliqueBridge(2); err == nil {
		t.Fatal("expected error for n=2")
	}
}

func TestCompleteLayeredShape(t *testing.T) {
	n := 9
	d, err := CompleteLayered(n)
	if err != nil {
		t.Fatal(err)
	}
	// Source connects exactly to layer 1.
	if got := d.ReliableOut(0); len(got) != 2 {
		t.Fatalf("source reliable neighbours = %v, want layer 1 (2 nodes)", got)
	}
	// Distance of layer k nodes is k.
	dist := d.G().DistancesFrom(0)
	for v := 1; v < n; v++ {
		if dist[v] != Layer(NodeID(v)) {
			t.Errorf("dist[%d] = %d, want layer %d", v, dist[v], Layer(NodeID(v)))
		}
	}
	// G' complete.
	for u := 0; u < n; u++ {
		total := len(d.ReliableOut(NodeID(u))) + len(d.UnreliableOut(NodeID(u)))
		if total != n-1 {
			t.Errorf("node %d total degree = %d, want %d", u, total, n-1)
		}
	}
}

// TestCompleteBuilderSizedOnce: the complete-graph builder behind the dense
// topologies' G' holds exactly its n(n-1) arcs in a log that never regrew.
func TestCompleteBuilderSizedOnce(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64} {
		b := completeBuilder(n)
		if len(b.arcs) != n*(n-1) || cap(b.arcs) != n*(n-1) {
			t.Fatalf("n=%d: arc log len %d cap %d, want both %d", n, len(b.arcs), cap(b.arcs), n*(n-1))
		}
		g := b.Freeze()
		for u := 0; u < n; u++ {
			if got := g.OutDegree(NodeID(u)); got != n-1 {
				t.Fatalf("n=%d: node %d degree %d, want %d", n, u, got, n-1)
			}
		}
	}
}

func TestCompleteLayeredRejectsEven(t *testing.T) {
	if _, err := CompleteLayered(8); err == nil {
		t.Fatal("expected error for even n")
	}
	if _, err := CompleteLayered(3); err == nil {
		t.Fatal("expected error for n=3")
	}
}

func TestLayerIndices(t *testing.T) {
	cases := []struct {
		v    NodeID
		want int
	}{{0, 0}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {7, 4}, {8, 4}}
	for _, c := range cases {
		if got := Layer(c.v); got != c.want {
			t.Errorf("Layer(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLayeredRandomShape(t *testing.T) {
	d, err := LayeredRandom([]int{3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 9 {
		t.Fatalf("n = %d, want 9", d.N())
	}
	dist := d.G().DistancesFrom(0)
	wantDist := []int{0, 1, 1, 1, 2, 3, 3, 3, 3}
	for v, w := range wantDist {
		if dist[v] != w {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], w)
		}
	}
}

func TestLayeredRandomRejectsEmptyLayer(t *testing.T) {
	if _, err := LayeredRandom([]int{2, 0, 1}); err == nil {
		t.Fatal("expected error for empty layer")
	}
}

func TestGridShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, err := Grid(4, 5, 2, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 20 {
		t.Fatalf("n = %d, want 20", d.N())
	}
	// Interior node has reliable degree 4.
	if got := len(d.ReliableOut(NodeID(1*5 + 2))); got != 4 {
		t.Fatalf("interior reliable degree = %d, want 4", got)
	}
}

func TestGridValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Grid(1, 1, 1, 0.5, rng); err == nil {
		t.Fatal("expected error for 1x1 grid")
	}
	if _, err := Grid(2, 2, 0, 0.5, rng); err == nil {
		t.Fatal("expected error for reach 0")
	}
}

func TestDirectedLayered(t *testing.T) {
	d, err := DirectedLayered([]int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !d.G().Directed() {
		t.Fatal("graph should be directed")
	}
	// Layer 2 nodes have no outgoing edges.
	for v := 3; v < 6; v++ {
		if len(d.ReliableOut(NodeID(v))) != 0 || len(d.UnreliableOut(NodeID(v))) != 0 {
			t.Errorf("sink node %d has outgoing edges", v)
		}
	}
	// Source has unreliable shortcuts to layer 2.
	if got := len(d.UnreliableOut(0)); got != 3 {
		t.Fatalf("source unreliable out = %d, want 3", got)
	}
}

func TestBinaryTree(t *testing.T) {
	d, err := BinaryTree(7)
	if err != nil {
		t.Fatal(err)
	}
	if d.Eccentricity() != 2 {
		t.Fatalf("depth of 7-node complete binary tree = %d, want 2", d.Eccentricity())
	}
}

func TestGeometricValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := Geometric(10, 0.5, 0.2, rng); err == nil {
		t.Fatal("expected error when rUnreliable < rReliable")
	}
	if _, err := Geometric(1, 0.1, 0.2, rng); err == nil {
		t.Fatal("expected error for n=1")
	}
}

// propertyDualInvariants checks the invariants every generator must satisfy.
func propertyDualInvariants(t *testing.T, d *Dual) {
	t.Helper()
	n := d.N()
	for u := 0; u < n; u++ {
		seen := make(map[NodeID]bool)
		for _, v := range d.ReliableOut(NodeID(u)) {
			if !d.GPrime().HasEdge(NodeID(u), v) {
				t.Fatalf("reliable edge (%d,%d) missing from G'", u, v)
			}
			if seen[v] {
				t.Fatalf("duplicate neighbour %d of %d", v, u)
			}
			seen[v] = true
		}
		for _, v := range d.UnreliableOut(NodeID(u)) {
			if d.G().HasEdge(NodeID(u), v) {
				t.Fatalf("unreliable list contains reliable edge (%d,%d)", u, v)
			}
			if seen[v] {
				t.Fatalf("duplicate neighbour %d of %d", v, u)
			}
			seen[v] = true
		}
	}
	for v, dist := range d.G().DistancesFrom(d.Source()) {
		if dist < 0 {
			t.Fatalf("node %d unreachable from source", v)
		}
	}
}

func TestGeneratorsSatisfyDualInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	duals := map[string]*Dual{}
	add := func(name string, d *Dual, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		duals[name] = d
	}
	d, err := CliqueBridge(11)
	add("clique-bridge", d, err)
	d, err = CompleteLayered(13)
	add("complete-layered", d, err)
	d, err = Line(9)
	add("line", d, err)
	d, err = Star(9)
	add("star", d, err)
	d, err = Complete(9)
	add("complete", d, err)
	d, err = Grid(5, 5, 2, 0.4, rng)
	add("grid", d, err)
	d, err = RandomDual(25, 0.1, 0.3, rng)
	add("random", d, err)
	d, err = Geometric(25, 0.25, 0.6, rng)
	add("geometric", d, err)
	d, err = BinaryTree(15)
	add("tree", d, err)
	d, err = DirectedLayered([]int{2, 3, 2})
	add("directed-layered", d, err)
	d, err = LayeredRandom([]int{2, 2, 2})
	add("layered-random", d, err)

	for name, dd := range duals {
		t.Run(name, func(t *testing.T) { propertyDualInvariants(t, dd) })
	}
}

func TestRandomDualProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, pr, pu float64) bool {
		n := 2 + int(nRaw%30)
		pr = math01(pr)
		pu = math01(pu)
		rng := rand.New(rand.NewSource(seed))
		d, err := RandomDual(n, pr, pu, rng)
		if err != nil {
			return false
		}
		// E ⊆ E' and connectivity hold by construction; re-validate.
		_, err = NewDualGraphs(d.G(), d.GPrime(), d.Source())
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// math01 maps an arbitrary float into [0,1).
func math01(x float64) float64 {
	if x != x || x < 0 { // NaN or negative
		x = -x
	}
	if x != x {
		return 0
	}
	for x >= 1 {
		x /= 2
	}
	if x < 0 || x != x {
		return 0
	}
	return x
}

func TestTranspose(t *testing.T) {
	d, err := DirectedLayered([]int{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	g := d.G()
	tr := g.Transpose()
	if !tr.Directed() || tr.N() != g.N() || tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose shape mismatch")
	}
	for u := 0; u < g.N(); u++ {
		row := tr.Out(NodeID(u))
		for i, v := range row {
			if i > 0 && row[i-1] >= v {
				t.Fatalf("transpose row %d not strictly sorted", u)
			}
			if !g.HasEdge(v, NodeID(u)) {
				t.Fatalf("transpose has %d->%d but base lacks %d->%d", u, v, v, u)
			}
		}
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(NodeID(u)) {
			if !tr.HasEdge(v, NodeID(u)) {
				t.Fatalf("base has %d->%d but transpose lacks %d->%d", u, v, v, u)
			}
		}
	}
	ub := NewBuilder(3, false)
	ub.MustAddEdge(0, 1)
	ub.MustAddEdge(1, 2)
	und := ub.Freeze()
	if und.Transpose() != und {
		t.Fatal("undirected transpose should return the receiver")
	}
}
