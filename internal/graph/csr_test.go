package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestEdgeIDContract pins the adversary-facing EdgeID index: ids are dense,
// stable, ordered by (from, to), and UnreliableEdges/UnreliableEdge/
// UnreliableEdgeID agree with each other and with the row views.
func TestEdgeIDContract(t *testing.T) {
	d, err := Grid(5, 5, 2, 0.5, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	total := d.NumUnreliable()
	if total == 0 {
		t.Fatal("test network must have unreliable edges")
	}
	next := EdgeID(0)
	for u := 0; u < d.N(); u++ {
		base, targets := d.UnreliableEdges(NodeID(u))
		if base != next {
			t.Fatalf("node %d: base = %d, want %d (ids must be dense in from-order)", u, base, next)
		}
		row := d.UnreliableOut(NodeID(u))
		if len(row) != len(targets) {
			t.Fatalf("node %d: UnreliableEdges targets %v != UnreliableOut %v", u, targets, row)
		}
		for i, v := range targets {
			if v != row[i] {
				t.Fatalf("node %d: UnreliableEdges targets %v != UnreliableOut %v", u, targets, row)
			}
			if i > 0 && targets[i-1] >= v {
				t.Fatalf("node %d: targets not strictly ascending: %v", u, targets)
			}
			id := base + EdgeID(i)
			from, to := d.UnreliableEdge(id)
			if from != NodeID(u) || to != v {
				t.Fatalf("UnreliableEdge(%d) = (%d,%d), want (%d,%d)", id, from, to, u, v)
			}
			got, ok := d.UnreliableEdgeID(NodeID(u), v)
			if !ok || got != id {
				t.Fatalf("UnreliableEdgeID(%d,%d) = (%d,%v), want (%d,true)", u, v, got, ok, id)
			}
		}
		next = base + EdgeID(len(targets))
	}
	if int(next) != total {
		t.Fatalf("dense id count %d != NumUnreliable %d", next, total)
	}
}

// TestHasUnreliableEdgeMatchesDefinition cross-checks the O(log d) fringe
// membership against the G/G' definition on every node pair.
func TestHasUnreliableEdgeMatchesDefinition(t *testing.T) {
	d, err := RandomDual(30, 0.15, 0.4, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < d.N(); u++ {
		for v := 0; v < d.N(); v++ {
			want := d.GPrime().HasEdge(NodeID(u), NodeID(v)) && !d.G().HasEdge(NodeID(u), NodeID(v))
			if got := d.HasUnreliableEdge(NodeID(u), NodeID(v)); got != want {
				t.Fatalf("HasUnreliableEdge(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
	if _, ok := d.UnreliableEdgeID(-1, 0); ok {
		t.Fatal("negative node must not resolve to an edge id")
	}
	if _, ok := d.UnreliableEdgeID(NodeID(d.N()), 0); ok {
		t.Fatal("out-of-range node must not resolve to an edge id")
	}
}

// TestRowKindsMatchDefinition reads every row kind of Duals with cores
// through Row, on undirected and directed networks, against G, the fringe
// and their transposes built here: an in-row of u lists the w with an arc
// (w, u), ascending. A directed Dual builds each transpose once.
func TestRowKindsMatchDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	undirected, err := RandomDual(30, 0.15, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	directed, err := randomDirectedDual(30, rng)
	if err != nil {
		t.Fatal(err)
	}
	layered, err := DirectedLayered([]int{3, 4, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dual{undirected, directed, layered} {
		gIn, fringeIn := d.G().Transpose(), d.fringe.Transpose()
		var buf []NodeID
		for u := NodeID(0); int(u) < d.N(); u++ {
			for k, want := range [][]NodeID{d.G().Out(u), d.fringe.Out(u), gIn.Out(u), fringeIn.Out(u)} {
				if got := d.Row(u, RowKind(k), &buf); !slices.Equal(got, want) {
					t.Fatalf("directed=%v: row kind %d of node %d = %v, want %v", d.Directed(), k, u, got, want)
				}
			}
		}
		if buf != nil {
			t.Fatal("Row wrote the buffer of a Dual with cores")
		}
		if d.Directed() && (d.rows(ReliableIn) != d.rows(ReliableIn) || d.rows(UnreliableIn) != d.rows(UnreliableIn)) {
			t.Fatal("a directed Dual rebuilt a transpose")
		}
	}
}

// TestInRowsConcurrent reads a directed Dual's in-rows from several
// goroutines at once, as concurrent trials sharing a network do: whichever
// reader builds a transpose first, every reader sees the same rows.
func TestInRowsConcurrent(t *testing.T) {
	d, err := randomDirectedDual(60, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	gIn, fringeIn := d.G().Transpose(), d.fringe.Transpose()
	const readers = 8
	bad := make([]error, readers)
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []NodeID
			for u := NodeID(0); int(u) < d.N(); u++ {
				k, want := ReliableIn, gIn.Out(u)
				if (int(u)+i)%2 == 1 {
					k, want = UnreliableIn, fringeIn.Out(u)
				}
				if got := d.Row(u, k, &buf); !slices.Equal(got, want) {
					bad[i] = fmt.Errorf("row kind %d of node %d = %v, want %v", k, u, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range bad {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFrozenRowsSortedAndDeduplicated(t *testing.T) {
	b := NewBuilder(6, true)
	b.MustAddEdge(0, 3)
	b.MustAddEdge(0, 1)
	b.MustAddEdge(0, 3) // duplicate
	b.MustAddEdge(0, 2)
	b.MustAddEdge(4, 5)
	g := b.Freeze()
	row := g.Out(0)
	want := []NodeID{1, 2, 3}
	if len(row) != len(want) {
		t.Fatalf("row = %v, want %v", row, want)
	}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("row = %v, want %v", row, want)
		}
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.OutDegree(0) != 3 || g.OutDegree(1) != 0 || g.OutDegree(4) != 1 {
		t.Fatal("OutDegree mismatch")
	}
}

func TestBuilderUsableAfterFreeze(t *testing.T) {
	b := NewBuilder(4, false)
	b.MustAddEdge(0, 1)
	g1 := b.Freeze()
	b.MustAddEdge(1, 2)
	g2 := b.Freeze()
	if g1.NumEdges() != 2 {
		t.Fatalf("first freeze mutated retroactively: %d arcs", g1.NumEdges())
	}
	if g2.NumEdges() != 4 {
		t.Fatalf("second freeze = %d arcs, want 4", g2.NumEdges())
	}
}

func TestPreferentialAttachmentShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, err := PreferentialAttachment(300, 3, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 300 {
		t.Fatalf("n = %d, want 300", d.N())
	}
	// Every node beyond the seed attaches m=3 links (reliable + unreliable).
	arcs := d.G().NumEdges() + d.NumUnreliable()
	wantArcs := 2 * (1 + 2 + 3*297) // undirected: both orientations
	if arcs != wantArcs {
		t.Fatalf("total arcs = %d, want %d", arcs, wantArcs)
	}
	if d.NumUnreliable() == 0 {
		t.Fatal("unreliable fraction 0.5 must produce unreliable links")
	}
	// Scale-free-ness (weak check): some hub far above the mean degree.
	if delta := d.GPrime().MaxInDegree(); delta < 10 {
		t.Fatalf("max degree %d suspiciously low for preferential attachment", delta)
	}
	propertyDualInvariants(t, d)
}

func TestPreferentialAttachmentAllUnreliableStaysConnected(t *testing.T) {
	// Even at fraction 1.0 each node's first link is reliable, so the
	// network always validates (source reaches everyone through G).
	d, err := PreferentialAttachment(120, 2, 1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	propertyDualInvariants(t, d)
	if d.NumUnreliable() == 0 {
		t.Fatal("fraction 1.0 must produce unreliable links")
	}
}

func TestPreferentialAttachmentValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := PreferentialAttachment(1, 2, 0.5, rng); err == nil {
		t.Fatal("expected error for n=1")
	}
	if _, err := PreferentialAttachment(10, 0, 0.5, rng); err == nil {
		t.Fatal("expected error for m=0")
	}
	if _, err := PreferentialAttachment(10, 2, 1.5, rng); err == nil {
		t.Fatal("expected error for fraction > 1")
	}
}
