package sim

import (
	"testing"

	"dualgraph/internal/graph"
)

// TestEnsureCapacityNoAliasingAcrossSwaps is the epoch-boundary buffer
// invariant: after swapping to an epoch with larger G' in-degrees the
// unreliable-delivery rows must be rebuilt (an old row would overflow its
// slot in the flat backing array), after which filling every row to its new
// bound keeps all rows disjoint — no delivery-list aliasing. Swapping to a
// smaller epoch must keep the existing buffers (the lazy half of the resize).
func TestEnsureCapacityNoAliasingAcrossSwaps(t *testing.T) {
	const n = 9
	small, err := graph.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	big, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}

	buf := newRunBuffers(small)
	wasDense := buf.dense
	for v := 0; v < n; v++ {
		if cap(buf.unrel[v]) >= n-1 {
			t.Fatalf("line row %d capacity %d already fits the complete graph; test setup broken", v, cap(buf.unrel[v]))
		}
	}
	// Dirty the buffers like a round would, then clear (the loop clears
	// before any swap).
	sent := make([]bool, n)
	buf.addUnrel(0, 1)
	buf.addUnrel(2, 1)
	buf.clearRound(sent)

	// Grow swap: line -> complete. Every row must now hold in-degree = n-1
	// unreliable deliveries.
	buf.ensureCapacity(big)
	if buf.dense != wasDense {
		t.Fatal("rebuild changed the per-run delivery mode")
	}
	for v := 0; v < n; v++ {
		if got := cap(buf.unrel[v]); got < n-1 {
			t.Fatalf("after grow swap, row %d capacity %d < %d", v, got, n-1)
		}
	}
	// Fill every row to its model bound and verify no row sees another's
	// writes.
	for v := 0; v < n; v++ {
		for s := 0; s < n-1; s++ {
			buf.addUnrel(graph.NodeID(v), graph.NodeID(v*100+s)) // sentinel unique per (row, slot)
		}
	}
	for v := 0; v < n; v++ {
		row := buf.unrel[v]
		if len(row) != n-1 {
			t.Fatalf("row %d has %d entries, want %d", v, len(row), n-1)
		}
		for s, got := range row {
			if want := graph.NodeID(v*100 + s); got != want {
				t.Fatalf("row %d slot %d = %d, want %d: rows alias after swap", v, s, got, want)
			}
		}
	}
	buf.clearRound(sent)

	// Shrink swap: complete -> line. Capacities suffice, so the buffers are
	// kept as-is (lazy: no rebuild).
	bigCaps := make([]int, n)
	for v := range bigCaps {
		bigCaps[v] = cap(buf.unrel[v])
	}
	buf.ensureCapacity(small)
	for v := 0; v < n; v++ {
		if cap(buf.unrel[v]) != bigCaps[v] {
			t.Fatalf("shrink swap rebuilt row %d (cap %d -> %d); resize should be lazy",
				v, bigCaps[v], cap(buf.unrel[v]))
		}
	}
	if buf.sizedFor != small.GPrime() {
		t.Fatal("keep path did not record the new G' core")
	}

	// Shared-G'-core fast path (fade epochs): a dual aliasing the same
	// frozen G' skips the scan — observable as sizedFor staying put even
	// though the Dual differs.
	faded, err := graph.NewDualGraphs(small.G(), small.GPrime(), small.Source())
	if err != nil {
		t.Fatal(err)
	}
	buf.ensureCapacity(faded)
	if buf.sizedFor != small.GPrime() {
		t.Fatal("shared-core fast path re-sized the buffers")
	}
}

// sparseFixture returns a dual large and thin enough to take the sparse
// delivery path.
func sparseFixture(t *testing.T) *graph.Dual {
	t.Helper()
	d, err := graph.Line(80)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeliveryModeChoice pins the per-run mode decision: small dense
// networks go word-parallel, large or thin ones stay per-edge.
func TestDeliveryModeChoice(t *testing.T) {
	dense, err := graph.CliqueBridge(65)
	if err != nil {
		t.Fatal(err)
	}
	if b := newRunBuffers(dense); !b.dense {
		t.Error("clique-bridge(65) should use the dense mask mode")
	}
	if b := newRunBuffers(sparseFixture(t)); b.dense {
		t.Error("line(80) should use the sparse bitset mode")
	}
}

// TestReachBitsetsCountClasses exercises the sparse-mode count-class
// transitions that replaced per-node sender lists: one delivery makes a node
// reached with a recoverable single sender, a second collides it, and
// clearRound returns the bitsets (and only the touched words) to zero.
func TestReachBitsetsCountClasses(t *testing.T) {
	d := sparseFixture(t)
	buf := newRunBuffers(d)
	sent := make([]bool, d.N())

	const v, s1, s2 = 70, 3, 5 // v in the second word: both words must reset
	buf.addReach(v, s1)
	if !buf.reached(v) || buf.collided(v) {
		t.Fatal("one delivery: want reached, not collided")
	}
	if got := buf.singleReacher(v); got != s1 {
		t.Fatalf("singleReacher = %d, want %d", got, s1)
	}
	buf.addReach(v, s2)
	if !buf.reached(v) || !buf.collided(v) {
		t.Fatal("two deliveries: want reached and collided")
	}
	buf.addUnrel(9, s1)
	if !buf.reached(9) || buf.collided(9) {
		t.Fatal("one unreliable delivery: want reached, not collided")
	}
	if got := buf.singleReacher(9); got != s1 {
		t.Fatalf("unreliable singleReacher = %d, want %d", got, s1)
	}
	// A duplicate unreliable delivery along the same arc is a collision (the
	// legacy list was [s, s], length two).
	buf.addUnrel(9, s1)
	if !buf.collided(9) {
		t.Fatal("duplicate unreliable delivery must collide")
	}

	buf.clearRound(sent)
	for w, x := range buf.reach1 {
		if x != 0 || buf.reach2[w] != 0 {
			t.Fatalf("word %d not cleared: reach1=%x reach2=%x", w, x, buf.reach2[w])
		}
	}
	if len(buf.touchedW) != 0 || len(buf.unrelTouched) != 0 {
		t.Fatal("touched lists not truncated")
	}
	if len(buf.unrel[9]) != 0 {
		t.Fatal("unrel row not truncated")
	}
}

// TestClearRoundUnmarksOnlySenders pins the O(senders) sent-clear: clearRound
// must unset exactly the previous round's sender flags (an O(n) wipe per
// round is what it replaced) and truncate the sender list.
func TestClearRoundUnmarksOnlySenders(t *testing.T) {
	d := sparseFixture(t)
	n := d.N()
	buf := newRunBuffers(d)
	sent := make([]bool, n)
	for _, s := range []graph.NodeID{2, 41, 77} {
		sent[s] = true
		buf.senders = append(buf.senders, s)
	}
	buf.clearRound(sent)
	for i, f := range sent {
		if f {
			t.Fatalf("sent[%d] still set after clearRound", i)
		}
	}
	if len(buf.senders) != 0 {
		t.Fatal("sender list not truncated")
	}
}

// TestMaterializeReachingOrder pins the lazy CR4 list order against the
// legacy per-edge append order in both modes: reliable senders ascending
// (the reliable pass visited senders in ascending node order), then
// unreliable deliveries in sink-add order.
func TestMaterializeReachingOrder(t *testing.T) {
	check := func(t *testing.T, d *graph.Dual, senders []graph.NodeID, target graph.NodeID) {
		t.Helper()
		buf := newRunBuffers(d)
		if !buf.dense {
			buf.ensureInRows(d.G())
		}
		sent := make([]bool, d.N())
		want := []graph.NodeID{}
		for _, s := range senders {
			sent[s] = true
			buf.senders = append(buf.senders, s)
			if buf.dense {
				buf.deliverDense(s)
			} else {
				buf.addReach(s, s)
				for _, v := range d.ReliableOut(s) {
					buf.addReach(v, s)
				}
			}
			if d.G().HasEdge(s, target) {
				want = append(want, s)
			}
		}
		// Two unreliable deliveries out of ascending-sender order: they must
		// come last, in add order.
		unrel := []graph.NodeID{}
		for _, s := range senders {
			if d.HasUnreliableEdge(s, target) {
				unrel = append(unrel, s)
			}
		}
		for i := len(unrel) - 1; i >= 0; i-- {
			buf.addUnrel(target, unrel[i])
			want = append(want, unrel[i])
		}
		got := buf.materializeReaching(target, sent)
		if len(got) != len(want) {
			t.Fatalf("materialized %v, want %v", got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("materialized %v, want %v", got, want)
			}
		}
	}

	dense, err := graph.CliqueBridge(17)
	if err != nil {
		t.Fatal(err)
	}
	// Target 3 is a non-sender inside the clique; senders reach it reliably.
	check(t, dense, []graph.NodeID{1, 4, 9}, 3)

	sparse := sparseFixture(t)
	// Line: node 10's reliable in-neighbours are 9 and 11.
	check(t, sparse, []graph.NodeID{9, 11}, 10)
}

// TestEnsureCapacityReusesInDegreeScratch: a swap to a new G' core whose
// in-degrees all fit refills the per-run unrelBound scratch in place, and a
// swap where a single row outgrows its capacity rebuilds the buffers with
// that row (and every other) sized to the new bound.
func TestEnsureCapacityReusesInDegreeScratch(t *testing.T) {
	const n = 12
	// A directed path backbone plus unreliable arcs from the given sources
	// into node 9: only row 9's in-degree depends on the source list.
	into9 := func(srcs ...graph.NodeID) *graph.Dual {
		g := graph.NewBuilder(n, true)
		for u := 0; u+1 < n; u++ {
			g.MustAddEdge(graph.NodeID(u), graph.NodeID(u+1))
		}
		gp := g.Clone()
		for _, u := range srcs {
			gp.MustAddEdge(u, 9)
		}
		return graph.MustDual(g, gp, 0)
	}
	first := into9(2, 3, 4)
	fits := into9(2, 5) // a different G' core, every in-degree within first's
	grows := into9(1, 2, 3, 4, 5, 6)
	buf := newRunBuffers(first)
	scratch := &buf.indeg[0]
	buf.ensureCapacity(fits)
	if &buf.indeg[0] != scratch {
		t.Fatal("a fitting swap reallocated the in-degree scratch")
	}
	if buf.sizedFor != fits.GPrime() {
		t.Fatal("a fitting swap did not record the new G' core")
	}
	inFits := fits.GPrime().Transpose()
	for v, c := range buf.indeg {
		if want := inFits.OutDegree(graph.NodeID(v)); int(c) != want {
			t.Fatalf("scratch in-degree of %d = %d, want %d", v, c, want)
		}
	}

	// Only row 9 outgrows its capacity (in-degree 4 -> 7).
	inGrows := grows.GPrime().Transpose()
	overflow := 0
	for v := 0; v < n; v++ {
		if inGrows.OutDegree(graph.NodeID(v)) > cap(buf.unrel[v]) {
			overflow++
		}
	}
	if overflow != 1 {
		t.Fatalf("fixture overflows %d rows, want exactly 1", overflow)
	}
	buf.ensureCapacity(grows)
	if buf.sizedFor != grows.GPrime() {
		t.Fatal("the overflow rebuild did not size against the new G' core")
	}
	for v := 0; v < n; v++ {
		if want := inGrows.OutDegree(graph.NodeID(v)); cap(buf.unrel[v]) < want {
			t.Fatalf("after the overflow rebuild row %d has capacity %d < %d", v, cap(buf.unrel[v]), want)
		}
	}
}
