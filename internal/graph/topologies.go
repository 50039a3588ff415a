package graph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
)

// Classical wraps a single graph g as the dual network (g, g): every link is
// reliable, which is exactly the classical static radio model. The frozen
// CSR core is shared between G and G'.
func Classical(g *Builder, source NodeID) (*Dual, error) {
	fg := g.Freeze()
	return NewDualGraphs(fg, fg, source)
}

// Complete returns the classical complete graph on n nodes (single hop).
func Complete(n int) (*Dual, error) {
	return Classical(completeBuilder(n), 0)
}

// completeBuilder returns a builder holding every edge of the complete graph
// on n nodes, the G' of the dense topologies. Its arc log is sized up front:
// a build allocates the n(n-1) arcs once instead of regrowing the log.
func completeBuilder(n int) *Builder {
	g := NewBuilder(n, false)
	g.arcs = make([]uint64, 0, max(0, n*(n-1)))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(NodeID(u), NodeID(v))
		}
	}
	return g
}

// Line returns the classical path 0-1-...-(n-1) with the source at node 0.
func Line(n int) (*Dual, error) {
	g := NewBuilder(n, false)
	for u := 0; u+1 < n; u++ {
		g.MustAddEdge(NodeID(u), NodeID(u+1))
	}
	return Classical(g, 0)
}

// Star returns the classical star with the source at the hub (node 0).
func Star(n int) (*Dual, error) {
	g := NewBuilder(n, false)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, NodeID(v))
	}
	return Classical(g, 0)
}

// CliqueBridge builds the Theorem 2 network for n >= 3: G is an (n-1)-node
// clique C containing the source s (node 0) and a bridge b (node 1), plus a
// receiver r (node n-1) attached only to b. G' is the complete graph.
// The network is 2-broadcastable (s sends, then b sends) yet deterministic
// broadcast against the Theorem 2 adversary needs more than n-3 rounds.
func CliqueBridge(n int) (*Dual, error) {
	if n < 3 {
		return nil, fmt.Errorf("clique-bridge needs n >= 3, got %d", n)
	}
	g := NewBuilder(n, false)
	g.arcs = make([]uint64, 0, (n-1)*(n-2)+2) // the clique's arcs and the bridge edge
	for u := 0; u < n-1; u++ {
		for v := u + 1; v < n-1; v++ {
			g.MustAddEdge(NodeID(u), NodeID(v))
		}
	}
	g.MustAddEdge(BridgeNode, NodeID(n-1))
	gp := completeBuilder(n)
	return NewDual(g, gp, 0)
}

// Node roles in the CliqueBridge network.
const (
	// BridgeNode is the clique node adjacent to the receiver.
	BridgeNode NodeID = 1
)

// ReceiverNode returns the receiver node of an n-node CliqueBridge network.
func ReceiverNode(n int) NodeID { return NodeID(n - 1) }

// CompleteLayered builds the Theorem 12 network. Node 0 is the source
// (layer L0); layer Lk = {2k-1, 2k} for k = 1..(n-1)/2. G connects the
// source to L1, all nodes within a layer, and all nodes in consecutive
// layers; G' is the complete graph. n must be odd and at least 5 so that
// the layers pair up exactly. It is LayeredRandom with every layer of size 2.
func CompleteLayered(n int) (*Dual, error) {
	if n < 5 || n%2 == 0 {
		return nil, fmt.Errorf("complete-layered needs odd n >= 5, got %d", n)
	}
	sizes := make([]int, (n-1)/2)
	for k := range sizes {
		sizes[k] = 2
	}
	return LayeredRandom(sizes)
}

// splitLayers numbers the nodes layer by layer: the source alone in layer 0,
// then consecutive runs of the given sizes. It returns the layers and the
// node count.
func splitLayers(layerSizes []int) ([][]NodeID, int, error) {
	layers := [][]NodeID{{0}}
	n := 1
	for _, s := range layerSizes {
		if s < 1 {
			return nil, 0, fmt.Errorf("layer size must be positive, got %d", s)
		}
		layer := make([]NodeID, s)
		for i := range layer {
			layer[i] = NodeID(n + i)
		}
		layers = append(layers, layer)
		n += s
	}
	return layers, n, nil
}

// LayeredRandom builds a dual graph made of consecutive fully connected
// layers with the given sizes (source alone in layer 0); G' is complete.
// This is the layered-network shape used in the Section 7 intuition for
// Harmonic Broadcast.
func LayeredRandom(layerSizes []int) (*Dual, error) {
	layers, n, err := splitLayers(layerSizes)
	if err != nil {
		return nil, err
	}
	g := NewBuilder(n, false)
	for k := 1; k < len(layers); k++ {
		cur := layers[k]
		for i, u := range cur {
			for _, v := range cur[i+1:] {
				g.MustAddEdge(u, v)
			}
		}
		for _, u := range layers[k-1] {
			for _, v := range cur {
				g.MustAddEdge(u, v)
			}
		}
	}
	return NewDual(g, completeBuilder(n), 0)
}

// Grid builds a rows x cols lattice whose lattice edges are reliable.
// Unreliable edges connect nodes at Chebyshev distance <= reach (the
// "gray zone" of longer, flaky radio links); each such candidate edge is
// included independently with probability p using rng.
func Grid(rows, cols, reach int, p float64, rng *rand.Rand) (*Dual, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("grid needs at least 2 nodes, got %dx%d", rows, cols)
	}
	if reach < 1 {
		return nil, fmt.Errorf("grid reach must be >= 1, got %d", reach)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("grid probability %v outside [0,1]", p)
	}
	n := rows * cols
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	g := NewBuilder(n, false)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
		}
	}
	gp := g.Clone()
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for dr := -reach; dr <= reach; dr++ {
				for dc := -reach; dc <= reach; dc++ {
					r2, c2 := r+dr, c+dc
					if r2 < 0 || r2 >= rows || c2 < 0 || c2 >= cols {
						continue
					}
					u, v := id(r, c), id(r2, c2)
					// Lattice edges (the reliable layer) are exactly the
					// axis-aligned unit steps; everything else in the reach
					// window is a gray-zone candidate.
					if u >= v || abs(dr)+abs(dc) == 1 {
						continue
					}
					if rng.Float64() < p {
						gp.MustAddEdge(u, v)
					}
				}
			}
		}
	}
	return NewDual(g, gp, 0)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// RandomDual builds a random dual graph: G is a random connected graph
// (a path through a random permutation plus G(n, pReliable) edges) and
// G' adds each remaining pair independently with probability pUnreliable.
func RandomDual(n int, pReliable, pUnreliable float64, rng *rand.Rand) (*Dual, error) {
	if n < 2 {
		return nil, ErrTooSmall
	}
	if pReliable < 0 || pReliable > 1 || pUnreliable < 0 || pUnreliable > 1 {
		return nil, fmt.Errorf("random dual probabilities (%v, %v) outside [0,1]", pReliable, pUnreliable)
	}
	g := NewBuilder(n, false)
	perm := rng.Perm(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(NodeID(perm[i]), NodeID(perm[i+1]))
	}
	// addPairs draws one coin for every pair u < v outside have, in (u, v)
	// order, and adds the pair to b on success. A pass visits each pair once
	// and adds only the pair it visits, so have, b frozen before the pass,
	// answers membership as b would at the visit. Row u of have is marked in
	// a scratch array while u's pairs are drawn.
	inHave := make([]bool, n)
	addPairs := func(b *Builder, have *Graph, p float64) {
		for u := 0; u < n; u++ {
			row := have.Out(NodeID(u))
			for _, v := range row {
				inHave[v] = true
			}
			for v := u + 1; v < n; v++ {
				if !inHave[v] && rng.Float64() < p {
					b.MustAddEdge(NodeID(u), NodeID(v))
				}
			}
			for _, v := range row {
				inHave[v] = false
			}
		}
	}
	addPairs(g, g.Freeze(), pReliable)
	fg := g.Freeze()
	gp := g.Clone()
	addPairs(gp, fg, pUnreliable)
	return NewDualGraphs(fg, gp.Freeze(), 0)
}

// Geometric places n nodes uniformly at random in the unit square. Links
// shorter than rReliable are reliable, links shorter than rUnreliable are
// unreliable (the classic gray-zone picture: short links always work, longer
// ones only sometimes). A Hamiltonian path in placement order is added to G
// to guarantee source reachability, modelling a deployment with a known-good
// backbone.
//
// Candidate pairs are enumerated through a uniform cell grid of side
// >= rUnreliable, so construction costs O(n + p·log) for p pairs within
// radius instead of the quadratic all-pairs scan — a 100k-node deployment
// with local radii builds in well under a second. The edge set (and hence
// the frozen Dual) is identical to the historical all-pairs construction
// for the same rng, since positions consume the only random draws.
func Geometric(n int, rReliable, rUnreliable float64, rng *rand.Rand) (*Dual, error) {
	if n < 2 {
		return nil, ErrTooSmall
	}
	if !(rReliable >= 0) {
		return nil, fmt.Errorf("geometric rReliable must be >= 0, got %v", rReliable)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	return DualFromPositions(xs, ys, rReliable, rUnreliable, 0)
}

// DualFromPositions builds the geometric dual over explicit unit-square
// coordinates: links shorter than rReliable are reliable, links between
// rReliable and rUnreliable are unreliable, and a Hamiltonian path in index
// order is added to G so every node stays reachable from the source. It is
// the position-driven core shared by Geometric (random placement) and the
// waypoint mobility schedule (epoch-interpolated placement).
//
// G and the fringe are written directly, with no arc log and no sort: a
// counting sort buckets the nodes by grid cell, each candidate pair u < v in
// adjacent cells is classified once as reliable, fringe-only or neither, and
// symmetricCSR lays the classified pairs out so every row comes out
// ascending. E ⊆ E' holds by construction, since G' is G ∪ fringe, derived
// on first use; only the source's reachability is checked.
func DualFromPositions(xs, ys []float64, rReliable, rUnreliable float64, source NodeID) (*Dual, error) {
	s := geoPool.Get().(*geoScratch)
	defer geoPool.Put(s)
	return s.dual(xs, ys, rReliable, rUnreliable, source)
}

// geoScratch is the working memory of DualFromPositions: the cell
// bucketing, the classified pair lists, and a waypoint epoch's positions.
// It is pooled so successive epochs reuse it. None of it is ever published:
// every Dual gets freshly allocated CSR arrays, which concurrent readers and
// memoizing adversaries may hold for as long as they like.
type geoScratch struct {
	xs, ys    []float64 // a waypoint epoch's positions
	cell      []int32   // each node's cell
	cellStart []int32   // cell c holds members[cellStart[c]:cellStart[c+1]]
	scan      []int32   // per-cell cursor
	members   []NodeID  // the nodes in cell order, ascending within a cell
	px, py    []float64 // their coordinates
	// relUp/frUp list each node's partners v > u in G and in the fringe
	// (the path arc first in G), grouped by u through relOff/frOff.
	relOff, frOff []int32
	relUp, frUp   []NodeID
	cursor        []int32 // symmetricCSR's row cursors
}

var geoPool = sync.Pool{New: func() any { return new(geoScratch) }}

// resize returns buf with length n, reallocated only when it is too short.
// The contents are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// dual is DualFromPositions over the scratch s.
func (s *geoScratch) dual(xs, ys []float64, rReliable, rUnreliable float64, source NodeID) (*Dual, error) {
	n := len(xs)
	if n < 2 {
		return nil, ErrTooSmall
	}
	if len(ys) != n {
		return nil, fmt.Errorf("geometric positions: %d x coordinates but %d y coordinates", n, len(ys))
	}
	if math.IsNaN(rReliable) {
		return nil, errors.New("rReliable is NaN")
	}
	if !(rUnreliable >= rReliable) {
		return nil, fmt.Errorf("rUnreliable (%v) must be >= rReliable (%v)", rUnreliable, rReliable)
	}
	if source < 0 || int(source) >= n {
		return nil, ErrBadSource
	}

	// Bucket nodes into a side x side grid with cell length >= rUnreliable:
	// all pairs within the radius live in the same or an adjacent cell. The
	// side is capped at ~sqrt(n) so bucket memory stays O(n) even for tiny
	// radii.
	side := 1
	if rUnreliable > 0 {
		side = int(1 / rUnreliable)
	}
	if maxSide := int(math.Sqrt(float64(n))) + 1; side > maxSide {
		side = maxSide
	}
	if side < 1 {
		side = 1
	}
	cellOf := func(x float64) int {
		c := int(x * float64(side))
		if c >= side {
			c = side - 1
		}
		return c
	}
	// Counting sort by cell: members[cellStart[c]:cellStart[c+1]] are the
	// nodes of cell c, ascending, and px/py their coordinates in that order.
	cells := side * side
	s.cell, s.cellStart, s.scan = resize(s.cell, n), resize(s.cellStart, cells+1), resize(s.scan, cells)
	cell, cellStart, scan := s.cell, s.cellStart, s.scan
	clear(cellStart)
	for u := 0; u < n; u++ {
		c := cellOf(ys[u])*side + cellOf(xs[u])
		cell[u] = int32(c)
		cellStart[c+1]++
	}
	for c := 0; c < cells; c++ {
		cellStart[c+1] += cellStart[c]
	}
	s.members, s.px, s.py = resize(s.members, n), resize(s.px, n), resize(s.py, n)
	members, px, py := s.members, s.px, s.py
	copy(scan, cellStart[:cells])
	for u := 0; u < n; u++ {
		k := scan[cell[u]]
		members[k], px[k], py[k] = NodeID(u), xs[u], ys[u]
		scan[cell[u]]++
	}
	copy(scan, cellStart[:cells])

	inRel, outRel := sqBand(rReliable)
	inUnrel, outUnrel := sqBand(rUnreliable)
	s.relOff, s.frOff = resize(s.relOff, n+1), resize(s.frOff, n+1)
	relOff, frOff := s.relOff, s.frOff
	relOff[0], frOff[0] = 0, 0
	// The pair lists grow by doubling and stay pooled, so only the first
	// builds of a process pay for their growth.
	relUp, frUp := s.relUp[:cap(s.relUp)], s.frUp[:cap(s.frUp)]
	ri, fi := 0, 0
	for u := 0; u < n; u++ {
		// u has at most n-u partners v > u, the path arc included, and
		// every candidate is written at both cursors before the flags decide
		// which cursor keeps it: n-u free slots keep every write in bounds.
		if room := n - u; ri+room > len(relUp) || fi+room > len(frUp) {
			relUp, frUp = grow(relUp, ri, room), grow(frUp, fi, room)
		}
		// Nodes are visited in ascending order, so scan[c] has passed every
		// member of cell c below u: the members from scan[c] on are the
		// partners v > u, and u itself is the next member of its own cell.
		scan[cell[u]]++
		next := NodeID(u + 1)
		relUp[ri] = next
		ri += b2i(u+1 < n)
		xu, yu := xs[u], ys[u]
		cx, cy := cellOf(xu), cellOf(yu)
		for y2 := max(cy-1, 0); y2 <= min(cy+1, side-1); y2++ {
			for x2 := max(cx-1, 0); x2 <= min(cx+1, side-1); x2++ {
				c := y2*side + x2
				lo, hi := scan[c], cellStart[c+1]
				candX, candY, candV := px[lo:hi], py[lo:hi], members[lo:hi]
				candY, candV = candY[:len(candX)], candV[:len(candX)]
				for k, x := range candX {
					dx, dy := xu-x, yu-candY[k]
					d2 := dx*dx + dy*dy
					rel := b2i(d2 <= inRel)
					fr := b2i(d2 > outRel) & b2i(d2 <= inUnrel)
					if rel|fr|b2i(d2 > outUnrel) == 0 {
						// Near a radius (or NaN): decide exactly as the
						// distance predicate does.
						d := math.Hypot(dx, dy)
						rel = b2i(d <= rReliable)
						fr = b2i(d > rReliable) & b2i(d <= rUnreliable)
					}
					// The path arc is already in G.
					v := candV[k]
					keep := b2i(v != next)
					relUp[ri], frUp[fi] = v, v
					ri += rel & keep
					fi += fr & keep
				}
			}
		}
		relOff[u+1], frOff[u+1] = int32(ri), int32(fi)
	}
	s.relUp, s.frUp = relUp, frUp
	s.cursor = resize(s.cursor, n)
	g := symmetricCSR(n, relOff, relUp, s.cursor)
	if err := reachesAll(g, source); err != nil {
		return nil, err
	}
	return &Dual{g: g, source: source, fringe: symmetricCSR(n, frOff, frUp, s.cursor)}, nil
}

// b2i is 1 for true and 0 for false; it compiles to a flag read, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// grow returns buf, with its first used entries kept, grown to at least
// used+k entries by at least doubling.
func grow(buf []NodeID, used, k int) []NodeID {
	if used+k <= len(buf) {
		return buf
	}
	buf = slices.Grow(buf[:used], max(k, used))
	return buf[:cap(buf)]
}

// sqBand brackets r² for the pair classification of DualFromPositions:
// d² <= in means math.Hypot(dx, dy) <= r for certain, d² > out means
// Hypot > r for certain, and only the pairs in between (or NaN) need Hypot
// itself, so the predicate d <= r is decided exactly as on every pair. The
// 1e-9 margin dwarfs the few ulps either computation can be off. A radius
// whose square could underflow or overflow gets an empty bracket: every
// pair near it pays for Hypot.
func sqBand(r float64) (in, out float64) {
	if r >= 1e-100 && r <= 1e100 {
		return r * r * (1 - 1e-9), r * r * (1 + 1e-9)
	}
	return -1, math.Inf(1)
}

// symmetricCSR lays out the undirected graph whose edges are the pairs
// {u, up[k]} for k in off[u]:off[u+1] — each listed once, with u < up[k], in
// any order within u — as a CSR graph holding both orientations with every
// row ascending, without a sort. Row u is its partners below u followed by
// its partners above u. Visiting u ascending and writing u into each
// partner's row fills every lower half in order; visiting v ascending over
// those lower halves and writing v into each lower partner's row then fills
// every upper half in order — the counting-sort pass of Transpose, twice.
// cursor is scratch of length n.
func symmetricCSR(n int, off []int32, up []NodeID, cursor []int32) *Graph {
	offsets := make([]int32, n+1)
	for u := 0; u < n; u++ {
		offsets[u+1] += off[u+1] - off[u]
		for _, v := range up[off[u]:off[u+1]] {
			offsets[v+1]++
		}
	}
	for u := 0; u < n; u++ {
		offsets[u+1] += offsets[u]
	}
	targets := make([]NodeID, offsets[n])
	copy(cursor, offsets[:n])
	for u := 0; u < n; u++ {
		for _, v := range up[off[u]:off[u+1]] {
			targets[cursor[v]] = NodeID(u)
			cursor[v]++
		}
	}
	// cursor[v] now ends v's lower half; it moves again only when a larger
	// node is visited, so each lower half is read intact.
	for v := 0; v < n; v++ {
		for _, u := range targets[offsets[v]:cursor[v]] {
			targets[cursor[u]] = NodeID(v)
			cursor[u]++
		}
	}
	return &Graph{n: n, offsets: offsets, targets: targets}
}

// BinaryTree returns the classical complete binary tree on n nodes rooted at
// the source.
func BinaryTree(n int) (*Dual, error) {
	if n < 2 {
		return nil, ErrTooSmall
	}
	g := NewBuilder(n, false)
	for v := 1; v < n; v++ {
		g.MustAddEdge(NodeID((v-1)/2), NodeID(v))
	}
	return Classical(g, 0)
}

// PreferentialAttachment builds a scale-free dual graph by Barabási–Albert
// growth: node v joins with min(m, v) links to existing nodes chosen
// proportionally to their current G' degree. Each node's first link is
// reliable (so G stays connected to the source, node 0); every further link
// is unreliable with probability unreliableFrac, modelling hub-and-spoke
// deployments whose long-range shortcuts are gray-zone radio links.
// Construction is O(n·m) — the generator scales to 100k+ nodes.
func PreferentialAttachment(n, m int, unreliableFrac float64, rng *rand.Rand) (*Dual, error) {
	if n < 2 {
		return nil, ErrTooSmall
	}
	if m < 1 {
		return nil, fmt.Errorf("preferential attachment needs m >= 1, got %d", m)
	}
	if unreliableFrac < 0 || unreliableFrac > 1 {
		return nil, fmt.Errorf("unreliable fraction %v outside [0,1]", unreliableFrac)
	}
	g := NewBuilder(n, false)
	var unreliable [][2]NodeID
	// ends holds one entry per arc endpoint: sampling uniformly from it is
	// sampling nodes proportionally to degree (the classic BA trick).
	ends := make([]NodeID, 0, 2*m*n)
	targets := make([]NodeID, 0, m)
	for v := 1; v < n; v++ {
		targets = targets[:0]
		if v <= m {
			// Too few existing nodes to sample distinctly: link to all.
			for t := 0; t < v; t++ {
				targets = append(targets, NodeID(t))
			}
		} else {
			for len(targets) < m {
				t := ends[rng.Intn(len(ends))]
				dup := false
				for _, prev := range targets {
					if prev == t {
						dup = true
						break
					}
				}
				if !dup {
					targets = append(targets, t)
				}
			}
		}
		for i, t := range targets {
			if i > 0 && rng.Float64() < unreliableFrac {
				unreliable = append(unreliable, [2]NodeID{NodeID(v), t})
			} else {
				g.MustAddEdge(NodeID(v), t)
			}
			ends = append(ends, NodeID(v), t)
		}
	}
	gp := g.Clone()
	for _, e := range unreliable {
		gp.MustAddEdge(e[0], e[1])
	}
	return NewDual(g, gp, 0)
}

// DirectedLayered builds a directed dual graph: a chain of layers where
// reliable edges point from each layer to the next and G' additionally has
// forward edges from every layer to all later layers. Used to exercise the
// directed-graph setting of the Section 5 upper bound.
func DirectedLayered(layerSizes []int) (*Dual, error) {
	layers, n, err := splitLayers(layerSizes)
	if err != nil {
		return nil, err
	}
	g := NewBuilder(n, true)
	gp := NewBuilder(n, true)
	for k := 0; k+1 < len(layers); k++ {
		next := layers[k+1]
		for _, u := range layers[k] {
			for _, v := range next {
				g.MustAddEdge(u, v)
			}
			// The later layers are the nodes from the next layer's first on.
			for v := next[0]; int(v) < n; v++ {
				gp.MustAddEdge(u, v)
			}
		}
	}
	return NewDual(g, gp, 0)
}
