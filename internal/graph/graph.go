// Package graph provides the dual-graph network model (G, G') from
// "Broadcasting in Unreliable Radio Networks" (Kuhn, Lynch, Newport, Oshman,
// Richa; 2010). G holds the reliable links and G' ⊇ G holds all links; edges
// in G' \ G are unreliable and controlled by an adversary during simulation.
//
// The package splits graph life into two stages:
//
//   - a mutable Builder accumulates edges during topology construction
//     (AddEdge appends to a flat arc log; duplicates are tolerated and
//     removed on freeze);
//   - Freeze compacts the log into an immutable Graph in compressed sparse
//     row (CSR) form — flat offsets/targets arrays with every adjacency row
//     sorted — giving cache-friendly O(1) row iteration and O(log d)
//     HasEdge.
//
// A Dual holds two frozen CSR cores: G and the unreliable fringe G' \ G.
// G' is their row-by-row union, derived on first use. Every arc of the
// fringe has a dense, stable EdgeID (ids are assigned in (from, to)
// lexicographic order), so adversaries and the exhaustive searcher can name
// per-round delivery choices as edge-id sets instead of (from, to) pairs.
//
// Generators whose rows come out sorted skip the Builder: the geometric
// constructor (DualFromPositions) buckets nodes by cell with a counting sort
// and writes G and the fringe directly, each row already ascending.
//
// Time-varying networks are built on the same immutable cores: a Schedule
// (see dynamic.go) produces a sequence of frozen Duals — epochs — from a
// base topology plus a mutation policy (node churn, link fading, waypoint
// mobility). Churn and fade epochs are overlays on the base, read row by
// row through Dual.Row and built into cores only when an EdgeID or
// whole-graph reader asks; waypoint epochs are fresh DualFromPositions
// builds. EdgeIDs are dense per epoch and must never be cached across
// epochs.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// NodeID identifies a graph node. Nodes of an n-node graph are 0..n-1.
// It is 32-bit so frozen adjacency rows are flat []int32 arrays.
type NodeID int32

// EdgeID identifies one directed unreliable arc of a Dual. IDs are dense
// (0..NumUnreliable()-1) and stable for the lifetime of the Dual: id order
// is (from, to) lexicographic order over the fringe G' \ G.
type EdgeID int32

// packArc packs a directed arc into one word for the Builder's arc log.
func packArc(u, v NodeID) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(v)) }

func unpackArc(a uint64) (u, v NodeID) { return NodeID(a >> 32), NodeID(uint32(a)) }

// Builder is the mutable construction stage of a graph over nodes 0..n-1.
// An undirected Builder records both orientations of every edge. AddEdge is
// an O(1) append; duplicate edges are deduplicated at Freeze time (or
// eagerly once HasEdge/NumEdges has forced the lookup index).
type Builder struct {
	n        int
	directed bool
	arcs     []uint64
	// lookup is built lazily on the first HasEdge/NumEdges call; once it
	// exists, AddEdge keeps it current and stops appending duplicates.
	lookup map[uint64]struct{}
}

// NewBuilder returns an empty builder for a graph with n nodes.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// N returns the number of nodes.
func (b *Builder) N() int { return b.n }

// Directed reports whether the graph is directed.
func (b *Builder) Directed() bool { return b.directed }

// AddEdge inserts the edge (u, v); for undirected graphs it also inserts
// (v, u). Self-loops and out-of-range endpoints are rejected.
func (b *Builder) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("self-loop at node %d", u)
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("edge (%d,%d) out of range for %d nodes", u, v, b.n)
	}
	b.addArc(u, v)
	if !b.directed {
		b.addArc(v, u)
	}
	return nil
}

// MustAddEdge is AddEdge for construction code with static endpoints.
// It panics on invalid edges, which indicates a programming error in a
// topology generator rather than a runtime condition.
func (b *Builder) MustAddEdge(u, v NodeID) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

func (b *Builder) addArc(u, v NodeID) {
	a := packArc(u, v)
	if b.lookup != nil {
		if _, ok := b.lookup[a]; ok {
			return
		}
		b.lookup[a] = struct{}{}
	}
	b.arcs = append(b.arcs, a)
}

// ensureLookup builds the arc index on first use and folds out any
// duplicates already sitting in the log.
func (b *Builder) ensureLookup() {
	if b.lookup != nil {
		return
	}
	b.lookup = make(map[uint64]struct{}, len(b.arcs))
	w := 0
	for _, a := range b.arcs {
		if _, ok := b.lookup[a]; ok {
			continue
		}
		b.lookup[a] = struct{}{}
		b.arcs[w] = a
		w++
	}
	b.arcs = b.arcs[:w]
}

// HasEdge reports whether the arc (u, v) has been added. The first call
// builds a hash index over the arcs added so far; construction paths that
// never query membership never pay for it.
func (b *Builder) HasEdge(u, v NodeID) bool {
	b.ensureLookup()
	_, ok := b.lookup[packArc(u, v)]
	return ok
}

// NumEdges returns the number of distinct directed arcs added so far. For an
// undirected graph each edge counts twice (both orientations).
func (b *Builder) NumEdges() int {
	b.ensureLookup()
	return len(b.lookup)
}

// Clone returns a deep copy of the builder.
func (b *Builder) Clone() *Builder {
	c := &Builder{n: b.n, directed: b.directed, arcs: slices.Clone(b.arcs)}
	return c
}

// Freeze compacts the arc log into an immutable CSR graph: one counting
// pass buckets arcs by source, then each adjacency row is sorted and
// deduplicated in place. Total cost O(n + m log d); the builder remains
// usable (and further mutable) afterwards.
func (b *Builder) Freeze() *Graph {
	n := b.n
	offsets := make([]int32, n+1)
	for _, a := range b.arcs {
		offsets[(a>>32)+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]NodeID, len(b.arcs))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, a := range b.arcs {
		u, v := unpackArc(a)
		targets[cursor[u]] = v
		cursor[u]++
	}
	// Sort each row, then compact duplicates across all rows in one pass.
	w := int32(0)
	for u := 0; u < n; u++ {
		lo, hi := offsets[u], offsets[u+1]
		row := targets[lo:hi]
		slices.Sort(row)
		offsets[u] = w
		for i, v := range row {
			if i > 0 && v == row[i-1] {
				continue
			}
			targets[w] = v
			w++
		}
	}
	offsets[n] = w
	return &Graph{n: n, directed: b.directed, offsets: offsets, targets: targets[:w:w]}
}

// Graph is an immutable simple graph in CSR form: node u's out-neighbours
// are targets[offsets[u]:offsets[u+1]], sorted ascending. An undirected
// Graph stores both orientations of every edge. Graphs are produced by
// Builder.Freeze and shared freely; they must never be mutated.
type Graph struct {
	n        int
	directed bool
	offsets  []int32
	targets  []NodeID
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// NumEdges returns the number of stored directed arcs. For an undirected
// graph each edge counts twice (both orientations).
func (g *Graph) NumEdges() int { return len(g.targets) }

// Out returns u's out-neighbours, sorted ascending. The returned slice is a
// view into the CSR core and must not be modified.
func (g *Graph) Out(u NodeID) []NodeID { return g.targets[g.offsets[u]:g.offsets[u+1]] }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) int { return int(g.offsets[u+1] - g.offsets[u]) }

// HasEdge reports whether the arc (u, v) exists, by binary search in u's
// sorted row: O(log d) for out-degree d.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u < 0 || int(u) >= g.n {
		return false
	}
	_, ok := slices.BinarySearch(g.Out(u), v)
	return ok
}

// Transpose returns the graph with every arc reversed, in CSR form with
// sorted rows. An undirected graph stores both orientations of every edge and
// is its own transpose, so the receiver itself is returned; only directed
// graphs pay for the O(n + m) counting-sort rebuild. The result is frozen and
// shares no mutable state with the receiver.
func (g *Graph) Transpose() *Graph {
	if !g.directed {
		return g
	}
	offsets := make([]int32, g.n+1)
	for _, v := range g.targets {
		offsets[v+1]++
	}
	for i := 0; i < g.n; i++ {
		offsets[i+1] += offsets[i]
	}
	targets := make([]NodeID, len(g.targets))
	cursor := make([]int32, g.n)
	copy(cursor, offsets[:g.n])
	// Walking sources in ascending order fills each reversed row already
	// sorted, because row v receives its in-neighbours u in increasing u.
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(NodeID(u)) {
			targets[cursor[v]] = NodeID(u)
			cursor[v]++
		}
	}
	return &Graph{n: g.n, directed: true, offsets: offsets, targets: targets}
}

// MaxInDegree returns the maximum in-degree over all nodes.
func (g *Graph) MaxInDegree() int {
	in := make([]int, g.n)
	for _, v := range g.targets {
		in[v]++
	}
	maxIn := 0
	for _, d := range in {
		if d > maxIn {
			maxIn = d
		}
	}
	return maxIn
}

// DistancesFrom returns BFS distances from src; unreachable nodes get -1.
func (g *Graph) DistancesFrom(src NodeID) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]NodeID, 0, g.n)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Out(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Errors returned by NewDual validation.
var (
	ErrNotSubgraph  = errors.New("reliable graph G is not a subgraph of G'")
	ErrSizeMismatch = errors.New("G and G' have different node counts")
	ErrUnreachable  = errors.New("some node is unreachable from the source in G")
	ErrBadSource    = errors.New("source node out of range")
	ErrTooSmall     = errors.New("a dual graph network needs at least 2 nodes")
)

// Dual is a dual-graph network (G, G') with a distinguished source. It is
// immutable after construction: G and the unreliable fringe G' \ G are
// frozen CSR cores, and every unreliable arc carries a dense stable EdgeID.
//
// G' and the EdgeID -> arc decoding table are derived on first use, each
// once and safely under concurrent callers: GPrime builds G' (row u is the
// merge of the disjoint, ascending G and fringe rows; a Dual assembled from
// a given G' keeps that one), and UnreliableEdge builds the decoding table.
// Row, HasUnreliableEdge, UnreliableEdgeID, UnreliableEdges and
// NumUnreliable build neither.
//
// A churn or fade epoch (see dynamic.go) is an overlay instead: its cores
// stay unbuilt, Row and HasUnreliableEdge read it off its schedule's base
// cores, and the first reader that needs whole cores or EdgeIDs (G, GPrime,
// ReliableOut, UnreliableOut, NumUnreliable, UnreliableEdges,
// UnreliableEdge, UnreliableEdgeID, Classical, Eccentricity) builds G and
// the fringe once, safely under concurrent callers.
type Dual struct {
	g      *Graph
	source NodeID
	// fringe is G' \ G in CSR form; fringe.offsets doubles as the per-node
	// EdgeID base, since ids are dense in (from, to) order.
	fringe *Graph
	// gPrime is G', set by a constructor that has it or else derived on
	// first use; see derivedGPrime.
	gPrime     *Graph
	gPrimeOnce sync.Once
	// fringeFrom[id] is the source node of unreliable arc id (the reverse
	// of the CSR layout, for O(1) EdgeID -> arc decoding), derived on first
	// use; see derivedFrom.
	fringeFrom []NodeID
	fromOnce   sync.Once
	// gIn and fringeIn are the transposes of a directed G and fringe, each
	// built on the first in-row read of its kind.
	gIn, fringeIn atomic.Pointer[Graph]
	// ov describes an overlay epoch; nil for a Dual with cores of its own.
	ov *overlay
}

// NewDual validates and assembles a dual graph network from two builders.
// It checks that E ⊆ E', that node counts match, and that every node is
// reachable from the source in G (the paper's standing assumption). Both
// builders are frozen; the Dual shares nothing with them afterwards.
func NewDual(g, gPrime *Builder, source NodeID) (*Dual, error) {
	if g.N() != gPrime.N() {
		return nil, ErrSizeMismatch
	}
	return newDual(g.Freeze(), gPrime.Freeze(), source)
}

// NewDualGraphs assembles a dual graph network from already-frozen graphs,
// with the same validation as NewDual. The Dual aliases the given graphs.
func NewDualGraphs(g, gPrime *Graph, source NodeID) (*Dual, error) {
	if g.N() != gPrime.N() {
		return nil, ErrSizeMismatch
	}
	return newDual(g, gPrime, source)
}

func newDual(g, gPrime *Graph, source NodeID) (*Dual, error) {
	n := g.N()
	if n < 2 {
		return nil, ErrTooSmall
	}
	if source < 0 || int(source) >= n {
		return nil, ErrBadSource
	}
	fringe, err := subtract(gPrime, g)
	if err != nil {
		return nil, err
	}
	if err := reachesAll(g, source); err != nil {
		return nil, err
	}
	return &Dual{g: g, gPrime: gPrime, source: source, fringe: fringe}, nil
}

// reachesAll returns ErrUnreachable, naming the first node, unless every
// node is reachable from source in g.
func reachesAll(g *Graph, source NodeID) error {
	for v, dist := range g.DistancesFrom(source) {
		if dist < 0 {
			return fmt.Errorf("%w: node %d", ErrUnreachable, v)
		}
	}
	return nil
}

// subtract computes the fringe gp \ g as a CSR graph, verifying g ⊆ gp
// along the way. O(n + |E'|) total. Each row is a mark-and-compact pass: u's
// G row is marked in a scratch array, every G' arc is written at the
// cursor, and the cursor advances only past unmarked arcs, which compiles to
// a conditional move instead of the merge-walk's unpredictable branches. A
// row whose G' arcs hit fewer marks than its G row has arcs holds a subgraph
// violation, which subgraphError then locates.
func subtract(gp, g *Graph) (*Graph, error) {
	n := gp.N()
	size, widest := 0, 0
	for u := 0; u < n; u++ {
		d := gp.OutDegree(NodeID(u)) - g.OutDegree(NodeID(u))
		if d < 0 {
			return nil, subgraphError(gp, g)
		}
		size += d
		widest = max(widest, gp.OutDegree(NodeID(u)))
	}
	// Every G' arc is written before the cursor decides to keep it, so the
	// array carries one row of slack past the exact fringe size.
	targets := make([]NodeID, size+widest)
	offsets := make([]int32, n+1)
	inG := make([]bool, n)
	w := 0
	for u := 0; u < n; u++ {
		gRow := g.Out(NodeID(u))
		for _, v := range gRow {
			inG[v] = true
		}
		gpRow := gp.Out(NodeID(u))
		start := w
		for _, v := range gpRow {
			targets[w] = v
			if !inG[v] {
				w++
			}
		}
		for _, v := range gRow {
			inG[v] = false
		}
		if hits := len(gpRow) - (w - start); hits != len(gRow) {
			return nil, subgraphError(gp, g)
		}
		offsets[u+1] = int32(w)
	}
	return &Graph{n: n, directed: g.directed, offsets: offsets, targets: targets[:w:w]}, nil
}

// subgraphError reports the first reliable arc, in (from, to) order, that
// gp lacks, by merge-walking the sorted rows.
func subgraphError(gp, g *Graph) error {
	for u := 0; u < g.n; u++ {
		gRow := g.Out(NodeID(u))
		i := 0
		for _, v := range gp.Out(NodeID(u)) {
			if i < len(gRow) && gRow[i] < v {
				break
			}
			if i < len(gRow) && gRow[i] == v {
				i++
			}
		}
		if i < len(gRow) {
			return fmt.Errorf("%w: edge (%d,%d)", ErrNotSubgraph, u, gRow[i])
		}
	}
	return nil
}

// N returns the number of nodes.
func (d *Dual) N() int { return d.shape().g.N() }

// Directed reports whether the network's graphs are directed.
func (d *Dual) Directed() bool { return d.shape().g.directed }

// Source returns the distinguished source node.
func (d *Dual) Source() NodeID { return d.source }

// shape returns a Dual with cores of d's node count and directedness: d
// itself, or an overlay epoch's base.
func (d *Dual) shape() *Dual {
	if d.ov != nil {
		return d.ov.base
	}
	return d
}

// cores returns d's CSR cores: d itself, or an overlay epoch's cores, built
// on first use.
func (d *Dual) cores() *Dual {
	if d.ov != nil {
		return d.ov.materialize()
	}
	return d
}

// G returns the reliable graph. The caller must not mutate it.
func (d *Dual) G() *Graph { return d.cores().g }

// derivedGPrime returns the G' of a Dual with cores: the constructor's, or
// else, built on the first call, the row-by-row merge of G and the fringe.
// Concurrent first callers wait for the one build.
func (d *Dual) derivedGPrime() *Graph {
	d.gPrimeOnce.Do(func() {
		if d.gPrime == nil {
			d.gPrime = union(d.g, d.fringe)
		}
	})
	return d.gPrime
}

// derivedFrom returns the EdgeID decoding table of a Dual with cores,
// filling it from the fringe's layout on the first call. Concurrent first
// callers wait for the one build.
func (d *Dual) derivedFrom() []NodeID {
	d.fromOnce.Do(func() {
		d.fringeFrom = make([]NodeID, len(d.fringe.targets))
		for u := 0; u < d.fringe.n; u++ {
			for k := d.fringe.offsets[u]; k < d.fringe.offsets[u+1]; k++ {
				d.fringeFrom[k] = NodeID(u)
			}
		}
	})
	return d.fringeFrom
}

// union returns the CSR graph with a's shape whose row u merges the rows u
// of a and b, which must be disjoint and ascending.
func union(a, b *Graph) *Graph {
	offsets := make([]int32, a.n+1)
	targets := make([]NodeID, len(a.targets)+len(b.targets))
	w := 0
	for u := NodeID(0); int(u) < a.n; u++ {
		ra, rb := a.Out(u), b.Out(u)
		for len(ra) > 0 && len(rb) > 0 {
			if ra[0] < rb[0] {
				targets[w], ra = ra[0], ra[1:]
			} else {
				targets[w], rb = rb[0], rb[1:]
			}
			w++
		}
		w += copy(targets[w:], ra)
		w += copy(targets[w:], rb)
		offsets[u+1] = int32(w)
	}
	return &Graph{n: a.n, directed: a.directed, offsets: offsets, targets: targets}
}

// GPrime returns the full graph G', derived on first use. The caller must
// not mutate it.
func (d *Dual) GPrime() *Graph { return d.cores().derivedGPrime() }

// RowKind selects the adjacency row Dual.Row reads. Bit 0 selects the
// fringe over G, bit 1 the in-row over the out-row.
type RowKind uint8

const (
	// Reliable is u's out-row in G.
	Reliable RowKind = iota
	// Unreliable is u's out-row in G' \ G: the arcs the adversary controls.
	Unreliable
	// ReliableIn is u's in-row in G: the nodes with a reliable arc to u.
	ReliableIn
	// UnreliableIn is u's in-row in G' \ G: the nodes with an unreliable arc
	// to u.
	UnreliableIn
)

// Row returns one adjacency row of u, sorted ascending: the row accessor of
// the simulator's hot paths. On a Dual with cores it is a view into a CSR
// core, or into its transpose for an in-row kind, and buf is not touched. On
// an overlay epoch the row is computed from the base's rows into *buf, which
// grows as needed, so a reused buffer stops allocating once it has held the
// widest row; the result then aliases *buf until the next call with the same
// buffer. Row never builds an overlay epoch's cores. The caller must not
// modify the result.
func (d *Dual) Row(u NodeID, k RowKind, buf *[]NodeID) []NodeID {
	switch {
	case d.ov != nil:
		*buf = d.ov.appendRow((*buf)[:0], u, k)
		return *buf
	case k == Reliable:
		return d.g.Out(u)
	}
	return d.rows(k).Out(u)
}

// rows returns the CSR graph whose row u is the row of kind k of a Dual with
// cores: G or the fringe, or for an in-row kind its transpose, which is the
// graph itself when undirected and is otherwise built on first use.
// Concurrent first callers may each build one; they are identical, and the
// first stored wins.
func (d *Dual) rows(k RowKind) *Graph {
	g, in := d.g, &d.gIn
	if k&Unreliable != 0 {
		g, in = d.fringe, &d.fringeIn
	}
	if k < ReliableIn || !d.g.directed {
		return g
	}
	if t := in.Load(); t != nil {
		return t
	}
	in.CompareAndSwap(nil, g.Transpose())
	return in.Load()
}

// ReliableOut returns u's out-neighbours along reliable edges, sorted
// ascending (a view into the CSR core; an overlay epoch builds its cores
// first, so hot paths read Row instead).
func (d *Dual) ReliableOut(u NodeID) []NodeID { return d.cores().g.Out(u) }

// UnreliableOut returns u's out-neighbours along edges of G' \ G, the edges
// the adversary controls, sorted ascending (a view into the CSR core; an
// overlay epoch builds its cores first, so hot paths read Row instead).
func (d *Dual) UnreliableOut(u NodeID) []NodeID { return d.cores().fringe.Out(u) }

// NumUnreliable returns the number of unreliable arcs |E' \ E| (and hence
// the exclusive upper bound on EdgeID values).
func (d *Dual) NumUnreliable() int { return len(d.cores().fringe.targets) }

// UnreliableEdges returns u's unreliable arcs as (base, targets): the arc
// to targets[i] has EdgeID base+i. This is the adversary-facing index —
// a delivery choice over the round's senders is a set of such ids.
func (d *Dual) UnreliableEdges(u NodeID) (base EdgeID, targets []NodeID) {
	c := d.cores()
	return EdgeID(c.fringe.offsets[u]), c.fringe.Out(u)
}

// UnreliableEdge decodes an EdgeID into its (from, to) arc; the first call
// builds the decoding table. It panics when id is outside
// [0, NumUnreliable()), which indicates adversary code using an id from a
// different network.
func (d *Dual) UnreliableEdge(id EdgeID) (from, to NodeID) {
	c := d.cores()
	return c.derivedFrom()[id], c.fringe.targets[id]
}

// UnreliableEdgeID returns the EdgeID of the unreliable arc (u, v), if any:
// O(log d) by binary search in u's fringe row.
func (d *Dual) UnreliableEdgeID(u, v NodeID) (EdgeID, bool) {
	f := d.cores().fringe
	if u < 0 || int(u) >= f.n {
		return 0, false
	}
	i, ok := slices.BinarySearch(f.Out(u), v)
	if !ok {
		return 0, false
	}
	return EdgeID(f.offsets[u] + int32(i)), true
}

// HasUnreliableEdge reports whether (u, v) is an edge of G' \ G, in
// O(log d) — the membership test adversaries use when deciding whether a
// jamming arc exists. It reads an overlay epoch without building its cores.
func (d *Dual) HasUnreliableEdge(u, v NodeID) bool {
	if d.ov != nil {
		return d.ov.hasUnreliable(u, v)
	}
	return d.fringe.HasEdge(u, v)
}

// Classical reports whether G = G', i.e. the network has no unreliable edges
// and behaves exactly like the classical static radio model.
func (d *Dual) Classical() bool { return d.NumUnreliable() == 0 }

// Eccentricity returns the maximum G-distance from the source, i.e. the
// source eccentricity (a lower bound on broadcast time).
func (d *Dual) Eccentricity() int {
	ecc := 0
	for _, dist := range d.G().DistancesFrom(d.source) {
		if dist > ecc {
			ecc = dist
		}
	}
	return ecc
}
