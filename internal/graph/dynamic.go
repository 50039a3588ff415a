// Dynamic dual graphs: epoch-scheduled time-varying topologies.
//
// A Schedule produces the sequence of frozen networks — epochs — that a
// dynamic run executes on; only the epoch boundary pays for a swap.
// Churn and fade epochs are overlays on the schedule's base network: a churn
// epoch is the base plus its set of down nodes (one bit per node), a fade
// epoch the base plus its set of demoted reliable arcs (one bit per base G
// arc). An epoch swap computes that set and nothing else. Dual.Row (out-rows
// and in-rows alike) and HasUnreliableEdge read an overlay straight off the
// base rows, so the simulator's hot paths never build it; a reader that
// needs whole cores or EdgeIDs builds them once, on first use, through one
// materializer over the same row readers. Waypoint epochs move every node
// and are fresh DualFromPositions builds straight into CSR. EdgeIDs are
// dense per epoch: an id names an arc of one epoch's fringe only, and
// adversaries must resolve ids against the Dual they are currently handed
// (View.Dual), never cache them across epochs.
//
// Determinism contract: Epoch(e, runSeed) must be a pure function of the
// schedule value, e, and runSeed. The simulator passes its run seed, so a
// trial's entire topology trajectory is fixed by (schedule, trial seed) —
// which is what keeps engine sweeps bit-identical at any worker count.
// Schedules derive per-epoch randomness with EpochSeed (or directly from
// hashed (runSeed, index) tuples, as waypoint mobility does to keep motion
// continuous across epochs), never from shared RNG state.
//
// Epochs must preserve the model invariants of NewDual — node count, E ⊆ E',
// and reachability of every node from the source in G. The built-in mutation
// policies guarantee reachability by construction: churn and fading never
// touch a BFS backbone of the base network, and waypoint mobility keeps the
// Hamiltonian-path backbone of the geometric generator.

package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"dualgraph/internal/metrics"
	"dualgraph/internal/rng"
)

// Schedule produces the frozen network of each epoch of a dynamic run.
// Epoch e covers rounds e·EpochLength()+1 .. (e+1)·EpochLength(); an
// EpochLength of 0 means the network never changes (a single unbounded
// epoch, the static special case).
type Schedule interface {
	// N returns the node count, constant across every epoch.
	N() int
	// EpochLength returns the number of rounds each epoch lasts; 0 means
	// the epoch-0 network is used for the whole run.
	EpochLength() int
	// Epoch materializes epoch e (0-based). It must be pure in (e, runSeed):
	// the same schedule value with the same arguments returns a structurally
	// identical Dual, whatever the call order or count.
	Epoch(e int, runSeed int64) (*Dual, error)
}

// EpochSeed derives the randomness seed of one epoch as a SplitMix64-style
// mix of the run seed and the epoch index — a pure function, like
// engine.SeedFor is for trials, so dynamic runs stay reproducible at any
// worker count without any shared RNG state.
func EpochSeed(runSeed int64, epoch int) int64 {
	return int64(rng.Mix64(uint64(runSeed) ^ 0xd1b54a32d192ed03*(uint64(epoch)+1)))
}

// Domain-separation tags for unitHash, so the per-node churn coins, per-edge
// fade coins, and per-waypoint coordinates are independent streams even when
// their packed keys collide.
const (
	churnTag uint64 = 0x636875726e5f5f31 // "churn__1"
	fadeTag  uint64 = 0x666164655f5f5f31 // "fade___1"
	wpxTag   uint64 = 0x77617970745f7831 // "waypt_x1"
	wpyTag   uint64 = 0x77617970745f7931 // "waypt_y1"
)

// unitHash maps (seed, tag, key) to a uniform float64 in [0, 1) through a
// SplitMix64 finalizer. It is the stateless coin of the built-in schedules:
// pure, order-independent, and cheap enough to re-evaluate per epoch.
func unitHash(seed int64, tag, key uint64) float64 {
	return float64(coinBits(seed, coinKey(tag, key))) / (1 << 53)
}

// coinKey premixes (tag, key) for coinBits, so a schedule that flips the
// same coin every epoch computes it once.
func coinKey(tag, key uint64) uint64 { return rng.Golden * (tag ^ (key + 1)) }

// coinBits is unitHash's 53-bit integer numerator.
func coinBits(seed int64, k uint64) uint64 { return rng.Mix64(uint64(seed)+k) >> 11 }

// StaticSchedule is the trivial schedule: every epoch is the same network.
// It is the "static" registry entry and the bridge between the static and
// dynamic run paths — sim.Run(d, ...) is exactly
// sim.RunDynamic(graph.Static(d), ...).
type StaticSchedule struct {
	d *Dual
}

// Static wraps a fixed network as a schedule.
func Static(d *Dual) *StaticSchedule { return &StaticSchedule{d: d} }

// N returns the node count.
func (s *StaticSchedule) N() int { return s.d.N() }

// EpochLength returns 0: the network never changes.
func (s *StaticSchedule) EpochLength() int { return 0 }

// Epoch returns the wrapped network, whatever the epoch.
func (s *StaticSchedule) Epoch(int, int64) (*Dual, error) { return s.d, nil }

// backboneTree is the BFS-tree membership test of the mutation policies,
// stored as a parent array: arc (u, v) is a backbone arc iff one endpoint is
// the BFS parent of the other. The built-in mutation policies never remove
// or demote backbone arcs, which is what keeps every epoch a valid Dual: all
// nodes stay reachable from the source in G by construction. Two array reads
// replace the old per-arc hash-map lookup, which dominated the keep
// predicates of the full-rebuild path.
type backboneTree struct {
	parent []NodeID // parent[source] = source; tree of the base's G
}

func newBackboneTree(d *Dual) *backboneTree {
	g := d.G()
	parent := make([]NodeID, g.N())
	for i := range parent {
		parent[i] = -1
	}
	src := d.Source()
	parent[src] = src
	queue := make([]NodeID, 0, g.N())
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Out(u) {
			if parent[v] < 0 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return &backboneTree{parent: parent}
}

// has reports whether (u, v) — in either orientation — is a tree arc.
func (b *backboneTree) has(u, v NodeID) bool {
	return b.parent[v] == u || b.parent[u] == v
}

// canonArc packs an arc into the fade-coin key: undirected edges use the
// (min, max) orientation so both stored orientations flip the same coin.
func canonArc(u, v NodeID, directed bool) uint64 {
	if !directed && v < u {
		u, v = v, u
	}
	return packArc(u, v)
}

func hasBit(set []uint64, i int) bool { return set[i>>6]&(1<<(uint(i)&63)) != 0 }

// overlay is a churn or fade epoch described against its schedule's base
// network instead of by cores of its own. Exactly one of down and faded is
// set.
type overlay struct {
	base     *Dual // the schedule's base network; it has cores
	backbone *backboneTree
	// down marks a churn epoch's down nodes, one bit per node. A down node
	// keeps only its backbone arcs, in G and G' alike.
	down []uint64
	// faded marks a fade epoch's demoted arcs, one bit per arc index of the
	// base G: each leaves G for the fringe, and G' is the base's.
	faded []uint64

	once sync.Once
	mat  *Dual // the epoch's cores, built by materialize
}

// churnKeeps reports whether a churn epoch keeps the base arc (u, v): both
// endpoints up, or a backbone arc.
func (o *overlay) churnKeeps(u, v NodeID) bool {
	return !hasBit(o.down, int(u)) && !hasBit(o.down, int(v)) || o.backbone.has(u, v)
}

// demotedArc reports whether a fade epoch demotes the base G arc (u, v).
func (o *overlay) demotedArc(u, v NodeID) bool {
	g := o.base.g
	i, _ := slices.BinarySearch(g.Out(u), v)
	return hasBit(o.faded, int(g.offsets[u])+i)
}

// appendChurn appends to dst the nodes v of row, u's base row of some kind,
// that the churn epoch keeps. It is churnKeeps with u's own bit read once
// per row; the rule is symmetric, so in-rows and out-rows share it.
func (o *overlay) appendChurn(dst []NodeID, u NodeID, row []NodeID) []NodeID {
	up := !hasBit(o.down, int(u))
	for _, v := range row {
		if up && !hasBit(o.down, int(v)) || o.backbone.has(u, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// appendRow appends the epoch's row u of kind k to dst: Dual.Row for the
// overlay, and the materializer's row source. Every row is filtered from
// the base rows in order, so it comes out ascending.
func (o *overlay) appendRow(dst []NodeID, u NodeID, k RowKind) []NodeID {
	b := o.base
	if !b.g.directed {
		// An undirected in-row is the out-row: both orientations of an edge
		// share the keep rule and the fade coin.
		k &^= ReliableIn
	}
	row := b.rows(k).Out(u)
	if o.down != nil {
		return o.appendChurn(dst, u, row)
	}
	// A fade epoch moves u's demoted G arcs into the fringe. An out-arc is
	// found by its index in u's G row, an in-arc (w, u) by a search of w's.
	in, lo := k >= ReliableIn, int(b.g.offsets[u])
	if k&Unreliable == 0 {
		for i, w := range row {
			if in && !o.demotedArc(w, u) || !in && !hasBit(o.faded, lo+i) {
				dst = append(dst, w)
			}
		}
		return dst
	}
	// The base fringe row merged with the demoted arcs (disjoint, since
	// G ∩ fringe = ∅).
	for i, w := range b.rows(k &^ Unreliable).Out(u) {
		if in && o.demotedArc(w, u) || !in && hasBit(o.faded, lo+i) {
			for len(row) > 0 && row[0] < w {
				dst, row = append(dst, row[0]), row[1:]
			}
			dst = append(dst, w)
		}
	}
	return append(dst, row...)
}

// hasUnreliable is Dual.HasUnreliableEdge for the overlay: a base fringe arc
// the epoch keeps, or a demoted base G arc. Most probes name no arc at all,
// so fade asks the base G' first.
func (o *overlay) hasUnreliable(u, v NodeID) bool {
	b := o.base
	if o.down != nil {
		return b.fringe.HasEdge(u, v) && o.churnKeeps(u, v)
	}
	return b.gPrime.HasEdge(u, v) && (b.fringe.HasEdge(u, v) || o.demotedArc(u, v))
}

// materialize returns the epoch's cores, building them on the first call;
// concurrent callers wait for the one build. It is the one materializer of
// overlay epochs: G and the fringe come from appendRow, and G' and the
// EdgeID decoding are derived from them on first use like every Dual's —
// except that a fade epoch keeps the base's G', which it never changes.
// Rows come out ascending, so nothing is sorted and the fringe keeps its
// (from, to) EdgeID order. Subgraph containment and source reachability
// need no re-check: every row derives from a validated base, and no policy
// drops a backbone arc.
func (o *overlay) materialize() *Dual {
	o.once.Do(func() {
		if metrics.Enabled() {
			mEpochMaterializations.Inc()
		}
		b := o.base
		demoted := 0
		for _, w := range o.faded {
			demoted += bits.OnesCount64(w)
		}
		g := buildRows(b.g, len(b.g.targets)-demoted, func(dst []NodeID, u NodeID) []NodeID { return o.appendRow(dst, u, Reliable) })
		f := buildRows(b.fringe, len(b.fringe.targets)+demoted, func(dst []NodeID, u NodeID) []NodeID { return o.appendRow(dst, u, Unreliable) })
		o.mat = &Dual{g: g, source: b.source, fringe: f}
		if o.faded != nil {
			o.mat.gPrime = b.gPrime
		}
	})
	return o.mat
}

// buildRows returns the CSR graph with like's shape whose row u is
// row(dst, u) appended to dst, with room for size arcs (an upper bound, or
// exact).
func buildRows(like *Graph, size int, row func(dst []NodeID, u NodeID) []NodeID) *Graph {
	g := &Graph{n: like.n, directed: like.directed, offsets: make([]int32, like.n+1), targets: make([]NodeID, 0, size)}
	for u := NodeID(0); int(u) < g.n; u++ {
		g.targets = row(g.targets, u)
		g.offsets[u+1] = int32(len(g.targets))
	}
	return g
}

// mutation is what the churn and fade schedules share: a base network with
// its BFS backbone, an epoch length, and a per-epoch probability.
type mutation struct {
	base     *Dual
	epochLen int
	p        float64
	backbone *backboneTree
}

func newMutation(policy, event string, base *Dual, epochLen int, p float64) (mutation, error) {
	if epochLen < 1 {
		return mutation{}, fmt.Errorf("%s: epoch length must be >= 1, got %d", policy, epochLen)
	}
	if p < 0 || p > 1 {
		return mutation{}, fmt.Errorf("%s: %s probability %v outside [0,1]", policy, event, p)
	}
	// The fade overlay's hasUnreliable reads the base G' directly.
	base = base.cores()
	base.derivedGPrime()
	return mutation{base: base, epochLen: epochLen, p: p, backbone: newBackboneTree(base)}, nil
}

// N returns the node count.
func (m *mutation) N() int { return m.base.N() }

// EpochLength returns the epoch length in rounds.
func (m *mutation) EpochLength() int { return m.epochLen }

// epoch returns the epoch that differs from the base by down or faded (an
// empty set is nil), or the base itself when the draw changed nothing: then
// the epoch has the base's arc sets and EdgeIDs, and a run swaps nothing.
func (m *mutation) epoch(down, faded []uint64) *Dual {
	if down == nil && faded == nil {
		if metrics.Enabled() {
			mEpochBase.Inc()
		}
		return m.base
	}
	if metrics.Enabled() {
		mEpochOverlay.Inc()
	}
	return &Dual{source: m.base.source, ov: &overlay{base: m.base, backbone: m.backbone, down: down, faded: faded}}
}

// ChurnSchedule models node churn: in every epoch after the first, each
// non-source node is independently down with probability PDown (a crashed
// radio, a rebooting host). A down node keeps only its backbone link — every
// other incident arc is removed from both G and G' for the epoch — and
// recovers automatically in the next epoch's fresh draw. Epoch 0 is always
// the unmutated base network, so runs shorter than one epoch are identical
// to static runs.
type ChurnSchedule struct{ mutation }

// NewChurn builds a churn schedule over base with the given epoch length in
// rounds and per-epoch per-node down probability.
func NewChurn(base *Dual, epochLen int, pDown float64) (*ChurnSchedule, error) {
	m, err := newMutation("churn", "down", base, epochLen, pDown)
	if err != nil {
		return nil, err
	}
	return &ChurnSchedule{m}, nil
}

// Epoch returns epoch e: the base network for e == 0, otherwise the base
// with every non-backbone arc incident to a down node removed, as an
// overlay holding the epoch's down set.
func (s *ChurnSchedule) Epoch(e int, runSeed int64) (*Dual, error) {
	if e < 0 {
		return nil, fmt.Errorf("churn: negative epoch %d", e)
	}
	if e == 0 {
		return s.base, nil
	}
	seed := EpochSeed(runSeed, e)
	n := s.base.N()
	down := make([]uint64, (n+63)/64)
	var any uint64
	for v := 0; v < n; v++ {
		if NodeID(v) != s.base.source && unitHash(seed, churnTag, uint64(v)) < s.p {
			down[v>>6] |= 1 << (uint(v) & 63)
			any = 1
		}
	}
	if any == 0 {
		down = nil
	}
	return s.epoch(down, nil), nil
}

// FadeSchedule models link fading: in every epoch after the first, each
// reliable non-backbone edge is independently demoted to unreliable with
// probability PFade — the link still exists in G', but for that epoch the
// adversary controls it. Demoted edges recover automatically in the next
// epoch's fresh draw ("and back"). G' never changes, so a fade epoch that is
// built shares the base's frozen G' core.
type FadeSchedule struct {
	mutation
	once  sync.Once
	coins []fadeCoin // built by coinTable
}

// fadeCoin is one per-epoch coin of a fade schedule: the premixed key of a
// non-backbone edge of the base G and the arc indices it demotes — both
// orientations of an undirected edge, or arc == rev for a directed one.
// Flipping one coin per edge from this table, instead of one unitHash per
// arc with its backbone test, is what keeps a fade epoch under 0.1 ms at
// n=1024.
type fadeCoin struct {
	key      uint64
	arc, rev int32
}

// NewFade builds a fading schedule over base with the given epoch length in
// rounds and per-epoch per-edge demotion probability.
func NewFade(base *Dual, epochLen int, pFade float64) (*FadeSchedule, error) {
	m, err := newMutation("fade", "fade", base, epochLen, pFade)
	if err != nil {
		return nil, err
	}
	return &FadeSchedule{mutation: m}, nil
}

// coinTable returns the schedule's coins, building them on the first call
// (the first epoch e ≥ 1 of any run), so a schedule whose runs end in epoch
// 0 never pays for them; concurrent runs wait for the one build.
func (s *FadeSchedule) coinTable() []fadeCoin {
	s.once.Do(func() {
		g := s.base.g
		size := len(g.targets)
		if !g.directed {
			size /= 2
		}
		s.coins = make([]fadeCoin, 0, size)
		// An undirected edge {u, v}, u < v, is met once, at (u, v). Walking
		// u ascending meets the edges of v with a lower end in the order v's
		// row lists its lower neighbours, so next[v] is the index of the
		// reverse arc (v, u), found without a search.
		next := slices.Clone(g.offsets[:g.n])
		for u := NodeID(0); int(u) < g.n; u++ {
			for i, v := range g.Out(u) {
				if !g.directed && v < u {
					continue
				}
				arc := g.offsets[u] + int32(i)
				rev := arc
				if !g.directed {
					rev = next[v]
					next[v]++
				}
				if !s.backbone.has(u, v) {
					s.coins = append(s.coins, fadeCoin{coinKey(fadeTag, canonArc(u, v, g.directed)), arc, rev})
				}
			}
		}
	})
	return s.coins
}

// Epoch returns epoch e: the base network for e == 0, otherwise the base
// with faded reliable edges demoted into the adversary's fringe, as an
// overlay holding the epoch's faded arcs.
func (s *FadeSchedule) Epoch(e int, runSeed int64) (*Dual, error) {
	if e < 0 {
		return nil, fmt.Errorf("fade: negative epoch %d", e)
	}
	if e == 0 {
		return s.base, nil
	}
	seed := EpochSeed(runSeed, e)
	// coinBits/2^53 < p exactly when coinBits < p·2^53: scaling by a power
	// of two is exact. The coin is unpredictable, so its bit is folded in
	// without a branch.
	limit := s.p * (1 << 53)
	faded := make([]uint64, (len(s.base.g.targets)+63)/64)
	var any uint64
	for _, c := range s.coinTable() {
		var bit uint64
		if float64(coinBits(seed, c.key)) < limit {
			bit = 1
		}
		faded[c.arc>>6] |= bit << (c.arc & 63)
		faded[c.rev>>6] |= bit << (c.rev & 63)
		any |= bit
	}
	if any == 0 {
		faded = nil
	}
	return s.epoch(nil, faded), nil
}

// WaypointSchedule models random-waypoint mobility over the geometric
// dual-graph model: every node moves in the unit square between successive
// waypoints (one leg lasts LegEpochs epochs, positions interpolate linearly
// within a leg), and each epoch's network is the geometric dual of the
// current positions — short links reliable, longer links unreliable, plus
// the generator's Hamiltonian-path backbone so the source always reaches
// everyone. The base network contributes only its node count and source; the
// geometry is the schedule's own. Waypoints are hashed directly from the run
// seed (not the epoch seed), which is what makes motion continuous: epoch
// e+1 starts where epoch e ended.
type WaypointSchedule struct {
	n         int
	source    NodeID
	epochLen  int
	legEpochs int
	rRel      float64
	rUnrel    float64
}

// NewWaypoint builds a mobility schedule for base.N() nodes. legEpochs is
// the number of epochs one waypoint-to-waypoint leg lasts (larger = slower
// motion); rReliable/rUnreliable are the geometric link radii.
func NewWaypoint(base *Dual, epochLen, legEpochs int, rReliable, rUnreliable float64) (*WaypointSchedule, error) {
	if epochLen < 1 {
		return nil, fmt.Errorf("waypoint: epoch length must be >= 1, got %d", epochLen)
	}
	if legEpochs < 1 {
		return nil, fmt.Errorf("waypoint: leg epochs must be >= 1, got %d", legEpochs)
	}
	if !(rReliable >= 0) {
		return nil, fmt.Errorf("waypoint: rReliable must be >= 0, got %v", rReliable)
	}
	if !(rUnreliable >= rReliable) {
		return nil, fmt.Errorf("waypoint: rUnreliable (%v) must be >= rReliable (%v)", rUnreliable, rReliable)
	}
	return &WaypointSchedule{
		n:         base.N(),
		source:    base.Source(),
		epochLen:  epochLen,
		legEpochs: legEpochs,
		rRel:      rReliable,
		rUnrel:    rUnreliable,
	}, nil
}

// N returns the node count.
func (s *WaypointSchedule) N() int { return s.n }

// EpochLength returns the epoch length in rounds.
func (s *WaypointSchedule) EpochLength() int { return s.epochLen }

// waypoint returns node v's k-th waypoint coordinate pair.
func (s *WaypointSchedule) waypoint(runSeed int64, v NodeID, k int) (x, y float64) {
	key := uint64(uint32(v))<<32 | uint64(uint32(k))
	return unitHash(runSeed, wpxTag, key), unitHash(runSeed, wpyTag, key)
}

// Epoch materializes epoch e: the geometric dual of the interpolated
// positions at epoch e, built in pooled scratch.
func (s *WaypointSchedule) Epoch(e int, runSeed int64) (*Dual, error) {
	if e < 0 {
		return nil, fmt.Errorf("waypoint: negative epoch %d", e)
	}
	if e > 0 && metrics.Enabled() {
		mEpochRebuild.Inc()
	}
	sc := geoPool.Get().(*geoScratch)
	defer geoPool.Put(sc)
	sc.xs, sc.ys = resize(sc.xs, s.n), resize(sc.ys, s.n)
	s.positions(e, runSeed, sc.xs, sc.ys)
	return sc.dual(sc.xs, sc.ys, s.rRel, s.rUnrel, s.source)
}

// positions writes every node's interpolated position at epoch e.
func (s *WaypointSchedule) positions(e int, runSeed int64, xs, ys []float64) {
	leg, step := e/s.legEpochs, e%s.legEpochs
	t := float64(step) / float64(s.legEpochs)
	for v := 0; v < s.n; v++ {
		x0, y0 := s.waypoint(runSeed, NodeID(v), leg)
		x1, y1 := s.waypoint(runSeed, NodeID(v), leg+1)
		xs[v] = x0*(1-t) + x1*t
		ys[v] = y0*(1-t) + y1*t
	}
}
