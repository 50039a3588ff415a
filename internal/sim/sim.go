// Package sim implements the synchronous round-based execution model of the
// dual graph paper (Section 2.1): in each round every active process decides
// whether to transmit; a transmitted message reaches all reliable
// out-neighbours, an adversary-chosen subset of unreliable out-neighbours,
// and the sender itself; receptions are then computed under one of the four
// collision rules CR1-CR4 with synchronous or asynchronous starts.
//
// Runs execute on a fixed network (Run) or on an epoch-scheduled
// time-varying one (RunDynamic): every graph.Schedule epoch boundary swaps
// the frozen network under the live processes while algorithm, adversary,
// and per-node result state survive. Nothing in the per-run delivery buffers
// is sized by an epoch's graph, so a swap installs the new network without
// touching them. Both paths share one round body: Run is RunDynamic over a
// static schedule, and RunDynamic is Start plus a loop of Execution.Step.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"dualgraph/internal/graph"
	"dualgraph/internal/metrics"
	"dualgraph/internal/rng"
)

// CollisionRule selects one of the paper's collision rules, in decreasing
// order of strength from the algorithm's point of view.
type CollisionRule int

// The four collision rules of Section 2.1.
const (
	// CR1: any process reached by two or more messages (including its own)
	// receives collision notification ⊤.
	CR1 CollisionRule = iota + 1
	// CR2: a sender always receives its own message; a non-sender reached by
	// two or more messages receives ⊤.
	CR2
	// CR3: a sender always receives its own message; a non-sender reached by
	// two or more messages hears silence ⊥ (no collision detection).
	CR3
	// CR4: a sender always receives its own message; for a non-sender
	// reached by two or more messages the adversary chooses between ⊥ and
	// one of the reaching messages (the weakest rule).
	CR4
)

// String implements fmt.Stringer.
func (c CollisionRule) String() string {
	switch c {
	case CR1:
		return "CR1"
	case CR2:
		return "CR2"
	case CR3:
		return "CR3"
	case CR4:
		return "CR4"
	}
	return fmt.Sprintf("CollisionRule(%d)", int(c))
}

// StartRule selects when processes begin executing.
type StartRule int

// Start rules of Section 2.1.
const (
	// SyncStart activates every process in round 1.
	SyncStart StartRule = iota + 1
	// AsyncStart activates a process the first time a message is delivered
	// to it (the source is active from round 1).
	AsyncStart
)

// String implements fmt.Stringer.
func (s StartRule) String() string {
	switch s {
	case SyncStart:
		return "sync"
	case AsyncStart:
		return "async"
	}
	return fmt.Sprintf("StartRule(%d)", int(s))
}

// ReceptionKind classifies what a process hears in a round.
type ReceptionKind int

// Reception kinds.
const (
	// Silence is ⊥: no message was heard.
	Silence ReceptionKind = iota + 1
	// Delivered means exactly one message was received.
	Delivered
	// Collision is ⊤: collision notification.
	Collision
)

// String implements fmt.Stringer.
func (k ReceptionKind) String() string {
	switch k {
	case Silence:
		return "⊥"
	case Delivered:
		return "msg"
	case Collision:
		return "⊤"
	}
	return fmt.Sprintf("ReceptionKind(%d)", int(k))
}

// Reception describes the outcome of a round for one process.
type Reception struct {
	// Kind is silence, a delivered message, or collision notification.
	Kind ReceptionKind
	// From is the sending node when Kind == Delivered.
	From graph.NodeID
	// FromProc is the sender's process identifier when Kind == Delivered.
	FromProc int
	// Broadcast reports whether the delivered message carries the broadcast
	// payload (the sender held the message when transmitting).
	Broadcast bool
	// Own reports whether the delivered message is the receiver's own.
	Own bool
}

// Process is one automaton of an algorithm. The engine calls Start exactly
// once when the process becomes active, then in every subsequent round first
// Decide and then Receive, except where the optional contracts below
// (SendPlanner, DeafHolders) let it skip a call. Round numbers are global
// (the paper justifies a global round counter by having the source label
// messages with its local counter; see Section 5, footnote 1).
type Process interface {
	// Start activates the process at the given round. hasMessage is true
	// only for the source process, which holds the broadcast message before
	// round 1.
	Start(round int, hasMessage bool)
	// Decide reports whether the process transmits in this round.
	Decide(round int) bool
	// Receive delivers the round's reception outcome.
	Receive(round int, r Reception)
}

// Algorithm creates the processes of a broadcast algorithm.
type Algorithm interface {
	// Name returns a short identifier for reports.
	Name() string
	// NewProcess creates the process with identifier id (1..n) for an
	// n-node network. rng is the process's private randomness source:
	// stream 1+id of the run's SplitMix64 streams (internal/rng), a pure
	// function of (Config.Seed, id). Deterministic algorithms must not use
	// it.
	NewProcess(id, n int, rng *rand.Rand) Process
}

// The round loop uses three optional contracts, each chosen once at Start.
// None changes a run: a run with them gives the same senders in every round
// and the same Result as a run through Process and NewProcess alone. They
// only let the loop skip calls whose outcome is already known.
//
// Caveat for wrappers: embedding a built-in algorithm inherits its
// NewProcessRNG and HoldersIgnoreReceptions, so a wrapper that overrides
// NewProcess must override those too, or embed the sim.Algorithm interface
// instead, which hides them.

// ValueRNGAlgorithm is an Algorithm that can build a process around its
// random stream as an rng.SplitMix64 value, which the process owns, instead
// of a *rand.Rand. Start prefers NewProcessRNG and passes it the same stream
// NewProcess would get, so a process that draws with src.Float64 where it
// would call rng.Float64 makes the same draws. A deterministic algorithm may
// implement it to skip building a stream it never reads.
type ValueRNGAlgorithm interface {
	NewProcessRNG(id, n int, src rng.SplitMix64) Process
}

// DeafHolders is an Algorithm that may declare that its processes ignore
// every reception once they hold the broadcast message. When
// HoldersIgnoreReceptions returns true, the round loop does not call Receive
// on an active node that held the message at the start of the round. It
// still computes that node's reception (so CR4 Resolve calls happen as
// before) and still calls Receive on every other active node.
type DeafHolders interface {
	HoldersIgnoreReceptions() bool
}

// SendPlanner is a Process that can tell the round loop when it may next
// transmit. NextSend(r) returns the first round t >= r in which Decide(t)
// may return true, assuming Receive is not called before t, or math.MaxInt
// when there is none; Decide in the rounds r..t-1 must return false and
// leave the process as it was. When every process of a run is a
// SendPlanner, the loop calls Decide on a node only in the round its last
// NextSend named, and calls NextSend(t+1) after each Decide(t) or
// Receive(t) it makes on the node.
type SendPlanner interface {
	NextSend(round int) int
}

// View is the read-only information the engine exposes to the adversary when
// it makes a choice. Slices are owned by the engine and must not be mutated.
type View struct {
	// Round is the current round (1-based).
	Round int
	// Dual is the network.
	Dual *graph.Dual
	// ProcOf maps node -> process identifier.
	ProcOf []int
	// Rng is the adversary's private randomness source: stream 1 of the
	// run's SplitMix64 streams (internal/rng), a pure function of
	// Config.Seed. AssignProcs receives stream 0.
	Rng *rand.Rand

	// The run's per-node state, in one allocation: the holders at the start
	// of the round, the active nodes, and this round's senders.
	hold, act, sent []uint64

	row []graph.NodeID // UnreliableOut's and UnreliableIn's scratch row
}

// HasMessage reports whether u held the broadcast message at the start of
// the round.
func (v *View) HasMessage(u graph.NodeID) bool { return hasBit(v.hold, int(u)) }

// Active reports whether u's process is active.
func (v *View) Active(u graph.NodeID) bool { return hasBit(v.act, int(u)) }

// Sent reports whether u transmits this round.
func (v *View) Sent(u graph.NodeID) bool { return hasBit(v.sent, int(u)) }

// UnreliableOut returns s's unreliable out-neighbours in the current epoch,
// ascending: Dual.Row read into a scratch row the View owns, so an overlay
// epoch is read without building its cores and, once the scratch has held
// the widest row, without allocating. The slice is valid until the next
// UnreliableOut or UnreliableIn call on v and must not be modified.
func (v *View) UnreliableOut(s graph.NodeID) []graph.NodeID {
	return v.Dual.Row(s, graph.Unreliable, &v.row)
}

// UnreliableIn returns u's unreliable in-neighbours in the current epoch,
// ascending: the nodes whose message the adversary may deliver to u. It
// reads Dual.Row like UnreliableOut and shares its scratch row and its
// validity rule.
func (v *View) UnreliableIn(u graph.NodeID) []graph.NodeID {
	return v.Dual.Row(u, graph.UnreliableIn, &v.row)
}

// NoDelivery is returned by Adversary.Resolve to indicate silence under CR4.
const NoDelivery graph.NodeID = -1

// Adversary controls the three nondeterministic choices of the model: the
// process-to-node assignment, which unreliable edges deliver each round, and
// CR4 collision resolution.
type Adversary interface {
	// Name returns a short identifier for reports.
	Name() string
	// AssignProcs returns the proc mapping as a slice procOf with
	// procOf[node] = process id; it must be a permutation of 1..n.
	AssignProcs(d *graph.Dual, rng *rand.Rand) ([]int, error)
	// Deliver returns, for each sending node, the subset of its unreliable
	// out-neighbours its message reaches this round. Nodes absent from the
	// map get no unreliable deliveries. Every returned neighbour must be an
	// unreliable out-neighbour of the sender, named at most once.
	//
	// Deliver is the map form of the delivery choice. The engine calls it
	// only for adversaries that do not implement BufferedDeliverer, and
	// applies the returned map in ascending sender order. An adversary that
	// implements BufferedDeliverer states its policy once, in DeliverInto,
	// and derives Deliver from it with DeliveryMap.
	Deliver(v *View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID
	// Resolve picks the CR4 outcome for a non-sending node reached by two or
	// more messages: NoDelivery for ⊥ or one of the reaching sender nodes.
	// The engine skips it for the rest of a round whose DeliverInto called
	// DeliverySink.SilenceCollisions.
	Resolve(v *View, node graph.NodeID, reaching []graph.NodeID) graph.NodeID
}

// RunForker is the per-run instantiation hook for stateful adversaries. The
// engine shares one Adversary value across every (possibly concurrent) trial
// of a sweep, which forces implementations to be stateless; an adversary
// that needs per-run state — search memos, a script of its own past choices —
// implements RunForker, and RunDynamic replaces it with the forked instance
// for the duration of that run. ForkRun is called once per run, after the
// config is resolved and before AssignProcs; it must not mutate the
// receiver (concurrent trials fork concurrently). The returned adversary is
// used as-is: it is not forked again, so a fork returning its receiver must
// be safe for that run.
type RunForker interface {
	// ForkRun returns the adversary instance this run will use, built
	// against the run's schedule, algorithm, and effective (defaulted)
	// config.
	ForkRun(sched graph.Schedule, alg Algorithm, cfg Config) (Adversary, error)
}

// BufferedDeliverer is the allocation-free delivery interface: instead of
// returning a freshly allocated map every round, the adversary pushes each
// unreliable delivery into the engine-owned DeliverySink. The round loop
// makes exactly one delivery call, DeliverInto: Start wraps an adversary
// that only implements Adversary once, in a shim whose DeliverInto applies
// the Deliver map. Every built-in adversary implements DeliverInto and
// derives its Deliver from it with DeliveryMap, except Benign, which stays
// map-only on purpose (it delivers nothing, so the shim is already free,
// and it is the adversary most commonly embedded by wrappers that override
// Deliver).
//
// Caveat for wrappers: embedding a built-in adversary inherits its
// DeliverInto, so overriding Deliver alone will not change the deliveries —
// override DeliverInto as well (or build on a plain Adversary).
type BufferedDeliverer interface {
	// DeliverInto records this round's unreliable deliveries via sink.Add.
	// The same validity rules as Deliver apply: only senders may deliver,
	// only along edges of G' \ G, and each edge at most once.
	DeliverInto(v *View, senders []graph.NodeID, sink *DeliverySink)
}

// DeliveryMap derives the map form of bd's delivery choice: it runs
// bd.DeliverInto against a scratch sink that holds the round's reliable
// reach state, exactly as the engine's sink does, and returns the adds
// grouped by sender in add order (nil when nothing was added). Applied
// through the engine's map shim, the map reproduces the native run whenever
// each target's deliveries are added in ascending sender order, which every
// built-in adversary does; the map form cannot express any other order. A
// latched sink failure returns {0: {0}}, a map the shim always rejects,
// since (0, 0) is never an edge of G' \ G.
func DeliveryMap(bd BufferedDeliverer, v *View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	b := newBuffers(v.Dual, false)
	b.deliverReliable(senders)
	sink := &DeliverySink{sent: v.sent, buf: b}
	bd.DeliverInto(v, senders, sink)
	if sink.err != nil {
		return map[graph.NodeID][]graph.NodeID{0: {0}}
	}
	if len(b.unrel) == 0 {
		return nil
	}
	out := make(map[graph.NodeID][]graph.NodeID)
	for _, u := range b.unrel {
		out[u.from] = append(out[u.from], u.to)
	}
	return out
}

// mapDeliverer is the delivery shim Start puts around an adversary that
// only implements the map form.
type mapDeliverer struct{ adv Adversary }

// DeliverInto implements BufferedDeliverer by applying the adversary's
// Deliver map.
func (m mapDeliverer) DeliverInto(v *View, senders []graph.NodeID, sink *DeliverySink) {
	sink.addFromMap(m.adv.Deliver(v, senders), senders)
}

// DeliverySink collects one round's unreliable deliveries into the run's
// preallocated reachability buffers. It validates every delivery exactly
// like the map path and latches the first error.
//
// At DeliverInto time the sink's reach state holds exactly the round's
// reliable deliveries (the reliable pass runs first), so Reached and
// EachReachedOnce let an adversary read the reliable reception picture
// word-parallel instead of recounting it edge by edge; each Add folds its
// delivery into that state immediately. The sink holds no per-node state of
// its own: every delivery lands in the run's one per-round list.
type DeliverySink struct {
	sent   []uint64 // the View's sender bitset
	buf    *runBuffers
	err    error
	silent bool // SilenceCollisions was called this round
}

// Add records that sender s's message reaches v along the unreliable edge
// (s, v) this round. Invalid deliveries (s is not a node that sent, (s, v)
// is not an edge of G' \ G, or (s, v) was already delivered this round)
// turn the run into an ErrBadDelivery failure. Membership is validated in
// O(log d) against the dual's unreliable fringe index.
func (ds *DeliverySink) Add(s, v graph.NodeID) {
	if ds.err == nil && ds.sender(s) && !ds.buf.dual.HasUnreliableEdge(s, v) {
		ds.err = fmt.Errorf("%w: (%d,%d)", ErrBadDelivery, s, v)
	}
	ds.AddInArc(s, v)
}

// AddInArc is Add for an arc the caller read off the current round's
// View.UnreliableIn(v) row, so (s, v) is an edge of G' \ G by construction
// and its fringe lookup is skipped. Every other check of Add stays: s must
// have sent, and (s, v) must not be delivered twice this round. An arc from
// anywhere else must go through Add.
func (ds *DeliverySink) AddInArc(s, v graph.NodeID) {
	if ds.err != nil {
		return
	}
	if !ds.sender(s) {
		ds.err = fmt.Errorf("%w: node %d did not send", ErrBadDelivery, s)
		return
	}
	ds.addUnrel(s, v)
}

// sender reports whether s is a node that transmitted this round. s comes
// from the adversary, so it is bounds-checked; a bit past the last node is
// never set.
func (ds *DeliverySink) sender(s graph.NodeID) bool {
	return uint(s>>6) < uint(len(ds.sent)) && hasBit(ds.sent, int(s))
}

// addUnrel records the validated arc (s, v) unless it was already delivered
// this round: repeating an arc is not a subset of G' \ G, and counting v as
// reached twice would turn a lone message into a collision.
func (ds *DeliverySink) addUnrel(s, v graph.NodeID) {
	if !ds.buf.addUnrel(v, s) {
		ds.err = fmt.Errorf("%w: (%d,%d) delivered twice", ErrBadDelivery, s, v)
	}
}

// Reached reports whether at least one message (reliable, or already added
// unreliable) reaches v this round.
func (ds *DeliverySink) Reached(v graph.NodeID) bool { return ds.buf.reached(v) }

// EachReachedOnce calls yield for every non-sender v currently reached by
// exactly one message, in ascending node order, with s the sender of that
// message; it stops early when yield returns false. A sender is never
// yielded: it hears its own message under CR2-CR4, so no delivery can jam
// it. The set is computed word-parallel from the reach and sender bitsets
// (O(n/64) plus the yields), which is what replaced the per-edge recount
// that jamming adversaries used to do.
//
// Deliveries Added during the iteration take effect immediately on the
// queried state but never change which nodes the current sweep yields: the
// per-word singleton mask is latched before its bits are walked, and an Add
// targets only one node's reach row.
func (ds *DeliverySink) EachReachedOnce(yield func(v, s graph.NodeID) bool) {
	b := ds.buf
	for w, r1 := range b.reach1 {
		m := r1 &^ b.reach2[w] &^ ds.sent[w]
		for m != 0 {
			v := graph.NodeID(w<<6 + bits.TrailingZeros64(m))
			m &= m - 1
			if !yield(v, b.firstFrom[v]) {
				return
			}
		}
	}
}

// AddEdgeID records a delivery along the unreliable arc with the given
// dense edge id (see graph.Dual.UnreliableEdges). It is the fastest sink
// entry point: the arc is resolved by direct index, so the only check left
// is that its source actually transmitted this round.
func (ds *DeliverySink) AddEdgeID(id graph.EdgeID) {
	if ds.err != nil {
		return
	}
	d := ds.buf.dual
	if id < 0 || int(id) >= d.NumUnreliable() {
		ds.err = fmt.Errorf("%w: edge id %d outside [0,%d)", ErrBadDelivery, id, d.NumUnreliable())
		return
	}
	ds.AddInArc(d.UnreliableEdge(id))
}

// Fail latches err as this round's delivery failure, aborting the run with
// it. It is the typed failure path for adversaries whose DeliverInto can
// fail internally (a planning adversary exceeding a search cap, say) —
// without it they could only signal by delivering something invalid. The
// first latched error wins, matching the sink's own validation; a nil err is
// ignored.
func (ds *DeliverySink) Fail(err error) {
	if ds.err == nil && err != nil {
		ds.err = err
	}
}

// SilenceCollisions promises that the adversary's Resolve would return
// NoDelivery for every collided non-sender of this round, whatever reaches
// it. The engine then gives each such node ⊥ under CR4 without building its
// reaching list or calling Resolve, so the run is the one Resolve would have
// made. An adversary may call it from DeliverInto only when that holds for
// the whole round, deliveries it adds afterwards included, and only when its
// Resolve has no side effects (it draws no randomness, say). The promise
// lasts for the round. The scratch sink of DeliveryMap ignores it, so the
// map form still calls Resolve.
func (ds *DeliverySink) SilenceCollisions() { ds.silent = true }

// addFromMap applies a map-form delivery choice. Map iteration order is
// randomized in Go, so it validates the keys first and then applies
// deliveries in deterministic sender order — the schedule of a run must
// never depend on map iteration.
func (ds *DeliverySink) addFromMap(m map[graph.NodeID][]graph.NodeID, senders []graph.NodeID) {
	if len(m) == 0 {
		return
	}
	// Report the lowest offending node id so the error, too, is independent
	// of map iteration order.
	bad, found := graph.NodeID(0), false
	for s := range m {
		if !ds.sender(s) && (!found || s < bad) {
			bad, found = s, true
		}
	}
	if found {
		ds.err = fmt.Errorf("%w: node %d did not send", ErrBadDelivery, bad)
		return
	}
	for _, s := range senders {
		for _, v := range m[s] {
			ds.Add(s, v)
		}
	}
}

// Dense-mode admission: per-node delivery masks cost n²/8 bytes per
// direction, so the mode is reserved for networks that are both small
// (denseMaxN caps the quadratic memory at 2 MiB per mask set) and dense
// enough that one row of mask words carries more arcs than the word loop
// costs (arcs ≥ n²/denseArcFactor, i.e. ≥ 2 arcs per 64-bit mask word).
const (
	denseMaxN      = 4096
	denseArcFactor = 32
)

// runBuffers is the preallocated per-run state of the delivery hot path.
//
// The reaching relation of a round is held as two word-parallel bitsets
// instead of per-node sender lists: reach1 marks nodes reached by at least
// one message, reach2 nodes reached by two or more (always reach2 ⊆ reach1).
// Those two bits are everything CR1–CR3 ever ask — silence / delivered /
// collision is a count class, not a sender list — so the per-edge list
// appends of the old hot path are gone. The full reaching list of a node is
// materialized lazily, only where someone actually inspects senders: the
// CR4 resolve call on a collided non-sender (none in a round whose
// adversary called SilenceCollisions), or an adversary walking the sink.
// Unreliable deliveries are the one part that stays explicit (adversaries
// choose them one by one): they go in one per-round append list, chained
// per target node through unrelHead/unrelTail, so a node's chain is its
// deliveries in sink-add order.
//
// Beside the two bitsets a round keeps firstFrom, each reached node's first
// reacher (the whole answer for a singleton reception), and touchedW, the
// words of reach1 it made nonzero, so reset clears only those. CR4 lists are
// rebuilt from the epoch's reliable in-rows filtered by sent.
//
// Two modes, chosen once per run from the epoch-0 reliable graph, differ
// only in how the reliable pass writes that state:
//
//   - dense (small, dense networks): every node has a precomputed delivery
//     mask — its reliable out-row plus itself as a bit row — and a sender's
//     whole delivery is OR-ed into reach1/reach2 a word at a time, turning
//     ~deg(s) per-edge updates into row/64 word ops.
//   - sparse (everything else): deliveries stay per edge.
//
// Everything read after the reliable pass has one form in both modes, and
// both read the epoch's rows through Dual.Row, so an overlay epoch is never
// built. No buffer is sized by an epoch's graph, only by n, so an
// epoch swap leaves them alone and refreshes just the dense mode's masks.
// All buffers are allocated once per run; once the delivery list
// has grown to the run's busiest round, the round loop performs no heap
// allocation in either mode.
type runBuffers struct {
	reach1 []uint64 // nodes reached by ≥1 message this round
	reach2 []uint64 // nodes reached by ≥2 messages this round

	touchedW []int32 // words of reach1 made nonzero this round
	// firstFrom[v] is the first sender reaching v, valid while v's reach1
	// bit is set: the sender of a singly-reached v's one message.
	firstFrom []graph.NodeID

	// This round's unreliable deliveries in sink-add order. unrelHead[v] and
	// unrelTail[v] index v's first and last delivery (-1 = none), and each
	// delivery's next links v's chain.
	unrel     []unrelDelivery
	unrelHead []int32
	unrelTail []int32

	senders    []graph.NodeID
	newHolders []graph.NodeID
	mat        []graph.NodeID // lazy reaching-list scratch, reused per resolve

	// dual is the epoch the buffers read rows from (and, in dense mode,
	// the one the masks encode); row is the scratch its Row reads fill.
	dual *graph.Dual
	row  []graph.NodeID

	// Dense mode: row s of outMask, len(reach1) words, is s's reliable
	// out-row ∪ {s} as bits.
	dense   bool
	outMask []uint64
}

// unrelDelivery is one unreliable delivery of the round: from's message
// reaches to, and next indexes to's following delivery (-1 = last).
type unrelDelivery struct {
	from, to graph.NodeID
	next     int32
}

// newRunBuffers builds the per-run buffer set for d, choosing the delivery
// mode from the epoch-0 reliable graph. The mode is fixed for the run —
// epochs only refresh the dense mode's masks — so the round loop never
// re-tests it per round.
func newRunBuffers(d *graph.Dual) *runBuffers {
	n := d.N()
	return newBuffers(d, n <= denseMaxN && d.G().NumEdges()*denseArcFactor >= n*n)
}

// newBuffers builds a buffer set for d in the given delivery mode.
func newBuffers(d *graph.Dual, dense bool) *runBuffers {
	n := d.N()
	words := (n + 63) / 64
	b := &runBuffers{
		reach1:     make([]uint64, words),
		reach2:     make([]uint64, words),
		touchedW:   make([]int32, 0, words),
		firstFrom:  make([]graph.NodeID, n),
		unrelHead:  make([]int32, n),
		unrelTail:  make([]int32, n),
		senders:    make([]graph.NodeID, 0, n),
		newHolders: make([]graph.NodeID, 0, n),
		dense:      dense,
	}
	for v := range b.unrelHead {
		b.unrelHead[v] = -1
		b.unrelTail[v] = -1
	}
	b.setDual(d)
	return b
}

// setDual points the buffers at epoch d; the dense mode rebuilds its masks
// unless they already encode d.
func (b *runBuffers) setDual(d *graph.Dual) {
	if b.dual == d {
		return
	}
	b.dual = d
	if b.dense {
		b.buildMasks()
	}
}

// buildMasks computes the dense-mode delivery masks of the current epoch:
// outMask row s is s's one-round reliable delivery set (out-row plus s
// itself).
func (b *runBuffers) buildMasks() {
	n, words := len(b.firstFrom), len(b.reach1)
	if b.outMask == nil {
		b.outMask = make([]uint64, n*words)
	} else {
		clear(b.outMask)
	}
	for u := 0; u < n; u++ {
		row := b.outMask[u*words : (u+1)*words]
		setBit(row, u)
		for _, v := range b.dual.Row(graph.NodeID(u), graph.Reliable, &b.row) {
			setBit(row, int(v))
		}
	}
}

// clearRound resets the round state, clearing only the reach words the
// previous round made nonzero. The unreliable chains are reset by walking
// the round's delivery list. Idempotent: a second call finds nothing to
// clear. The sender bitset needs no reset: the Decide walk rewrites it.
func (b *runBuffers) clearRound() {
	for _, w := range b.touchedW {
		b.reach1[w] = 0
		b.reach2[w] = 0
	}
	b.touchedW = b.touchedW[:0]
	for _, u := range b.unrel {
		b.unrelHead[u.to] = -1
		b.unrelTail[u.to] = -1
	}
	b.unrel = b.unrel[:0]
	b.senders = b.senders[:0]
	b.newHolders = b.newHolders[:0]
}

func (b *runBuffers) reached(v graph.NodeID) bool { return hasBit(b.reach1, int(v)) }

func (b *runBuffers) collided(v graph.NodeID) bool { return hasBit(b.reach2, int(v)) }

// deliverDense ORs sender s's whole reliable delivery mask into the reach
// bitsets: one pass of word ops replaces deg(s)+1 per-edge updates. A bit
// already in reach1 is promoted into reach2, which is exactly the ≥2 count
// class (a single sender's mask never repeats a bit). Each bit it newly sets
// records s as that node's first reacher, and each word it makes nonzero is
// registered in touchedW, as addReach does per edge.
func (b *runBuffers) deliverDense(s graph.NodeID) {
	words := len(b.reach1)
	row := b.outMask[int(s)*words : (int(s)+1)*words]
	for w, mw := range row {
		if mw == 0 {
			continue
		}
		r1 := b.reach1[w]
		if r1 == 0 {
			b.touchedW = append(b.touchedW, int32(w))
		}
		for m := mw &^ r1; m != 0; m &= m - 1 {
			b.firstFrom[w<<6+bits.TrailingZeros64(m)] = s
		}
		b.reach2[w] |= r1 & mw
		b.reach1[w] = r1 | mw
	}
}

// deliverReliable is the round's reliable pass: each sender's message
// reaches itself and every reliable out-neighbour unconditionally,
// word-parallel in dense mode and per edge in sparse mode. It is the one
// place the two modes differ.
func (b *runBuffers) deliverReliable(senders []graph.NodeID) {
	if b.dense {
		for _, s := range senders {
			b.deliverDense(s)
		}
		return
	}
	for _, s := range senders {
		b.addReach(s, s)
		for _, v := range b.dual.Row(s, graph.Reliable, &b.row) {
			b.addReach(v, s)
		}
	}
}

// addReach records one delivery from s to v, a sparse-mode reliable one or
// an unreliable one: first contact sets the reach1 bit and remembers s as
// the singleton answer, repeat contact promotes the bit into reach2. Words
// are registered in touchedW on their 0→nonzero transition so reset stays
// proportional to the round's actual traffic.
func (b *runBuffers) addReach(v, s graph.NodeID) {
	w, bit := int(v>>6), uint64(1)<<(uint64(v)&63)
	r1 := b.reach1[w]
	if r1&bit == 0 {
		if r1 == 0 {
			b.touchedW = append(b.touchedW, int32(w))
		}
		b.reach1[w] = r1 | bit
		b.firstFrom[v] = s
	} else {
		b.reach2[w] |= bit
	}
}

// addUnrel records an unreliable delivery from s to v: the reach state
// updates like a reliable delivery and the pair is appended to the round's
// list and to the tail of v's chain, preserving sink-add order for lazy
// materialization. It records nothing and returns false when v's chain
// already holds a delivery from s.
func (b *runBuffers) addUnrel(v, s graph.NodeID) bool {
	for i := b.unrelHead[v]; i >= 0; i = b.unrel[i].next {
		if b.unrel[i].from == s {
			return false
		}
	}
	b.addReach(v, s)
	i := int32(len(b.unrel))
	b.unrel = append(b.unrel, unrelDelivery{from: s, to: v, next: -1})
	if t := b.unrelTail[v]; t < 0 {
		b.unrelHead[v] = i
	} else {
		b.unrel[t].next = i
	}
	b.unrelTail[v] = i
	return true
}

// materializeReaching rebuilds the full reaching list of non-sender v in the
// order the old per-edge path produced it — reliable senders ascending, then
// unreliable deliveries in sink-add order — into a scratch slice that is
// reused on the next call. Only CR4 resolves and sink walks pay this; the
// count-class rules never do. sent is the round's sender bitset, which
// filters the epoch's reliable in-row.
func (b *runBuffers) materializeReaching(v graph.NodeID, sent []uint64) []graph.NodeID {
	mat := b.mat[:0]
	for _, w := range b.dual.Row(v, graph.ReliableIn, &b.row) {
		if hasBit(sent, int(w)) {
			mat = append(mat, w)
		}
	}
	for i := b.unrelHead[v]; i >= 0; i = b.unrel[i].next {
		mat = append(mat, b.unrel[i].from)
	}
	b.mat = mat
	return mat
}

// Config parameterizes a run. A zero field takes its default; Resolve
// applies the defaults and rejects, with ErrBadConfig, a Rule outside
// CR1..CR4, a Start that is neither SyncStart nor AsyncStart, and a negative
// MaxRounds. Start resolves its Config once, so a run never meets a bad rule
// mid-execution.
type Config struct {
	// Rule is the collision rule (default CR4, the weakest).
	Rule CollisionRule
	// Start is the start rule (default AsyncStart, the weakest).
	Start StartRule
	// MaxRounds caps the execution length; 0 means the default cap,
	// 200n²+10000, well above the paper's O(n^{3/2}√log n) worst case for
	// the sizes simulated.
	MaxRounds int
	// Seed makes the run reproducible.
	Seed int64
}

// Resolve returns c with its defaults applied for an n-node network, or an
// ErrBadConfig error naming the first field outside the model.
func (c Config) Resolve(n int) (Config, error) {
	if c.Rule == 0 {
		c.Rule = CR4
	}
	if c.Start == 0 {
		c.Start = AsyncStart
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 200*n*n + 10000
	}
	switch {
	case c.Rule < CR1 || c.Rule > CR4:
		return c, fmt.Errorf("%w: unknown collision rule %v", ErrBadConfig, c.Rule)
	case c.Start != SyncStart && c.Start != AsyncStart:
		return c, fmt.Errorf("%w: unknown start rule %v", ErrBadConfig, c.Start)
	case c.MaxRounds < 0:
		return c, fmt.Errorf("%w: negative MaxRounds %d", ErrBadConfig, c.MaxRounds)
	}
	return c, nil
}

// Result reports the outcome of a run.
type Result struct {
	// Completed reports whether every process received the message.
	Completed bool
	// Rounds is the round in which the last process first received the
	// message (0 when n == 1 holders initially); if not completed it is the
	// number of rounds executed.
	Rounds int
	// FirstReceive maps node -> round of first receipt of the broadcast
	// message (0 for the source, -1 if never).
	FirstReceive []int
	// Transmissions counts all transmissions across the execution.
	Transmissions int
	// ProcOf is the node -> process id assignment used.
	ProcOf []int
}

// errNilFork guards the RunForker contract.
var errNilFork = errors.New("RunForker returned a nil adversary")

// Errors returned by Run.
var (
	ErrBadConfig     = errors.New("invalid run config")
	ErrBadAssignment = errors.New("adversary returned an invalid proc assignment")
	ErrBadDelivery   = errors.New("adversary delivered along a non-unreliable edge")
	ErrBadResolve    = errors.New("adversary resolved CR4 to a non-reaching sender")
	ErrBadEpoch      = errors.New("schedule produced an epoch with a different node count or source")
)

// Run executes alg against adv on the fixed network d under cfg and returns
// the execution summary. It is exactly RunDynamic over a static schedule.
func Run(d *graph.Dual, alg Algorithm, adv Adversary, cfg Config) (*Result, error) {
	return RunDynamic(graph.Static(d), alg, adv, cfg)
}

// RunDynamic executes alg against adv on the time-varying network produced
// by sched and returns the execution summary: it is Start plus a Step loop
// that ends when the run is done.
func RunDynamic(sched graph.Schedule, alg Algorithm, adv Adversary, cfg Config) (*Result, error) {
	ex, err := Start(sched, alg, adv, cfg)
	for done := false; err == nil && !done; {
		done, err = ex.Step()
	}
	if err != nil {
		return nil, err
	}
	return ex.Result(), nil
}

// Execution is one run played a round at a time: Start sets it up, each
// Step plays the next round, and a caller may look or stop between Steps.
type Execution struct {
	cfg      Config
	sched    graph.Schedule
	adv      Adversary
	deliver  BufferedDeliverer // adv itself, or the map shim around it
	n        int
	src      graph.NodeID
	procs    []Process
	view     *View // the run's Dual, ProcOf and per-node bitsets
	buf      *runBuffers
	sink     *DeliverySink
	res      *Result
	holders  int
	round    int   // rounds played
	nextSwap int   // first round of the next epoch; never reached when static
	err      error // the failure that stopped the run

	// The optional contracts, fixed at Start. deaf: holders get no
	// Receive. planners (nil unless every process is a SendPlanner): next
	// holds each node's next possible send round, math.MaxInt while it is
	// inactive or has none, and soonest[w] is at most the least next of
	// the 64 nodes of bit word w, so the Decide walk skips a word with no
	// node due.
	deaf     bool
	planners []SendPlanner
	next     []int
	soonest  []int
}

// Start sets up a run of alg against adv on the time-varying network
// produced by sched, before its first round. The run starts on epoch 0;
// every EpochLength rounds the current Dual is swapped for the next epoch —
// algorithm and adversary state, the proc assignment (made once against
// epoch 0), and all per-node result tracking survive the swap, while the
// adversary's EdgeID universe is the current epoch's (View.Dual always
// points at it). Epoch materialization derives all randomness from
// (epoch, cfg.Seed) via the schedule's purity contract, so a run is
// reproducible from cfg.Seed alone, and the engine's per-trial seed
// derivation extends bit-identical-at-any-worker-count determinism to
// dynamic sweeps.
func Start(sched graph.Schedule, alg Algorithm, adv Adversary, cfg Config) (*Execution, error) {
	d, err := sched.Epoch(0, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("schedule epoch 0: %w", err)
	}
	n := d.N()
	if cfg, err = cfg.Resolve(n); err != nil {
		return nil, err
	}
	if f, ok := adv.(RunForker); ok {
		adv, err = f.ForkRun(sched, alg, cfg)
		if err != nil {
			return nil, fmt.Errorf("fork adversary: %w", err)
		}
		if adv == nil {
			return nil, fmt.Errorf("fork adversary: %w", errNilFork)
		}
	}
	procOf, err := adv.AssignProcs(d, rng.Stream(cfg.Seed, rng.AssignStream))
	if err != nil {
		return nil, fmt.Errorf("assign procs: %w", err)
	}
	if err := validateAssignment(procOf, n); err != nil {
		return nil, err
	}

	procs := make([]Process, n)
	valueRNG, _ := alg.(ValueRNGAlgorithm)
	for node := 0; node < n; node++ {
		pid := procOf[node]
		if valueRNG != nil {
			procs[node] = valueRNG.NewProcessRNG(pid, n, rng.StreamValue(cfg.Seed, rng.ProcStream(pid)))
		} else {
			procs[node] = alg.NewProcess(pid, n, rng.Stream(cfg.Seed, rng.ProcStream(pid)))
		}
	}

	src := d.Source()
	firstRecv := make([]int, n)
	for i := range firstRecv {
		firstRecv[i] = -1
	}
	firstRecv[src] = 0

	words := (n + 63) / 64
	bitsets := make([]uint64, 3*words)
	view := &View{
		Dual:   d,
		ProcOf: procOf,
		Rng:    rng.Stream(cfg.Seed, rng.AdversaryStream),
		hold:   bitsets[:words:words],
		act:    bitsets[words : 2*words : 2*words],
		sent:   bitsets[2*words:],
	}
	setBit(view.hold, int(src))

	procs[src].Start(1, true)
	setBit(view.act, int(src))
	if cfg.Start == SyncStart {
		for node := 0; node < n; node++ {
			if graph.NodeID(node) != src {
				procs[node].Start(1, false)
				setBit(view.act, node)
			}
		}
	}

	buf := newRunBuffers(d)
	ex := &Execution{
		cfg:   cfg,
		sched: sched,
		adv:   adv,
		n:     n,
		src:   src,
		procs: procs,
		view:  view,
		buf:   buf,
		sink:  &DeliverySink{sent: view.sent, buf: buf},
		res:   &Result{FirstReceive: firstRecv, ProcOf: procOf},

		holders: 1,
		// A static schedule (EpochLength 0 — every sim.Run) never reaches
		// nextSwap, so the only schedule cost of a round is one compare.
		nextSwap: math.MaxInt,
	}
	if l := sched.EpochLength(); l > 0 {
		ex.nextSwap = 1 + l
	}
	// Wrap a map-only adversary once: the round loop makes one delivery
	// call and no type assertion.
	if bd, ok := adv.(BufferedDeliverer); ok {
		ex.deliver = bd
	} else {
		ex.deliver = mapDeliverer{adv}
	}
	if dh, ok := alg.(DeafHolders); ok {
		ex.deaf = dh.HoldersIgnoreReceptions()
	}
	ex.planSends()
	return ex, nil
}

// planSends turns the SendPlanner contract on when every process is a
// SendPlanner: each active node's next send round is asked for round 1, and
// an inactive node's waits for its activation.
func (ex *Execution) planSends() {
	for _, p := range ex.procs {
		if _, ok := p.(SendPlanner); !ok {
			return
		}
	}
	ex.planners = make([]SendPlanner, ex.n)
	// soonest starts at 0, so the first Decide walk visits every word.
	rounds := make([]int, ex.n+len(ex.view.act))
	ex.next, ex.soonest = rounds[:ex.n:ex.n], rounds[ex.n:]
	for node, p := range ex.procs {
		ex.planners[node] = p.(SendPlanner)
		ex.next[node] = math.MaxInt
		if ex.view.Active(graph.NodeID(node)) {
			ex.plan(node, ex.planners[node].NextSend(1))
		}
	}
}

// plan records t as node's next send round.
func (ex *Execution) plan(node, t int) {
	ex.next[node] = t
	ex.soonest[node>>6] = min(ex.soonest[node>>6], t)
}

// Step plays the next round and reports whether the run is done: every
// node holds the message, or the round is the MaxRounds cap. Stepping a
// completed run plays further rounds up to the cap and leaves FirstReceive,
// Completed and Rounds unchanged; at the cap Step plays nothing and returns
// true. A failed round returns its error, and so does every later Step.
func (ex *Execution) Step() (done bool, err error) {
	if ex.err != nil || ex.round >= ex.cfg.MaxRounds {
		return true, ex.err
	}
	ex.round++
	// The swap happens after clearRound, so the buffers carry no round
	// state across the boundary.
	ex.buf.clearRound()
	if ex.round == ex.nextSwap {
		l := ex.sched.EpochLength()
		ex.err = ex.swapEpoch((ex.round - 1) / l)
		ex.nextSwap += l
	}
	if ex.err == nil {
		ex.err = ex.step(ex.round)
	}
	return ex.err != nil || ex.holders == ex.n || ex.round == ex.cfg.MaxRounds, ex.err
}

// Round returns the number of rounds played.
func (ex *Execution) Round() int { return ex.round }

// Senders returns the nodes that transmitted in the last round played, in
// ascending order. The slice is owned by the run and valid until the next
// Step.
func (ex *Execution) Senders() []graph.NodeID { return ex.buf.senders }

// Result reports the run so far: once every node holds the message,
// Completed is set and Rounds stays the completion round; until then Rounds
// is the number of rounds played. The Result is the run's own, so later
// Steps update it.
func (ex *Execution) Result() *Result { return ex.res }

// swapEpoch installs the schedule's network for epoch e: validate it, point
// the view and the buffers at it, and refresh the dense mode's masks.
// Identical-pointer epochs (no-op churn/fade draws, cached epochs) skip the
// swap entirely.
func (ex *Execution) swapEpoch(e int) error {
	nd, err := ex.sched.Epoch(e, ex.cfg.Seed)
	if err != nil {
		return fmt.Errorf("schedule epoch %d: %w", e, err)
	}
	if nd.N() != ex.n {
		return fmt.Errorf("%w: epoch %d has %d nodes, run started with %d",
			ErrBadEpoch, e, nd.N(), ex.n)
	}
	if nd.Source() != ex.src {
		return fmt.Errorf("%w: epoch %d moved the source to %d, run started at %d",
			ErrBadEpoch, e, nd.Source(), ex.src)
	}
	if nd == ex.view.Dual {
		if metrics.Enabled() {
			mEpochSwapsNoop.Inc()
		}
		return nil
	}
	if metrics.Enabled() {
		mEpochSwaps.Inc()
	}
	ex.view.Dual = nd
	ex.buf.setDual(nd)
	return nil
}

// step executes one round against the current network: decide, deliver,
// then compute receptions from the count-class bitsets. The delivery modes
// differ only in the reliable pass (word-parallel in dense mode); what step
// reads after it has one form. It assumes clearRound ran first.
//
// A round visits only nodes that may act. The Decide pass is one walk over
// the active nodes, ascending; with SendPlanner processes it skips a node
// whose planned round has not come, and a word of 64 nodes none of which is
// due (a node whose round has come is always active). The reception pass
// is one walk over the nodes whose state a reception can change: (reached
// | active) minus the deaf holders (the holders, when the algorithm
// declares DeafHolders; no node otherwise). An unreached asleep
// node stays asleep, and a deaf holder neither listens nor becomes a new
// holder. The one exception is CR4 in a round the adversary did not
// silence: a collided deaf holder is visited too, because the adversary
// sees its Resolve call.
func (ex *Execution) step(round int) error {
	v, buf := ex.view, ex.buf
	v.Round = round
	procs, planners, next, soonest := ex.procs, ex.planners, ex.next, ex.soonest
	for w, m := range v.act {
		if planners != nil {
			if soonest[w] > round {
				m = 0 // no node of the word is due
			} else {
				soonest[w] = math.MaxInt // the walk of the word recomputes it
			}
		}
		var sent uint64
		for ; m != 0; m &= m - 1 {
			node := w<<6 + bits.TrailingZeros64(m)
			if planners != nil && next[node] > round {
				soonest[w] = min(soonest[w], next[node])
				continue
			}
			send := procs[node].Decide(round)
			if planners != nil {
				ex.plan(node, planners[node].NextSend(round+1))
			}
			if send {
				sent |= m & -m
				buf.senders = append(buf.senders, graph.NodeID(node))
			}
		}
		v.sent[w] = sent
	}
	senders := buf.senders
	ex.res.Transmissions += len(senders)

	buf.deliverReliable(senders)
	// Unreliable deliveries: adversary's choice, validated by the sink.
	ex.sink.err, ex.sink.silent = nil, false
	if len(senders) > 0 {
		ex.deliver.DeliverInto(v, senders, ex.sink)
		if ex.sink.err != nil {
			return ex.sink.err
		}
	}

	// Receptions come straight off the count-class bitsets; reaching lists
	// are materialized only for CR4 resolves. Broadcast/Own are evaluated
	// against the start-of-round holder set; hold is only updated after all
	// receptions are computed. The walk visits nodes in ascending order, so
	// Resolve calls come in the order of a walk over every node.
	// hold&deafMask is the set of deaf holders, and reach2&collided those of
	// them a Resolve call still reaches.
	var deafMask, collided uint64
	if ex.deaf {
		deafMask = ^uint64(0)
	}
	if ex.cfg.Rule == CR4 && !ex.sink.silent {
		collided = ^uint64(0)
	}
	for w, r1 := range buf.reach1 {
		dh := v.hold[w] & deafMask
		m := (r1|v.act[w])&^dh | buf.reach2[w]&dh&collided
		for ; m != 0; m &= m - 1 {
			if err := ex.hear(round, w<<6+bits.TrailingZeros64(m)); err != nil {
				return err
			}
		}
	}
	for _, node := range buf.newHolders {
		setBit(v.hold, int(node))
		ex.res.FirstReceive[node] = round
		ex.holders++
	}
	if !ex.res.Completed {
		ex.res.Rounds = round
		ex.res.Completed = ex.holders == ex.n
	}
	return nil
}

// hear computes node's reception this round, records it as a new holder
// when the reception carries the message, and hands the reception to its
// process: to an active one unless it is a deaf holder, and to an asleep
// one that a message wakes under asynchronous starts.
func (ex *Execution) hear(round, node int) error {
	v, u := ex.view, graph.NodeID(node)
	active := v.Active(u)
	listens := active && !(ex.deaf && v.HasMessage(u))
	if !ex.buf.reached(u) {
		// Every sender reaches itself, so an unreached node sent nothing
		// and hears silence under every rule; an inactive one stays
		// asleep.
		if listens {
			ex.receive(round, node, Reception{Kind: Silence})
		}
		return nil
	}
	rec, err := ex.reception(u)
	if err != nil {
		return err
	}
	if rec.Kind == Delivered && rec.Broadcast && !rec.Own && !v.HasMessage(u) {
		ex.buf.newHolders = append(ex.buf.newHolders, u)
	}
	switch {
	case listens:
		ex.receive(round, node, rec)
	case !active && rec.Kind == Delivered && ex.cfg.Start == AsyncStart:
		// Asynchronous activation: the process wakes on its first
		// received message and observes that reception.
		ex.procs[node].Start(round, false)
		setBit(v.act, node)
		ex.receive(round, node, rec)
	}
	return nil
}

// setBit sets bit i of the bitset b.
func setBit(b []uint64, i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// hasBit reports whether bit i of the bitset b is set.
func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// receive calls node's Receive and, under SendPlanner, asks it again for
// its next send round, since the reception may have changed it.
func (ex *Execution) receive(round, node int, rec Reception) {
	ex.procs[node].Receive(round, rec)
	if ex.planners != nil {
		ex.plan(node, ex.planners[node].NextSend(round+1))
	}
}

// deliverFrom builds the Delivered reception node observes for sender s.
func (ex *Execution) deliverFrom(node, s graph.NodeID) Reception {
	return Reception{
		Kind:      Delivered,
		From:      s,
		FromProc:  ex.view.ProcOf[s],
		Broadcast: ex.view.HasMessage(s),
		Own:       s == node,
	}
}

// reception computes what a reached node hears this round under the run's
// collision rule, from its count class (reached once or collided): its own
// message if it sent under CR2–CR4, the lone message, ⊤ under CR1/CR2, ⊥
// under CR3 or in a silenced round, else the adversary's CR4 choice.
func (ex *Execution) reception(node graph.NodeID) (Reception, error) {
	buf, rule, sent := ex.buf, ex.cfg.Rule, ex.view.sent
	switch {
	case rule != CR1 && hasBit(sent, int(node)):
		return ex.deliverFrom(node, node), nil
	case !buf.collided(node):
		return ex.deliverFrom(node, buf.firstFrom[node]), nil
	case rule <= CR2:
		return Reception{Kind: Collision}, nil
	case rule == CR3 || ex.sink.silent:
		return Reception{Kind: Silence}, nil
	}
	reaching := buf.materializeReaching(node, sent)
	choice := ex.adv.Resolve(ex.view, node, reaching)
	if choice == NoDelivery {
		return Reception{Kind: Silence}, nil
	}
	for _, s := range reaching {
		if s == choice {
			return ex.deliverFrom(node, s), nil
		}
	}
	return Reception{}, fmt.Errorf("%w: node %d chose %d", ErrBadResolve, node, choice)
}

func validateAssignment(procOf []int, n int) error {
	if len(procOf) != n {
		return fmt.Errorf("%w: length %d, want %d", ErrBadAssignment, len(procOf), n)
	}
	seen := make([]bool, n+1)
	for node, pid := range procOf {
		if pid < 1 || pid > n || seen[pid] {
			return fmt.Errorf("%w: node %d has pid %d", ErrBadAssignment, node, pid)
		}
		seen[pid] = true
	}
	return nil
}
