// Package exhaustive performs worst-case adversary search by exhaustive
// exploration: for small networks and bounded horizons it enumerates every
// possible per-round choice of unreliable-edge deliveries, replaying the
// (deterministic) algorithm along each branch, and reports the execution
// that maximizes broadcast completion time.
//
// This turns the model's universally-quantified adversary into an executable
// check: "algorithm A completes within k rounds on network N under every
// adversary behaviour" becomes a terminating search. Heuristic adversaries
// (such as adversary.GreedyCollider) can be validated against the true
// worst case it finds.
//
// A per-round adversary strategy is a subset of the round's deliverable
// unreliable arcs, represented as a bitset over the dual's dense EdgeID
// index; scripts are replayed through the engine's allocation-free edge-id
// sink. The search replays executions from round 1 for every expansion, so
// the algorithm must be deterministic (it must ignore its rng); a replay
// stops at the completion round, past which nothing is read. A replayed
// script reaches one search position, a turn: the next round's epoch,
// senders, deliverable arcs and holders. Its choices are deduplicated by
// reception signature, which keeps the tree small on the paper's
// constructions.
//
// The package has two drivers over one shared game: Search/SearchSchedule is
// the offline enumerator (the whole tree, up front), and Planner is the
// memoized online form of the same search — the engine behind
// adversary.Adaptive — which best-responds one round at a time against a live
// run while a transposition table carries everything the earlier rounds
// already explored. Both expand a position through the same turn.
package exhaustive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// Config parameterizes a search.
type Config struct {
	// Rule is the collision rule (CR4 collisions resolve to silence during
	// the search; see package comment). Default CR1.
	Rule sim.CollisionRule
	// Start is the start rule (default SyncStart, the lower-bound setting).
	Start sim.StartRule
	// Horizon bounds execution length; branches that have not completed by
	// the horizon are counted as incomplete.
	Horizon int
	// MaxBranches caps the total number of explored branches; the search
	// returns ErrBudgetExceeded beyond it.
	MaxBranches int
	// MaxArcsPerRound caps the number of deliverable unreliable arcs
	// enumerated in one round (2^arcs subsets); beyond it the search fails
	// rather than silently truncating. It is capped at 62 so a round's
	// strategy always fits one edge-id bitset word.
	MaxArcsPerRound int
	// Seed drives epoch materialization for schedule-aware searches
	// (SearchSchedule): the worst case is searched within the topology
	// trajectory this seed induces. Static searches ignore it beyond the
	// (inert) process rngs, so the default 0 reproduces the historical
	// Search behaviour exactly.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Rule == 0 {
		c.Rule = sim.CR1
	}
	if c.Start == 0 {
		c.Start = sim.SyncStart
	}
	if c.Horizon == 0 {
		c.Horizon = 32
	}
	if c.MaxBranches == 0 {
		c.MaxBranches = 200000
	}
	if c.MaxArcsPerRound == 0 {
		c.MaxArcsPerRound = 16
	}
	if c.MaxArcsPerRound > 62 {
		c.MaxArcsPerRound = 62
	}
	return c
}

// validate rejects the negative bounds no default repairs.
func (c Config) validate() error {
	if c.Horizon < 0 {
		return fmt.Errorf("exhaustive: Horizon %d < 0", c.Horizon)
	}
	if c.MaxBranches < 0 {
		return fmt.Errorf("exhaustive: MaxBranches %d < 0", c.MaxBranches)
	}
	if c.MaxArcsPerRound < 0 {
		return fmt.Errorf("exhaustive: MaxArcsPerRound %d < 0", c.MaxArcsPerRound)
	}
	return nil
}

// Result reports the outcome of a search.
type Result struct {
	// WorstRounds is the maximum completion round over all explored
	// adversary behaviours (Horizon+1 when some behaviour prevents
	// completion within the horizon).
	WorstRounds int
	// AllComplete reports whether every adversary behaviour allowed the
	// broadcast to complete within the horizon.
	AllComplete bool
	// Branches counts the distinct executions explored.
	Branches int
	// WorstDeliveries is the per-round delivery script of a worst execution
	// (round r at index r-1; each entry lists delivered unreliable arcs).
	WorstDeliveries [][]Arc
}

// Arc is a directed unreliable edge scheduled by the adversary.
type Arc struct {
	From, To graph.NodeID
}

// Errors returned by Search and Planner.
var (
	ErrBudgetExceeded = errors.New("exhaustive search exceeded its branch budget")
	ErrTooManyArcs    = errors.New("too many deliverable unreliable arcs in one round")
)

// Search explores all adversary delivery behaviours for alg on d and
// returns the worst case. The proc assignment is the identity.
func Search(d *graph.Dual, alg sim.Algorithm, cfg Config) (*Result, error) {
	return SearchSchedule(graph.Static(d), alg, cfg)
}

// SearchSchedule is Search over a time-varying network: the adversary's
// per-round choices are searched within the topology trajectory that
// (sched, cfg.Seed) induces, with each round's deliverable arcs and edge ids
// resolved against that round's epoch. A static schedule is exactly Search.
func SearchSchedule(sched graph.Schedule, alg sim.Algorithm, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &searcher{g: newGame(sched, alg, cfg.Rule, cfg.Start, cfg.Seed), cfg: cfg}
	res := &Result{AllComplete: true}
	if err := s.explore(nil, res); err != nil {
		return nil, err
	}
	res.Branches = s.branches
	return res, nil
}

type searcher struct {
	g        *game
	cfg      Config
	branches int
}

// game is the machinery shared by the offline searcher and the online
// planner: a fixed (schedule, algorithm, rule, start, seed) tuple, script
// replay through the simulator, and the per-round dual resolution that keeps
// edge ids epoch-correct on dynamic schedules.
type game struct {
	sched *epochMemo
	alg   sim.Algorithm
	rule  sim.CollisionRule
	start sim.StartRule
	seed  int64
}

func newGame(sched graph.Schedule, alg sim.Algorithm, rule sim.CollisionRule, start sim.StartRule, seed int64) *game {
	return &game{sched: &epochMemo{Schedule: sched, seed: seed}, alg: alg, rule: rule, start: start, seed: seed}
}

// epochMemo wraps the game's schedule so every epoch materializes once per
// game: each search node replays from round 1, and without the memo every
// replay would rebuild epochs 0..e. Epoch's purity contract and the game's
// fixed seed make the memo exact; a game belongs to one search or one run's
// planner fork, so it needs no lock. Replays and planning never pass the
// search horizon, which bounds the memo's size.
type epochMemo struct {
	graph.Schedule
	seed  int64
	duals []*graph.Dual // by epoch index; nil = not built yet
}

// Epoch implements graph.Schedule, serving the game's seed from the memo.
func (m *epochMemo) Epoch(e int, seed int64) (*graph.Dual, error) {
	if seed != m.seed || e < 0 {
		return m.Schedule.Epoch(e, seed)
	}
	if e < len(m.duals) && m.duals[e] != nil {
		return m.duals[e], nil
	}
	d, err := m.Schedule.Epoch(e, seed)
	if err != nil {
		return nil, err
	}
	for len(m.duals) <= e {
		m.duals = append(m.duals, nil)
	}
	m.duals[e] = d
	return d, nil
}

// dualAt returns the network of the given (1-based) round.
func (g *game) dualAt(round int) (*graph.Dual, error) {
	e := 0
	if l := g.sched.EpochLength(); l > 0 {
		e = (round - 1) / l
	}
	d, err := g.sched.Epoch(e, g.seed)
	if err != nil {
		return nil, fmt.Errorf("schedule epoch %d: %w", e, err)
	}
	return d, nil
}

// replay runs the algorithm under the given script until it completes or has
// played `rounds` rounds, and returns the run, stopped after its last round.
// each, when set, sees the run after every round; its error stops the
// replay.
func (g *game) replay(script [][]graph.EdgeID, rounds int, each func(*sim.Execution) error) (*sim.Execution, error) {
	ex, err := sim.Start(g.sched, g.alg, &scriptedAdversary{script: script}, sim.Config{
		Rule:      g.rule,
		Start:     g.start,
		MaxRounds: rounds,
		Seed:      g.seed,
	})
	for done := false; err == nil && !done; {
		if done, err = ex.Step(); err == nil && each != nil {
			err = each(ex)
		}
	}
	if err != nil {
		return nil, err
	}
	return ex, nil
}

// scriptedAdversary replays a fixed per-round script of unreliable edge
// ids; rounds beyond the script deliver nothing. Edge ids are dense per
// epoch, so they are always resolved against the View's current Dual.
type scriptedAdversary struct {
	script [][]graph.EdgeID
}

var (
	_ sim.Adversary         = (*scriptedAdversary)(nil)
	_ sim.BufferedDeliverer = (*scriptedAdversary)(nil)
)

func (scriptedAdversary) Name() string { return "scripted" }

func (scriptedAdversary) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	procOf := make([]int, d.N())
	for i := range procOf {
		procOf[i] = i + 1
	}
	return procOf, nil
}

func (a *scriptedAdversary) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer: scripted edge ids feed the
// sink's direct-index entry point, so replays allocate nothing per round.
func (a *scriptedAdversary) DeliverInto(v *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
	if v.Round > len(a.script) {
		return
	}
	for _, id := range a.script[v.Round-1] {
		sink.AddEdgeID(id)
	}
}

func (a *scriptedAdversary) Resolve(_ *sim.View, _ graph.NodeID, _ []graph.NodeID) graph.NodeID {
	return sim.NoDelivery
}

// explore extends the script by one round in every inequivalent way.
func (s *searcher) explore(script [][]graph.EdgeID, res *Result) error {
	s.branches++
	if s.branches > s.cfg.MaxBranches {
		return ErrBudgetExceeded
	}
	depth := len(script)

	// Replay the prefix plus one round with no deliveries: either the
	// broadcast completed within the prefix, or the replay shows the
	// position entering round depth+1.
	run, err := s.g.replay(script, depth+1, nil)
	if err != nil {
		return err
	}
	worst, complete := completionOf(run, depth)
	if !complete {
		if depth < s.cfg.Horizon {
			t, err := s.g.turnAt(run, s.cfg.MaxArcsPerRound)
			if err != nil {
				return err
			}
			// Children append in place: a subtree writes only past its own
			// depth and never retains the script, so siblings may share it.
			return t.choices(s.cfg.Rule, func(choice []graph.EdgeID, _ []byte) error {
				return s.explore(append(script, choice), res)
			})
		}
		res.AllComplete = false
		worst = s.cfg.Horizon + 1
	}
	if worst > res.WorstRounds {
		res.WorstRounds = worst
		res.WorstDeliveries, err = s.g.decodeScript(script)
	}
	return err
}

// turn is one search position: what the adversary's choice in round `round`
// depends on, read off a run that has just played that round. A choice is a
// bitset over edges, the senders' deliverable arcs in ascending EdgeID order.
type turn struct {
	round   int
	d       *graph.Dual
	senders []graph.NodeID // ascending
	edges   []graph.EdgeID
	holders []bool  // holding the message entering the round
	reach   []reach // one mask's reach per node; reused across masks
	sig     []byte  // one mask's signature; reused across masks
}

// reach is what a node's reception depends on: whether it sends, how many
// senders reach it, and the first of them.
type reach struct {
	sender bool
	count  int32
	first  graph.NodeID
}

func (r *reach) add(from graph.NodeID) {
	if r.count == 0 {
		r.first = from
	}
	r.count++
}

// turnAt returns the position entering the round run has just played, which
// must not have completed before it. The turn holds the run's sender slice,
// so run must not be stepped again. Rounds with more deliverable arcs than
// maxArcs fail with ErrTooManyArcs.
func (g *game) turnAt(run *sim.Execution, maxArcs int) (*turn, error) {
	r := run.Round()
	d, err := g.dualAt(r)
	if err != nil {
		return nil, err
	}
	t := &turn{round: r, d: d, senders: run.Senders(), holders: make([]bool, d.N())}
	t.edges = deliverableEdges(d, t.senders)
	if len(t.edges) > maxArcs {
		return nil, fmt.Errorf("%w: %d arcs at round %d (cap %d)", ErrTooManyArcs, len(t.edges), r, maxArcs)
	}
	for node, first := range run.Result().FirstReceive {
		t.holders[node] = first >= 0 && first < r
	}
	return t, nil
}

// signature summarizes the observable outcome of the choice `mask`: per
// node, the reception kind and (for deliveries) the sending node and its
// holder status. Choices with equal signatures lead to identical algorithm
// states and need exploring only once — and, chained round by round, the
// signatures fully determine the execution state, which is what makes the
// planner's transposition keys exact. The bytes live in the turn's buffer
// until its next signature call.
func (t *turn) signature(rule sim.CollisionRule, mask uint64) []byte {
	if t.reach == nil {
		t.reach = make([]reach, t.d.N())
	}
	clear(t.reach)
	for _, snd := range t.senders {
		t.reach[snd].sender = true
		t.reach[snd].add(snd)
		for _, v := range t.d.G().Out(snd) {
			t.reach[v].add(snd)
		}
	}
	for i, id := range t.edges {
		if mask&(1<<uint(i)) != 0 {
			from, to := t.d.UnreliableEdge(id)
			t.reach[to].add(from)
		}
	}
	t.sig = t.sig[:0]
	for node, r := range t.reach {
		t.sig = appendReception(t.sig, rule, graph.NodeID(node), r, t.holders)
	}
	return t.sig
}

// choices visits the turn's inequivalent choices: masks ascend, and only
// the lowest mask of each signature class is visited. visit gets the chosen
// edge ids (fresh, ascending) and the choice's signature, which stays valid
// for the call.
func (t *turn) choices(rule sim.CollisionRule, visit func(choice []graph.EdgeID, sig []byte) error) error {
	seen := make(map[string]bool)
	for mask := uint64(0); mask < 1<<len(t.edges); mask++ {
		sig := t.signature(rule, mask)
		if seen[string(sig)] {
			continue
		}
		seen[string(sig)] = true
		choice := make([]graph.EdgeID, 0, len(t.edges))
		for i, id := range t.edges {
			if mask&(1<<uint(i)) != 0 {
				choice = append(choice, id)
			}
		}
		if err := visit(choice, sig); err != nil {
			return err
		}
	}
	return nil
}

// completionOf returns the completion round if run completed within its
// first `rounds` rounds.
func completionOf(run *sim.Execution, rounds int) (int, bool) {
	res := run.Result()
	return res.Rounds, res.Completed && res.Rounds <= rounds
}

// deliverableEdges lists the ids of the unreliable arcs available to the
// senders on d. Ids ascend when the senders do: each sender's fringe row is
// a contiguous ascending id range.
func deliverableEdges(d *graph.Dual, senders []graph.NodeID) []graph.EdgeID {
	var edges []graph.EdgeID
	for _, snd := range senders {
		base, targets := d.UnreliableEdges(snd)
		for i := range targets {
			edges = append(edges, base+graph.EdgeID(i))
		}
	}
	return edges
}

// decodeScript expands a per-round edge-id script into (from, to) arcs for
// the public result, resolving each round's ids against that round's epoch.
func (g *game) decodeScript(script [][]graph.EdgeID) ([][]Arc, error) {
	out := make([][]Arc, len(script))
	for r, round := range script {
		d, err := g.dualAt(r + 1)
		if err != nil {
			return nil, err
		}
		arcs := make([]Arc, len(round))
		for i, id := range round {
			from, to := d.UnreliableEdge(id)
			arcs[i] = Arc{From: from, To: to}
		}
		out[r] = arcs
	}
	return out, nil
}

// Reception kinds of a signature entry. A delivery entry is followed by the
// sender's full 32-bit node id, so the encoding is prefix-free at any n:
// no node id can read as a kind, and ids never alias each other.
const (
	sigSilence byte = iota
	sigCollision
	sigDelivered       // from a non-holder
	sigDeliveredHolder // from a holder
)

// appendReception appends node's signature entry: what it hears this round
// under rule, given the senders reaching it.
func appendReception(sig []byte, rule sim.CollisionRule, node graph.NodeID, r reach, holders []bool) []byte {
	delivered := func(from graph.NodeID) []byte {
		kind := sigDelivered
		if holders[from] {
			kind = sigDeliveredHolder
		}
		return binary.LittleEndian.AppendUint32(append(sig, kind), uint32(from))
	}
	switch rule {
	case sim.CR1:
		switch r.count {
		case 0:
			return append(sig, sigSilence)
		case 1:
			return delivered(r.first)
		default:
			return append(sig, sigCollision)
		}
	default: // CR2, CR3, CR4(silence)
		if r.sender {
			return delivered(node)
		}
		switch r.count {
		case 0:
			return append(sig, sigSilence)
		case 1:
			return delivered(r.first)
		}
		if rule == sim.CR2 {
			return append(sig, sigCollision)
		}
		return append(sig, sigSilence)
	}
}
