package exhaustive

import (
	"fmt"

	"dualgraph/internal/graph"
	"dualgraph/internal/metrics"
	"dualgraph/internal/rng"
	"dualgraph/internal/sim"
)

// PlannerConfig parameterizes an online best-response planner.
type PlannerConfig struct {
	// Rule is the collision rule of the run being planned against (CR4
	// collisions resolve to silence, the adversary's choice). Default CR1.
	Rule sim.CollisionRule
	// Start is the start rule (default SyncStart).
	Start sim.StartRule
	// Seed is the run seed of the execution being planned against; replays
	// and epoch materialization use it, so the planner's model of the run is
	// exact (deterministic algorithms ignore it, randomized ones are
	// predicted perfectly — the paper's adversary knows the coin flips of
	// the past and, through replay, the algorithm's committed behaviour).
	Seed int64
	// SearchRounds is the evaluation horizon: executions that have not
	// completed by then are valued SearchRounds+1 (incomplete, the worst
	// outcome). Default 32.
	SearchRounds int
	// DeliverRounds is the adversary's delivery horizon h: unreliable
	// deliveries are allowed only in rounds 1..h, so the strategy sets nest
	// as h grows — value(h) ≤ value(h+1) by construction, and
	// h ≥ SearchRounds is the unbounded best response. 0 means unbounded
	// (clamped to SearchRounds, beyond which deliveries cannot matter).
	DeliverRounds int
	// NodeBudget caps the search-tree expansions (replays) of one Plan
	// call; when exceeded the remaining subtrees are skipped and Plan
	// degrades to the best choice found so far — still deterministic, no
	// longer exact. Truncated subtree values are never memoized. Default
	// 200000.
	NodeBudget int
	// TableSize caps the transposition-table entry count; a full table
	// stops admitting (correctness is unaffected, later rounds just
	// re-search). Default 65536.
	TableSize int
	// MaxArcsPerRound caps the deliverable arcs enumerated in one round
	// (2^arcs subsets before signature dedup); beyond it planning fails with
	// ErrTooManyArcs rather than silently truncating. Default 16, cap 62.
	MaxArcsPerRound int
}

func (c PlannerConfig) withDefaults() PlannerConfig {
	if c.Rule == 0 {
		c.Rule = sim.CR1
	}
	if c.Start == 0 {
		c.Start = sim.SyncStart
	}
	if c.SearchRounds == 0 {
		c.SearchRounds = 32
	}
	if c.DeliverRounds == 0 || c.DeliverRounds > c.SearchRounds {
		c.DeliverRounds = c.SearchRounds
	}
	if c.NodeBudget == 0 {
		c.NodeBudget = 200000
	}
	if c.TableSize == 0 {
		c.TableSize = 1 << 16
	}
	if c.MaxArcsPerRound == 0 {
		c.MaxArcsPerRound = 16
	}
	if c.MaxArcsPerRound > 62 {
		c.MaxArcsPerRound = 62
	}
	return c
}

// Planner is the memoized online form of the exhaustive search: Plan(prefix)
// returns the delivery choice for round len(prefix)+1 that maximizes the
// eventual completion round, assuming the planner keeps best-responding in
// later rounds. It is the engine behind adversary.Adaptive.
//
// The search state after a script prefix is fully determined by the chain of
// per-round reception signatures (the algorithm is deterministic given the
// run seed), so subtree values are memoized in a transposition table keyed
// on a 64-bit chained hash of those signatures — each link also mixes the
// round index, which pins the epoch of dynamic schedules and the parity-
// and horizon-dependence of the value. Rounds after the first therefore
// re-use everything round 1 explored: a warm Plan call is one prefix replay
// plus table lookups.
//
// Determinism contract: for a fixed (schedule, algorithm, config), Plan is a
// pure function of the prefix — masks are enumerated in ascending bitset
// order, signature-equal choices are represented by the first (lowest-mask,
// hence lowest-EdgeID) member of their class, and ties in value keep the
// first maximizer. No randomness, no map-iteration order, no wall clock:
// adaptive-adversary sweeps stay bit-identical at any worker count.
//
// A Planner is not safe for concurrent use; fork one per run.
type Planner struct {
	g     *game
	cfg   PlannerConfig
	table map[uint64]int32
	// Work of the current Plan call, flushed to the metrics when it returns.
	nodes, lookups, hits int
}

// NewPlanner builds a planner for alg on sched under cfg.
func NewPlanner(sched graph.Schedule, alg sim.Algorithm, cfg PlannerConfig) (*Planner, error) {
	cfg = cfg.withDefaults()
	if cfg.SearchRounds < 1 {
		return nil, fmt.Errorf("planner: search rounds %d < 1", cfg.SearchRounds)
	}
	if cfg.DeliverRounds < 1 {
		return nil, fmt.Errorf("planner: delivery horizon %d < 1", cfg.DeliverRounds)
	}
	if cfg.NodeBudget < 1 {
		return nil, fmt.Errorf("planner: node budget %d < 1", cfg.NodeBudget)
	}
	if cfg.TableSize < 0 {
		return nil, fmt.Errorf("planner: table size %d < 0", cfg.TableSize)
	}
	if cfg.MaxArcsPerRound < 0 {
		return nil, fmt.Errorf("planner: max arcs per round %d < 0", cfg.MaxArcsPerRound)
	}
	return &Planner{
		g:     newGame(sched, alg, cfg.Rule, cfg.Start, cfg.Seed),
		cfg:   cfg,
		table: make(map[uint64]int32),
	}, nil
}

// Config returns the planner's effective (defaulted) configuration.
func (p *Planner) Config() PlannerConfig { return p.cfg }

// TableLen reports the current transposition-table occupancy.
func (p *Planner) TableLen() int { return len(p.table) }

// rootHash seeds the signature chain (FNV-1a offset basis).
const rootHash uint64 = 14695981039346656037

// chainHash extends the signature chain: FNV-1a over sig and the round
// index, finalized SplitMix64-style so single-byte differences diffuse.
func chainHash(h uint64, sig []byte, round int) uint64 {
	const prime = 1099511628211
	z := h ^ uint64(round)*rng.Golden
	for i := 0; i < len(sig); i++ {
		z = (z ^ uint64(sig[i])) * prime
	}
	return rng.Mix64(z)
}

// Plan returns the best delivery for round len(prefix)+1 of the execution
// whose rounds so far delivered exactly prefix (round r at index r-1; pad
// rounds without deliveries with empty entries). The returned ids are over
// that round's epoch, ascending. A nil result means "deliver nothing": the
// broadcast already completed, or the round is beyond the delivery or
// search horizon.
func (p *Planner) Plan(prefix [][]graph.EdgeID) ([]graph.EdgeID, error) {
	p.nodes, p.lookups, p.hits = 0, 0, 0
	truncated := false
	defer func() {
		if metrics.Enabled() {
			mPlans.Inc()
			if truncated {
				mPlansTruncated.Inc()
			}
			mExpansions.Add(int64(p.nodes))
			mTableLookups.Add(int64(p.lookups))
			mTableHits.Add(int64(p.hits))
		}
	}()
	depth := len(prefix)
	if depth >= p.cfg.DeliverRounds { // DeliverRounds ≤ SearchRounds
		return nil, nil
	}
	// The replay hashes the played prefix as it goes: each round's position
	// and played mask give that round's signature.
	h := rootHash
	run, err := p.g.replay(prefix, depth+1, func(run *sim.Execution) error {
		if run.Round() > depth {
			return nil
		}
		t, err := p.g.turnAt(run, p.cfg.MaxArcsPerRound)
		if err != nil {
			return err
		}
		mask, err := maskOf(t.edges, prefix[t.round-1])
		if err != nil {
			return fmt.Errorf("prefix round %d: %w", t.round, err)
		}
		h = chainHash(h, t.signature(p.cfg.Rule, mask), t.round)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, done := completionOf(run, depth); done {
		return nil, nil
	}
	t, err := p.g.turnAt(run, p.cfg.MaxArcsPerRound)
	if err != nil {
		return nil, err
	}
	choice, _, exact, err := p.best(prefix, h, t)
	truncated = !exact
	return choice, err
}

// value computes the worst (maximal) completion round reachable from the
// given script prefix, SearchRounds+1 when some continuation prevents
// completion. exact is false when the node budget truncated the subtree, in
// which case the value is a best-effort lower bound and is not memoized.
// The script slice is only read within the call (append-extended per child,
// never retained), so callers may pass shared backing arrays.
func (p *Planner) value(script [][]graph.EdgeID, h uint64) (v int, exact bool, err error) {
	p.lookups++
	if v, ok := p.table[h]; ok {
		p.hits++
		return int(v), true, nil
	}
	if p.nodes >= p.cfg.NodeBudget {
		return 0, false, nil
	}
	p.nodes++
	depth := len(script)

	// Beyond the delivery horizon the suffix is delivery-free, so one replay
	// to the evaluation horizon settles the value exactly.
	if depth >= p.cfg.DeliverRounds {
		run, err := p.g.replay(script, p.cfg.SearchRounds, nil)
		if err != nil {
			return 0, false, err
		}
		v, done := completionOf(run, p.cfg.SearchRounds)
		if !done {
			v = p.cfg.SearchRounds + 1
		}
		p.store(h, v)
		return v, true, nil
	}

	run, err := p.g.replay(script, depth+1, nil)
	if err != nil {
		return 0, false, err
	}
	if round, done := completionOf(run, depth); done {
		p.store(h, round)
		return round, true, nil
	}
	t, err := p.g.turnAt(run, p.cfg.MaxArcsPerRound)
	if err != nil {
		return 0, false, err
	}
	_, v, exact, err = p.best(script, h, t)
	if err == nil && exact {
		p.store(h, v)
	}
	return v, exact, err
}

// best values every choice of position t, reached by script (chain hash h),
// and returns the first strict maximizer — the lowest surviving mask, hence
// the lexicographically lowest EdgeID set — with its value. exact is false
// when the node budget truncated some child.
func (p *Planner) best(script [][]graph.EdgeID, h uint64, t *turn) (choice []graph.EdgeID, v int, exact bool, err error) {
	v, exact = -1, true
	err = t.choices(p.cfg.Rule, func(c []graph.EdgeID, sig []byte) error {
		cv, cexact, err := p.value(append(script, c), chainHash(h, sig, t.round))
		if err != nil {
			return err
		}
		exact = exact && cexact
		if cv > v {
			choice, v = c, cv
		}
		return nil
	})
	return choice, v, exact, err
}

// store admits a fully evaluated subtree value while the table has room.
func (p *Planner) store(h uint64, v int) {
	if len(p.table) < p.cfg.TableSize {
		p.table[h] = int32(v)
	}
}

// maskOf locates each delivered id's position within the round's ascending
// deliverable-edge list and returns the corresponding bitset.
func maskOf(edges []graph.EdgeID, delivered []graph.EdgeID) (uint64, error) {
	var mask uint64
next:
	for _, id := range delivered {
		for i, e := range edges {
			if e == id {
				mask |= 1 << uint(i)
				continue next
			}
		}
		return 0, fmt.Errorf("delivered edge id %d was not deliverable", id)
	}
	return mask, nil
}
