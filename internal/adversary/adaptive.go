package adversary

import (
	"errors"
	"fmt"
	"math/rand"

	"dualgraph/internal/exhaustive"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// Adaptive is the online best-response adversary: each round it searches the
// game tree of fringe-edge delivery choices against the current reaching
// state (via exhaustive.Planner) and plays the choice that maximizes the
// eventual completion round. With an unbounded horizon and ample budget it
// realizes exactly the worst case exhaustive.Search reports; bounding
// Horizon yields a provably-no-stronger opponent (deliveries are allowed
// only in rounds 1..Horizon, so the strategy sets nest).
//
// Adaptive only works where exhaustive search works: deterministic-enough
// rounds with at most MaxArcsPerRound (16) deliverable fringe arcs, i.e.
// small networks. Beyond the cap a run fails with exhaustive.ErrTooManyArcs
// rather than silently weakening the opponent.
//
// The value itself is stateless and safe to share across concurrent trials:
// it implements sim.RunForker, and every run gets a private fork carrying
// the planner (transposition table, played script). Determinism is
// inherited from the planner's contract — ascending-mask enumeration,
// lowest-EdgeID tie-breaks, no randomness — so adaptive sweeps are
// bit-identical at any worker count.
type Adaptive struct {
	// Horizon is the delivery horizon h: rounds 1..h may deliver. 0 means
	// unbounded (the full search horizon).
	Horizon int
	// SearchRounds is the evaluation horizon of the planner's search;
	// 0 defaults to 32.
	SearchRounds int
	// NodeBudget caps search expansions per planned round; 0 defaults to
	// 200000.
	NodeBudget int
	// TableSize caps the planner's transposition table; 0 defaults to 65536.
	TableSize int
}

var (
	_ sim.Adversary         = (*Adaptive)(nil)
	_ sim.BufferedDeliverer = (*Adaptive)(nil)
	_ sim.RunForker         = (*Adaptive)(nil)
)

// ErrNotForked reports that an Adaptive adversary's delivery path ran
// without the per-run fork the engine performs via sim.RunForker — the
// adversary was invoked outside sim.Run/RunDynamic.
var ErrNotForked = errors.New("adaptive adversary used without a per-run fork")

// NewAdaptive validates the search parameters and returns an Adaptive
// adversary. Zero values select the documented defaults.
func NewAdaptive(horizon, searchRounds, nodeBudget, tableSize int) (*Adaptive, error) {
	if horizon < 0 {
		return nil, fmt.Errorf("adaptive: horizon %d < 0", horizon)
	}
	if searchRounds < 0 {
		return nil, fmt.Errorf("adaptive: search rounds %d < 0", searchRounds)
	}
	if nodeBudget < 0 {
		return nil, fmt.Errorf("adaptive: node budget %d < 0", nodeBudget)
	}
	if tableSize < 0 {
		return nil, fmt.Errorf("adaptive: table size %d < 0", tableSize)
	}
	return &Adaptive{
		Horizon:      horizon,
		SearchRounds: searchRounds,
		NodeBudget:   nodeBudget,
		TableSize:    tableSize,
	}, nil
}

// Name implements sim.Adversary.
func (a *Adaptive) Name() string {
	if a.Horizon == 0 {
		return "adaptive(h=∞)"
	}
	return fmt.Sprintf("adaptive(h=%d)", a.Horizon)
}

// AssignProcs implements sim.Adversary with the identity assignment — the
// same assignment the exhaustive search fixes, which is what makes the two
// directly comparable.
func (a *Adaptive) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	return identityAssign(d.N()), nil
}

// ForkRun implements sim.RunForker: every run gets a private planner built
// against the run's schedule, algorithm, and effective config, so the shared
// Adaptive value stays immutable under concurrent trials.
func (a *Adaptive) ForkRun(sched graph.Schedule, alg sim.Algorithm, cfg sim.Config) (sim.Adversary, error) {
	p, err := exhaustive.NewPlanner(sched, alg, exhaustive.PlannerConfig{
		Rule:          cfg.Rule,
		Start:         cfg.Start,
		Seed:          cfg.Seed,
		SearchRounds:  a.SearchRounds,
		DeliverRounds: a.Horizon,
		NodeBudget:    a.NodeBudget,
		TableSize:     a.TableSize,
	})
	if err != nil {
		return nil, err
	}
	return &adaptiveRun{name: a.Name(), planner: p}, nil
}

// Deliver implements sim.Adversary as the map form of DeliverInto, so an
// unforked Adaptive fails loudly on this path too.
func (a *Adaptive) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(a, v, senders)
}

// DeliverInto implements sim.BufferedDeliverer by failing the run: reaching
// it means the engine skipped the sim.RunForker fork, and a silently-benign
// "adaptive" adversary would be worse than a loud error.
func (a *Adaptive) DeliverInto(_ *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
	sink.Fail(ErrNotForked)
}

// Resolve implements sim.Adversary: CR4 collisions resolve to silence, the
// adversary's strongest choice and the convention the search models.
func (a *Adaptive) Resolve(_ *sim.View, _ graph.NodeID, _ []graph.NodeID) graph.NodeID {
	return sim.NoDelivery
}

// adaptiveRun is the per-run fork: the planner plus the script of choices
// played so far. It is used by exactly one run, sequentially.
type adaptiveRun struct {
	name    string
	planner *exhaustive.Planner
	script  [][]graph.EdgeID
	failed  bool
}

var (
	_ sim.Adversary         = (*adaptiveRun)(nil)
	_ sim.BufferedDeliverer = (*adaptiveRun)(nil)
)

func (r *adaptiveRun) Name() string { return r.name }

func (r *adaptiveRun) AssignProcs(d *graph.Dual, _ *rand.Rand) ([]int, error) {
	return identityAssign(d.N()), nil
}

// plan advances the script to the given round and returns its delivery
// choice. Rounds the engine never asked about (no senders, hence no call)
// are padded with empty entries — exactly the choice the planner's model
// enumerates for them, so the script replayed inside the planner stays in
// lockstep with the live execution.
func (r *adaptiveRun) plan(round int) ([]graph.EdgeID, error) {
	if r.failed {
		return nil, nil
	}
	for len(r.script) < round-1 {
		r.script = append(r.script, nil)
	}
	choice, err := r.planner.Plan(r.script)
	if err != nil {
		r.failed = true
		return nil, err
	}
	r.script = append(r.script, choice)
	return choice, nil
}

// DeliverInto implements sim.BufferedDeliverer: the planned round feeds the
// sink's direct edge-id entry point; planning failures abort the run through
// the sink's typed failure path.
func (r *adaptiveRun) DeliverInto(v *sim.View, _ []graph.NodeID, sink *sim.DeliverySink) {
	choice, err := r.plan(v.Round)
	if err != nil {
		sink.Fail(fmt.Errorf("adaptive adversary: %w", err))
		return
	}
	for _, id := range choice {
		sink.AddEdgeID(id)
	}
}

// Deliver implements sim.Adversary as the map form of DeliverInto. The map
// has no typed failure channel, so a planning failure becomes a map the
// engine always rejects.
func (r *adaptiveRun) Deliver(v *sim.View, senders []graph.NodeID) map[graph.NodeID][]graph.NodeID {
	return sim.DeliveryMap(r, v, senders)
}

func (r *adaptiveRun) Resolve(_ *sim.View, _ graph.NodeID, _ []graph.NodeID) graph.NodeID {
	return sim.NoDelivery
}
