package registry

import (
	"fmt"
	"math/rand"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// topoEntry pairs an Entry with its dual-graph constructor. n is the
// requested network size; generators whose size is structural (grid,
// layered) may build a nearby size — callers must read the built network's
// N(), not echo the request. seed feeds the generator's private rng;
// deterministic generators ignore it.
type topoEntry struct {
	Entry
	build func(e Entry, n int, seed int64, p Params) (*graph.Dual, error)
}

// algEntry pairs an Entry with its algorithm constructor. n is the process
// count of the network the algorithm will run on (its built N(), post any
// structural adjustment by the topology).
type algEntry struct {
	Entry
	build func(e Entry, n int, p Params) (sim.Algorithm, error)
}

// advEntry pairs an Entry with its adversary constructor.
type advEntry struct {
	Entry
	build func(e Entry, p Params) (sim.Adversary, error)
}

// schedEntry pairs an Entry with its epoch-schedule constructor. base is the
// already-built scenario network the schedule mutates (or, for generative
// schedules like waypoint mobility, mines for its node count and source).
type schedEntry struct {
	Entry
	build func(e Entry, base *graph.Dual, p Params) (graph.Schedule, error)
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// topologies is the topology registry. Parameter defaults reproduce the
// historical hardcoded values of cmd/dgsim and internal/expt, so a default
// Choice builds the exact network those paths always built.
var topologies = map[string]*topoEntry{
	"clique-bridge": {
		Entry: Entry{
			Name: "clique-bridge",
			Doc:  "Theorem 2 network: (n-1)-clique with a receiver behind a bridge; G' complete",
		},
		build: func(_ Entry, n int, _ int64, _ Params) (*graph.Dual, error) {
			return graph.CliqueBridge(n)
		},
	},
	"complete-layered": {
		Entry: Entry{
			Name: "complete-layered",
			Doc:  "Theorem 12 network of two-node layers (odd n >= 5); G' complete",
		},
		build: func(_ Entry, n int, _ int64, _ Params) (*graph.Dual, error) {
			return graph.CompleteLayered(n)
		},
	},
	"line": {
		Entry: Entry{Name: "line", Doc: "classical path 0-1-...-(n-1), source at 0"},
		build: func(_ Entry, n int, _ int64, _ Params) (*graph.Dual, error) {
			return graph.Line(n)
		},
	},
	"star": {
		Entry: Entry{Name: "star", Doc: "classical star, source at the hub"},
		build: func(_ Entry, n int, _ int64, _ Params) (*graph.Dual, error) {
			return graph.Star(n)
		},
	},
	"complete": {
		Entry: Entry{Name: "complete", Doc: "classical clique (single hop)"},
		build: func(_ Entry, n int, _ int64, _ Params) (*graph.Dual, error) {
			return graph.Complete(n)
		},
	},
	"tree": {
		Entry: Entry{Name: "tree", Doc: "classical complete binary tree rooted at the source"},
		build: func(_ Entry, n int, _ int64, _ Params) (*graph.Dual, error) {
			return graph.BinaryTree(n)
		},
	},
	"grid": {
		Entry: Entry{
			Name: "grid",
			Doc:  "lattice with random unreliable gray-zone links; builds the smallest square holding n unless rows/cols are given",
			Params: []ParamDoc{
				{Name: "rows", Type: "int", Default: 0, Doc: "lattice rows; 0 derives a square from n"},
				{Name: "cols", Type: "int", Default: 0, Doc: "lattice columns; 0 derives a square from n"},
				{Name: "reach", Type: "int", Default: 2, Doc: "Chebyshev radius of gray-zone candidate links"},
				{Name: "p", Type: "float", Default: 0.3, Doc: "per-candidate unreliable link probability"},
			},
		},
		build: func(e Entry, n int, seed int64, p Params) (*graph.Dual, error) {
			rows, err := getInt(p, mustDoc(e, "rows"))
			if err != nil {
				return nil, err
			}
			cols, err := getInt(p, mustDoc(e, "cols"))
			if err != nil {
				return nil, err
			}
			reach, err := getInt(p, mustDoc(e, "reach"))
			if err != nil {
				return nil, err
			}
			prob, err := getFloat(p, mustDoc(e, "p"))
			if err != nil {
				return nil, err
			}
			if (rows == 0) != (cols == 0) {
				return nil, fmt.Errorf("grid: rows and cols must be given together (got rows=%d cols=%d)", rows, cols)
			}
			if rows == 0 {
				side := 1
				for side*side < n {
					side++
				}
				rows, cols = side, side
			}
			return graph.Grid(rows, cols, reach, prob, newRng(seed))
		},
	},
	"random": {
		Entry: Entry{
			Name: "random",
			Doc:  "random connected G plus independent unreliable edges",
			Params: []ParamDoc{
				{Name: "p-reliable", Type: "float", Default: 0.12, Doc: "reliable edge probability beyond the backbone path"},
				{Name: "p-unreliable", Type: "float", Default: 0.35, Doc: "unreliable edge probability on remaining pairs"},
			},
		},
		build: func(e Entry, n int, seed int64, p Params) (*graph.Dual, error) {
			pr, err := getFloat(p, mustDoc(e, "p-reliable"))
			if err != nil {
				return nil, err
			}
			pu, err := getFloat(p, mustDoc(e, "p-unreliable"))
			if err != nil {
				return nil, err
			}
			return graph.RandomDual(n, pr, pu, newRng(seed))
		},
	},
	"geometric": {
		Entry: Entry{
			Name: "geometric",
			Doc:  "unit-square placement: short links reliable, longer ones unreliable; scales to 100k+ nodes",
			Params: []ParamDoc{
				{Name: "r-reliable", Type: "float", Default: 0.28, Doc: "links shorter than this are reliable"},
				{Name: "r-unreliable", Type: "float", Default: 0.7, Doc: "links shorter than this (but beyond r-reliable) are unreliable"},
			},
		},
		build: func(e Entry, n int, seed int64, p Params) (*graph.Dual, error) {
			rr, err := getFloat(p, mustDoc(e, "r-reliable"))
			if err != nil {
				return nil, err
			}
			ru, err := getFloat(p, mustDoc(e, "r-unreliable"))
			if err != nil {
				return nil, err
			}
			return graph.Geometric(n, rr, ru, newRng(seed))
		},
	},
	"pa": {
		Entry: Entry{
			Name: "pa",
			Doc:  "scale-free Barabási–Albert dual graph with gray-zone attachment links",
			Params: []ParamDoc{
				{Name: "m", Type: "int", Default: 3, Doc: "links each joining node attaches with"},
				{Name: "unreliable-frac", Type: "float", Default: 0.5, Doc: "probability a non-first attachment link is unreliable"},
			},
		},
		build: func(e Entry, n int, seed int64, p Params) (*graph.Dual, error) {
			m, err := getInt(p, mustDoc(e, "m"))
			if err != nil {
				return nil, err
			}
			frac, err := getFloat(p, mustDoc(e, "unreliable-frac"))
			if err != nil {
				return nil, err
			}
			return graph.PreferentialAttachment(n, m, frac, newRng(seed))
		},
	},
	"layered-random": {
		Entry: Entry{
			Name:     "layered-random",
			IgnoresN: true,
			Doc:      "consecutive fully connected undirected layers (source alone on top); G' complete; n is derived from layers, not the requested size",
			Params: []ParamDoc{
				{Name: "layers", Type: "[]int", Default: []int{4, 4, 4}, Doc: "layer sizes below the source"},
			},
		},
		build: func(e Entry, _ int, _ int64, p Params) (*graph.Dual, error) {
			sizes, err := getInts(p, mustDoc(e, "layers"))
			if err != nil {
				return nil, err
			}
			return graph.LayeredRandom(sizes)
		},
	},
	"directed-layered": {
		Entry: Entry{
			Name:     "directed-layered",
			IgnoresN: true,
			Doc:      "directed layer chain with unreliable forward shortcuts; n is derived from layers, not the requested size",
			Params: []ParamDoc{
				{Name: "layers", Type: "[]int", Default: []int{4, 4, 4}, Doc: "layer sizes below the source"},
			},
		},
		build: func(e Entry, _ int, _ int64, p Params) (*graph.Dual, error) {
			sizes, err := getInts(p, mustDoc(e, "layers"))
			if err != nil {
				return nil, err
			}
			return graph.DirectedLayered(sizes)
		},
	},
}

// algorithms is the algorithm registry.
var algorithms = map[string]*algEntry{
	"strong-select": {
		Entry: Entry{Name: "strong-select", Doc: "deterministic Strong Select, O(n^{3/2}√log n) (Section 5)"},
		build: func(_ Entry, n int, _ Params) (sim.Algorithm, error) {
			return core.NewStrongSelect(n)
		},
	},
	"harmonic": {
		Entry: Entry{
			Name: "harmonic",
			Doc:  "randomized Harmonic Broadcast, O(n log² n) w.h.p. (Section 7)",
			Params: []ParamDoc{
				{Name: "epsilon", Type: "float", Default: 0.02, Doc: "failure probability in the paper's T = ceil(12 ln(n/ε))"},
				{Name: "t", Type: "int", Default: 0, Doc: "explicit level length T; 0 derives it from n and epsilon"},
			},
		},
		build: func(e Entry, n int, p Params) (sim.Algorithm, error) {
			t, err := getInt(p, mustDoc(e, "t"))
			if err != nil {
				return nil, err
			}
			if t < 0 {
				return nil, fmt.Errorf("harmonic t must be >= 0 (0 derives it), got %d", t)
			}
			if t > 0 {
				return core.NewHarmonic(t)
			}
			eps, err := getFloat(p, mustDoc(e, "epsilon"))
			if err != nil {
				return nil, err
			}
			return core.NewHarmonicForN(n, eps)
		},
	},
	"round-robin": {
		Entry: Entry{Name: "round-robin", Doc: "deterministic round-robin baseline, O(n·D) on classical graphs"},
		build: func(_ Entry, _ int, _ Params) (sim.Algorithm, error) {
			return core.NewRoundRobin(), nil
		},
	},
	"decay": {
		Entry: Entry{Name: "decay", Doc: "classical randomized Decay baseline (Bar-Yehuda et al.)"},
		build: func(_ Entry, _ int, _ Params) (sim.Algorithm, error) {
			return core.NewDecay(), nil
		},
	},
	"uniform": {
		Entry: Entry{
			Name: "uniform",
			Doc:  "fixed-probability transmission baseline",
			Params: []ParamDoc{
				{Name: "p", Type: "float", Default: 0.25, Doc: "per-round transmission probability"},
			},
		},
		build: func(e Entry, _ int, p Params) (sim.Algorithm, error) {
			prob, err := getFloat(p, mustDoc(e, "p"))
			if err != nil {
				return nil, err
			}
			return core.NewUniform(prob)
		},
	},
	"delta-select": {
		Entry: Entry{
			Name: "delta-select",
			Doc:  "Δ-aware oblivious baseline (Clementi et al.), needs an in-degree bound on G'",
			Params: []ParamDoc{
				{Name: "delta", Type: "int", Default: 0, Doc: "in-degree bound Δ on G'; 0 uses the trivial bound n-1"},
			},
		},
		build: func(e Entry, n int, p Params) (sim.Algorithm, error) {
			delta, err := getInt(p, mustDoc(e, "delta"))
			if err != nil {
				return nil, err
			}
			if delta == 0 {
				delta = n - 1
			}
			return core.NewDeltaSelect(n, delta)
		},
	},
}

// adversaries is the adversary registry.
var adversaries = map[string]*advEntry{
	"benign": {
		Entry: Entry{Name: "benign", Doc: "never uses unreliable edges (the classical static model)"},
		build: func(_ Entry, _ Params) (sim.Adversary, error) {
			return adversary.Benign{}, nil
		},
	},
	"random": {
		Entry: Entry{
			Name: "random",
			Doc:  "delivers each unreliable edge independently with probability p",
			Params: []ParamDoc{
				{Name: "p", Type: "float", Default: 0.25, Doc: "per-edge per-round delivery probability"},
			},
		},
		build: func(e Entry, p Params) (sim.Adversary, error) {
			prob, err := getFloat(p, mustDoc(e, "p"))
			if err != nil {
				return nil, err
			}
			return adversary.NewRandom(prob)
		},
	},
	"greedy": {
		Entry: Entry{Name: "greedy", Doc: "adaptive greedy collider: jams single deliveries into collisions"},
		build: func(_ Entry, _ Params) (sim.Adversary, error) {
			return adversary.GreedyCollider{}, nil
		},
	},
	"adaptive": {
		Entry: Entry{
			Name: "adaptive",
			Doc:  "online best-response search over fringe deliveries (exact worst case on small networks; fails beyond 16 deliverable arcs per round)",
			Params: []ParamDoc{
				{Name: "horizon", Type: "int", Default: 0, Doc: "delivery horizon h: rounds 1..h may deliver; 0 = unbounded"},
				{Name: "search-rounds", Type: "int", Default: 0, Doc: "evaluation horizon of the search; 0 = 32"},
				{Name: "node-budget", Type: "int", Default: 0, Doc: "search expansions per planned round; 0 = 200000"},
				{Name: "table-size", Type: "int", Default: 0, Doc: "transposition-table entry cap; 0 = 65536"},
			},
		},
		build: func(e Entry, p Params) (sim.Adversary, error) {
			horizon, err := getInt(p, mustDoc(e, "horizon"))
			if err != nil {
				return nil, err
			}
			searchRounds, err := getInt(p, mustDoc(e, "search-rounds"))
			if err != nil {
				return nil, err
			}
			nodeBudget, err := getInt(p, mustDoc(e, "node-budget"))
			if err != nil {
				return nil, err
			}
			tableSize, err := getInt(p, mustDoc(e, "table-size"))
			if err != nil {
				return nil, err
			}
			return adversary.NewAdaptive(horizon, searchRounds, nodeBudget, tableSize)
		},
	},
	"full": {
		Entry: Entry{Name: "full", Doc: "always delivers every unreliable edge"},
		build: func(_ Entry, _ Params) (sim.Adversary, error) {
			return adversary.FullDelivery{}, nil
		},
	},
}

// schedules is the epoch-schedule registry: the dynamics layer. The
// "static" entry is the default everywhere and reproduces the historical
// fixed-topology behaviour exactly; the others mutate (or regenerate) the
// scenario's network every epoch-len rounds. All parameter defaults are
// chosen so a bare name is runnable.
var schedules = map[string]*schedEntry{
	"static": {
		Entry: Entry{
			Name: "static",
			Doc:  "fixed topology for the whole run (the historical behaviour; the default)",
		},
		build: func(_ Entry, base *graph.Dual, _ Params) (graph.Schedule, error) {
			return graph.Static(base), nil
		},
	},
	"churn": {
		Entry: Entry{
			Name: "churn",
			Doc:  "node churn: each epoch, nodes crash w.p. p-down and lose all non-backbone links (epoch 0 is the unmutated base)",
			Params: []ParamDoc{
				{Name: "epoch-len", Type: "int", Default: 8, Doc: "rounds per epoch"},
				{Name: "p-down", Type: "float", Default: 0.2, Doc: "per-epoch per-node crash probability"},
			},
		},
		build: func(e Entry, base *graph.Dual, p Params) (graph.Schedule, error) {
			epochLen, err := getInt(p, mustDoc(e, "epoch-len"))
			if err != nil {
				return nil, err
			}
			pDown, err := getFloat(p, mustDoc(e, "p-down"))
			if err != nil {
				return nil, err
			}
			return graph.NewChurn(base, epochLen, pDown)
		},
	},
	"fade": {
		Entry: Entry{
			Name: "fade",
			Doc:  "link fading: each epoch, reliable non-backbone edges demote to unreliable w.p. p-fade, and recover next epoch",
			Params: []ParamDoc{
				{Name: "epoch-len", Type: "int", Default: 8, Doc: "rounds per epoch"},
				{Name: "p-fade", Type: "float", Default: 0.3, Doc: "per-epoch per-edge demotion probability"},
			},
		},
		build: func(e Entry, base *graph.Dual, p Params) (graph.Schedule, error) {
			epochLen, err := getInt(p, mustDoc(e, "epoch-len"))
			if err != nil {
				return nil, err
			}
			pFade, err := getFloat(p, mustDoc(e, "p-fade"))
			if err != nil {
				return nil, err
			}
			return graph.NewFade(base, epochLen, pFade)
		},
	},
	"waypoint": {
		Entry: Entry{
			Name: "waypoint",
			Doc:  "random-waypoint mobility over the geometric model; the scenario topology contributes only its node count and source",
			Params: []ParamDoc{
				{Name: "epoch-len", Type: "int", Default: 8, Doc: "rounds per epoch"},
				{Name: "leg-epochs", Type: "int", Default: 4, Doc: "epochs per waypoint-to-waypoint leg (larger = slower motion)"},
				{Name: "r-reliable", Type: "float", Default: 0.28, Doc: "links shorter than this are reliable"},
				{Name: "r-unreliable", Type: "float", Default: 0.7, Doc: "links shorter than this (but beyond r-reliable) are unreliable"},
			},
		},
		build: func(e Entry, base *graph.Dual, p Params) (graph.Schedule, error) {
			epochLen, err := getInt(p, mustDoc(e, "epoch-len"))
			if err != nil {
				return nil, err
			}
			legEpochs, err := getInt(p, mustDoc(e, "leg-epochs"))
			if err != nil {
				return nil, err
			}
			rr, err := getFloat(p, mustDoc(e, "r-reliable"))
			if err != nil {
				return nil, err
			}
			ru, err := getFloat(p, mustDoc(e, "r-unreliable"))
			if err != nil {
				return nil, err
			}
			return graph.NewWaypoint(base, epochLen, legEpochs, rr, ru)
		},
	},
}

// mustDoc fetches a ParamDoc that registration guarantees exists; a miss is
// a registry table bug, not a user error.
func mustDoc(e Entry, name string) ParamDoc {
	d, ok := e.paramDoc(name)
	if !ok {
		panic(fmt.Sprintf("registry: entry %q has no parameter %q", e.Name, name))
	}
	return d
}

// Topologies returns every registered topology entry, sorted by name.
func Topologies() []Entry {
	return entries(topologies, func(e *topoEntry) Entry { return e.Entry })
}

// Algorithms returns every registered algorithm entry, sorted by name.
func Algorithms() []Entry {
	return entries(algorithms, func(e *algEntry) Entry { return e.Entry })
}

// Adversaries returns every registered adversary entry, sorted by name.
func Adversaries() []Entry {
	return entries(adversaries, func(e *advEntry) Entry { return e.Entry })
}

// Schedules returns every registered epoch-schedule entry, sorted by name.
func Schedules() []Entry {
	return entries(schedules, func(e *schedEntry) Entry { return e.Entry })
}

// Topology builds the named dual-graph topology at size n. seed feeds the
// generator's private rng (pure: same inputs, same network). Generators with
// structural sizes may build a nearby size — read the result's N().
func Topology(name string, n int, seed int64, p Params) (*graph.Dual, error) {
	e, ok := topologies[name]
	if !ok {
		return nil, unknownName("topology", name, names(Topologies()))
	}
	if err := e.check(p); err != nil {
		return nil, fmt.Errorf("topology %w", err)
	}
	return e.build(e.Entry, n, seed, p)
}

// Algorithm builds the named broadcast algorithm for an n-node network.
// n must be the network's built N() (a topology may adjust the requested
// size), so resolve the topology first.
func Algorithm(name string, n int, p Params) (sim.Algorithm, error) {
	e, ok := algorithms[name]
	if !ok {
		return nil, unknownName("algorithm", name, names(Algorithms()))
	}
	if err := e.check(p); err != nil {
		return nil, fmt.Errorf("algorithm %w", err)
	}
	return e.build(e.Entry, n, p)
}

// Adversary builds the named adversary.
func Adversary(name string, p Params) (sim.Adversary, error) {
	e, ok := adversaries[name]
	if !ok {
		return nil, unknownName("adversary", name, names(Adversaries()))
	}
	if err := e.check(p); err != nil {
		return nil, fmt.Errorf("adversary %w", err)
	}
	return e.build(e.Entry, p)
}

// Schedule builds the named epoch schedule over an already-built base
// network. Like every registry constructor it is deterministic: the
// schedule's own randomness is derived at run time from each trial's seed,
// so the same (name, base, params) always yields the same dynamics law.
func Schedule(name string, base *graph.Dual, p Params) (graph.Schedule, error) {
	e, ok := schedules[name]
	if !ok {
		return nil, unknownName("schedule", name, names(Schedules()))
	}
	if err := e.check(p); err != nil {
		return nil, fmt.Errorf("schedule %w", err)
	}
	return e.build(e.Entry, base, p)
}

// ValidateTopology checks that name resolves and p matches its schema
// without building anything (n-independent validation for the Spec layer).
func ValidateTopology(name string, p Params) error {
	e, ok := topologies[name]
	if !ok {
		return unknownName("topology", name, names(Topologies()))
	}
	if err := e.check(p); err != nil {
		return fmt.Errorf("topology %w", err)
	}
	return nil
}

// ValidateAlgorithm checks that name resolves and p matches its schema.
func ValidateAlgorithm(name string, p Params) error {
	e, ok := algorithms[name]
	if !ok {
		return unknownName("algorithm", name, names(Algorithms()))
	}
	if err := e.check(p); err != nil {
		return fmt.Errorf("algorithm %w", err)
	}
	return nil
}

// ValidateAdversary checks that name resolves and p matches its schema.
func ValidateAdversary(name string, p Params) error {
	e, ok := adversaries[name]
	if !ok {
		return unknownName("adversary", name, names(Adversaries()))
	}
	if err := e.check(p); err != nil {
		return fmt.Errorf("adversary %w", err)
	}
	return nil
}

// ValidateSchedule checks that name resolves and p matches its schema.
func ValidateSchedule(name string, p Params) error {
	e, ok := schedules[name]
	if !ok {
		return unknownName("schedule", name, names(Schedules()))
	}
	if err := e.check(p); err != nil {
		return fmt.Errorf("schedule %w", err)
	}
	return nil
}

// TopologyInfo returns the entry header of the named topology.
func TopologyInfo(name string) (Entry, bool) {
	e, ok := topologies[name]
	if !ok {
		return Entry{}, false
	}
	return e.Entry, true
}

// AlgorithmInfo returns the entry header of the named algorithm.
func AlgorithmInfo(name string) (Entry, bool) {
	e, ok := algorithms[name]
	if !ok {
		return Entry{}, false
	}
	return e.Entry, true
}

// AdversaryInfo returns the entry header of the named adversary.
func AdversaryInfo(name string) (Entry, bool) {
	e, ok := adversaries[name]
	if !ok {
		return Entry{}, false
	}
	return e.Entry, true
}

// ScheduleInfo returns the entry header of the named epoch schedule.
func ScheduleInfo(name string) (Entry, bool) {
	e, ok := schedules[name]
	if !ok {
		return Entry{}, false
	}
	return e.Entry, true
}
