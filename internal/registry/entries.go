package registry

import (
	"fmt"
	"math/rand"

	"dualgraph/internal/adversary"
	"dualgraph/internal/core"
	"dualgraph/internal/graph"
	"dualgraph/internal/sim"
)

// The constructor shape of each kind. A topology gets the requested size n,
// which generators whose size is structural (grid, layered) may round to a
// nearby size — callers must read the built network's N(), not echo the
// request — and a seed for its private rng, which deterministic generators
// ignore. An algorithm gets the process count of the network it will run on
// (its built N(), post any structural adjustment by the topology). A
// schedule gets the already-built scenario network it mutates (or, for
// generative schedules like waypoint mobility, mines for its node count and
// source).
type (
	topoFunc  = func(n int, seed int64, a args) (*graph.Dual, error)
	algFunc   = func(n int, a args) (sim.Algorithm, error)
	advFunc   = func(a args) (sim.Adversary, error)
	schedFunc = func(base *graph.Dual, a args) (graph.Schedule, error)
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// topologies is the topology registry. Parameter defaults reproduce the
// historical hardcoded values of cmd/dgsim and internal/expt, so a default
// Choice builds the exact network those paths always built.
var topologies = newKind("topology", map[string]*entry[topoFunc]{
	"clique-bridge": {
		Entry: Entry{
			Name: "clique-bridge",
			Doc:  "Theorem 2 network: (n-1)-clique with a receiver behind a bridge; G' complete",
		},
		build: func(n int, _ int64, _ args) (*graph.Dual, error) {
			return graph.CliqueBridge(n)
		},
	},
	"complete-layered": {
		Entry: Entry{
			Name: "complete-layered",
			Doc:  "Theorem 12 network of two-node layers (odd n >= 5); G' complete",
		},
		build: func(n int, _ int64, _ args) (*graph.Dual, error) {
			return graph.CompleteLayered(n)
		},
	},
	"line": {
		Entry: Entry{Name: "line", Doc: "classical path 0-1-...-(n-1), source at 0"},
		build: func(n int, _ int64, _ args) (*graph.Dual, error) {
			return graph.Line(n)
		},
	},
	"star": {
		Entry: Entry{Name: "star", Doc: "classical star, source at the hub"},
		build: func(n int, _ int64, _ args) (*graph.Dual, error) {
			return graph.Star(n)
		},
	},
	"complete": {
		Entry: Entry{Name: "complete", Doc: "classical clique (single hop)"},
		build: func(n int, _ int64, _ args) (*graph.Dual, error) {
			return graph.Complete(n)
		},
	},
	"tree": {
		Entry: Entry{Name: "tree", Doc: "classical complete binary tree rooted at the source"},
		build: func(n int, _ int64, _ args) (*graph.Dual, error) {
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
		build: func(n int, seed int64, a args) (*graph.Dual, error) {
			rows, cols := a.int("rows"), a.int("cols")
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
			return graph.Grid(rows, cols, a.int("reach"), a.float("p"), newRng(seed))
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
		build: func(n int, seed int64, a args) (*graph.Dual, error) {
			return graph.RandomDual(n, a.float("p-reliable"), a.float("p-unreliable"), newRng(seed))
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
		build: func(n int, seed int64, a args) (*graph.Dual, error) {
			return graph.Geometric(n, a.float("r-reliable"), a.float("r-unreliable"), newRng(seed))
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
		build: func(n int, seed int64, a args) (*graph.Dual, error) {
			return graph.PreferentialAttachment(n, a.int("m"), a.float("unreliable-frac"), newRng(seed))
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
		build: func(_ int, _ int64, a args) (*graph.Dual, error) {
			return graph.LayeredRandom(a.ints("layers"))
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
		build: func(_ int, _ int64, a args) (*graph.Dual, error) {
			return graph.DirectedLayered(a.ints("layers"))
		},
	},
})

// algorithms is the algorithm registry.
var algorithms = newKind("algorithm", map[string]*entry[algFunc]{
	"strong-select": {
		Entry: Entry{Name: "strong-select", Doc: "deterministic Strong Select, O(n^{3/2}√log n) (Section 5)"},
		build: func(n int, _ args) (sim.Algorithm, error) {
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
		build: func(n int, a args) (sim.Algorithm, error) {
			t := a.int("t")
			if t < 0 {
				return nil, fmt.Errorf("harmonic t must be >= 0 (0 derives it), got %d", t)
			}
			if t > 0 {
				return core.NewHarmonic(t)
			}
			return core.NewHarmonicForN(n, a.float("epsilon"))
		},
	},
	"round-robin": {
		Entry: Entry{Name: "round-robin", Doc: "deterministic round-robin baseline, O(n·D) on classical graphs"},
		build: func(_ int, _ args) (sim.Algorithm, error) {
			return core.NewRoundRobin(), nil
		},
	},
	"decay": {
		Entry: Entry{Name: "decay", Doc: "classical randomized Decay baseline (Bar-Yehuda et al.)"},
		build: func(_ int, _ args) (sim.Algorithm, error) {
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
		build: func(_ int, a args) (sim.Algorithm, error) {
			return core.NewUniform(a.float("p"))
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
		build: func(n int, a args) (sim.Algorithm, error) {
			delta := a.int("delta")
			if delta == 0 {
				delta = n - 1
			}
			return core.NewDeltaSelect(n, delta)
		},
	},
})

// adversaries is the adversary registry.
var adversaries = newKind("adversary", map[string]*entry[advFunc]{
	"benign": {
		Entry: Entry{Name: "benign", Doc: "never uses unreliable edges (the classical static model)"},
		build: func(_ args) (sim.Adversary, error) {
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
		build: func(a args) (sim.Adversary, error) {
			return adversary.NewRandom(a.float("p"))
		},
	},
	"greedy": {
		Entry: Entry{Name: "greedy", Doc: "adaptive greedy collider: jams single deliveries into collisions"},
		build: func(_ args) (sim.Adversary, error) {
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
		build: func(a args) (sim.Adversary, error) {
			return adversary.NewAdaptive(a.int("horizon"), a.int("search-rounds"), a.int("node-budget"), a.int("table-size"))
		},
	},
	"full": {
		Entry: Entry{Name: "full", Doc: "always delivers every unreliable edge"},
		build: func(_ args) (sim.Adversary, error) {
			return adversary.FullDelivery{}, nil
		},
	},
})

// schedules is the epoch-schedule registry: the dynamics layer. The
// "static" entry is the default everywhere and reproduces the historical
// fixed-topology behaviour exactly; the others mutate (or regenerate) the
// scenario's network every epoch-len rounds. All parameter defaults are
// chosen so a bare name is runnable.
var schedules = newKind("schedule", map[string]*entry[schedFunc]{
	"static": {
		Entry: Entry{
			Name: "static",
			Doc:  "fixed topology for the whole run (the historical behaviour; the default)",
		},
		build: func(base *graph.Dual, _ args) (graph.Schedule, error) {
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
		build: func(base *graph.Dual, a args) (graph.Schedule, error) {
			return graph.NewChurn(base, a.int("epoch-len"), a.float("p-down"))
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
		build: func(base *graph.Dual, a args) (graph.Schedule, error) {
			return graph.NewFade(base, a.int("epoch-len"), a.float("p-fade"))
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
		build: func(base *graph.Dual, a args) (graph.Schedule, error) {
			return graph.NewWaypoint(base, a.int("epoch-len"), a.int("leg-epochs"), a.float("r-reliable"), a.float("r-unreliable"))
		},
	},
})

// Topologies returns every registered topology entry, sorted by name.
func Topologies() []Entry { return topologies.list() }

// Algorithms returns every registered algorithm entry, sorted by name.
func Algorithms() []Entry { return algorithms.list() }

// Adversaries returns every registered adversary entry, sorted by name.
func Adversaries() []Entry { return adversaries.list() }

// Schedules returns every registered epoch-schedule entry, sorted by name.
func Schedules() []Entry { return schedules.list() }

// Topology builds the named dual-graph topology at size n. seed feeds the
// generator's private rng (pure: same inputs, same network). Generators with
// structural sizes may build a nearby size — read the result's N().
func Topology(name string, n int, seed int64, p Params) (*graph.Dual, error) {
	build, a, err := topologies.lookup(name, p)
	if err != nil {
		return nil, err
	}
	return build(n, seed, a)
}

// Algorithm builds the named broadcast algorithm for an n-node network.
// n must be the network's built N() (a topology may adjust the requested
// size), so resolve the topology first.
func Algorithm(name string, n int, p Params) (sim.Algorithm, error) {
	build, a, err := algorithms.lookup(name, p)
	if err != nil {
		return nil, err
	}
	return build(n, a)
}

// Adversary builds the named adversary.
func Adversary(name string, p Params) (sim.Adversary, error) {
	build, a, err := adversaries.lookup(name, p)
	if err != nil {
		return nil, err
	}
	return build(a)
}

// Schedule builds the named epoch schedule over an already-built base
// network. Like every registry constructor it is deterministic: the
// schedule's own randomness is derived at run time from each trial's seed,
// so the same (name, base, params) always yields the same dynamics law.
func Schedule(name string, base *graph.Dual, p Params) (graph.Schedule, error) {
	build, a, err := schedules.lookup(name, p)
	if err != nil {
		return nil, err
	}
	return build(base, a)
}

// ValidateTopology checks that name resolves and p matches its schema
// without building anything (n-independent validation for the Spec layer).
func ValidateTopology(name string, p Params) error {
	_, _, err := topologies.lookup(name, p)
	return err
}

// ValidateAlgorithm checks that name resolves and p matches its schema.
func ValidateAlgorithm(name string, p Params) error {
	_, _, err := algorithms.lookup(name, p)
	return err
}

// ValidateAdversary checks that name resolves and p matches its schema.
func ValidateAdversary(name string, p Params) error {
	_, _, err := adversaries.lookup(name, p)
	return err
}

// ValidateSchedule checks that name resolves and p matches its schema.
func ValidateSchedule(name string, p Params) error {
	_, _, err := schedules.lookup(name, p)
	return err
}

// TopologyInfo returns the entry header of the named topology.
func TopologyInfo(name string) (Entry, bool) { return topologies.info(name) }

// AlgorithmInfo returns the entry header of the named algorithm.
func AlgorithmInfo(name string) (Entry, bool) { return algorithms.info(name) }

// AdversaryInfo returns the entry header of the named adversary.
func AdversaryInfo(name string) (Entry, bool) { return adversaries.info(name) }
