// Package dualgraph is the public API of the dual-graph radio network
// library, a full reproduction of "Broadcasting in Unreliable Radio
// Networks" (Kuhn, Lynch, Newport, Oshman, Richa; 2010), built for
// large-scale Monte Carlo experimentation.
//
// A network is a pair (G, G') of graphs over the same nodes with E ⊆ E':
// G edges are reliable and always deliver, G' \ G edges are unreliable and a
// per-round adversary decides whether they deliver. The package provides:
//
//   - the synchronous round-based execution model with collision rules
//     CR1-CR4 and synchronous/asynchronous starts (Run, Config), with an
//     allocation-free steady-state round loop;
//   - a sharded, deterministic parallel trial engine (RunStream, Sweep,
//     EngineConfig) that fans independent trials out over a
//     GOMAXPROCS-sized worker pool while guaranteeing bit-identical
//     results at any worker count;
//   - the paper's algorithms: deterministic Strong Select
//     (O(n^{3/2} √log n), Section 5) and randomized Harmonic Broadcast
//     (O(n log² n) w.h.p., Section 7), plus baselines (round robin, Decay,
//     uniform);
//   - adversaries from benign to adaptive worst-case, programmed against a
//     frozen CSR dual-graph core whose unreliable arcs carry dense EdgeIDs
//     (Network.UnreliableEdges) for O(log d) membership and bitset-coded
//     per-round delivery strategies;
//   - topology generators (clique+bridge, grids with gray-zone links,
//     random and geometric duals, and the rest of the topology registry
//     through WithTopology) that scale to 100k+ nodes;
//   - executable lower bounds (Theorems 2, 4 and 12).
//
// Single run:
//
//	net, err := dualgraph.Geometric(64, 0.25, 0.6, rng)
//	alg, err := dualgraph.NewHarmonicForN(64, 0.01)
//	res, err := dualgraph.Run(net, alg, dualgraph.GreedyCollider{}, dualgraph.Config{Seed: 1})
//	fmt.Println(res.Rounds, res.Completed)
//
// Monte Carlo sweep over all CPUs — trial i's seed is a pure function of
// (Config.Seed, i), so the streamed summary is bit-identical regardless of
// parallelism:
//
//	sum, err := dualgraph.RunStream(ctx, net, alg, dualgraph.GreedyCollider{},
//		dualgraph.Config{Seed: 1}, 10000, dualgraph.EngineConfig{}, dualgraph.StreamConfig{})
package dualgraph

import (
	"context"
	"math/rand"

	"dualgraph/internal/adversary"
	"dualgraph/internal/checkpoint"
	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/exhaustive"
	"dualgraph/internal/graph"
	"dualgraph/internal/linkest"
	"dualgraph/internal/lowerbound"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
	"dualgraph/internal/spec"
	"dualgraph/internal/ssf"
)

// Model types.
type (
	// NodeID identifies a node (0..n-1).
	NodeID = graph.NodeID
	// EdgeID identifies one unreliable arc of a Network. Ids are dense
	// (0..NumUnreliable()-1) and stable in (from, to) order; see
	// Network.UnreliableEdges for the adversary-facing index.
	EdgeID = graph.EdgeID
	// GraphBuilder accumulates edges during construction; NewNetwork
	// freezes two of them into a Network.
	GraphBuilder = graph.Builder
	// Network is a dual-graph network (G, G') with a distinguished source.
	Network = graph.Dual
	// CollisionRule selects one of the paper's rules CR1-CR4.
	CollisionRule = sim.CollisionRule
	// StartRule selects synchronous or asynchronous start.
	StartRule = sim.StartRule
	// Reception is what a process hears in a round.
	Reception = sim.Reception
	// Process is one automaton of a broadcast algorithm.
	Process = sim.Process
	// Algorithm creates processes.
	Algorithm = sim.Algorithm
	// Adversary controls assignments, unreliable deliveries, and CR4.
	Adversary = sim.Adversary
	// View is the read-only state exposed to adversaries.
	View = sim.View
	// Config parameterizes a run.
	Config = sim.Config
	// Result summarizes an execution.
	Result = sim.Result
)

// Collision and start rules.
const (
	CR1 = sim.CR1
	CR2 = sim.CR2
	CR3 = sim.CR3
	CR4 = sim.CR4

	SyncStart  = sim.SyncStart
	AsyncStart = sim.AsyncStart
)

// NoDelivery is the CR4 "resolve to silence" sentinel for Adversary
// implementations.
const NoDelivery = sim.NoDelivery

// Reception kinds.
const (
	Silence   = sim.Silence
	Delivered = sim.Delivered
	Collision = sim.Collision
)

// Run executes an algorithm against an adversary on a network.
func Run(net *Network, alg Algorithm, adv Adversary, cfg Config) (*Result, error) {
	return sim.Run(net, alg, adv, cfg)
}

// EngineConfig configures the parallel trial engine behind RunStream and
// Sweep.Run: the worker pool size. The zero value runs one worker per
// logical CPU. The worker count never changes results, only throughput.
type EngineConfig = engine.Config

// BufferedAdversary is the optional allocation-free delivery interface; see
// sim.BufferedDeliverer. All built-in adversaries implement it, and derive
// their map Deliver from it, except Benign (deliberately map-only, since it
// delivers nothing and is the most commonly embedded adversary). The round
// loop always calls DeliverInto: a map-only third-party adversary is run
// through a shim that applies its Deliver map.
type BufferedAdversary = sim.BufferedDeliverer

// DeliverySink collects a round's unreliable deliveries for BufferedAdversary
// implementations.
type DeliverySink = sim.DeliverySink

// Streaming trial aggregation (memory-bounded sweeps).
type (
	// StreamConfig selects the tracked quantiles and the exact-until-K
	// spill threshold of a streaming summary; the zero value tracks
	// p50/p90/p95/p99 with the default threshold.
	StreamConfig = engine.StreamConfig
	// TrialSummary is the streaming aggregate of a RunStream sweep.
	TrialSummary = engine.TrialSummary
)

// Checkpointed, resumable sweeps: completed (cell, shard) accumulators are
// serialized bit-exactly (TrialSummary.MarshalBinary), appended crash-safely
// to a checkpoint file as the grid runs, and restored on resume — the
// restored run's results and output are byte-identical to an uninterrupted
// run at any worker count on either side of the interruption. See
// internal/checkpoint for the file format and ARCHITECTURE.md for the data
// flow.
type (
	// ShardKey names one (cell, shard) work unit of a grid run.
	ShardKey = engine.ShardKey
	// ShardState is one completed work unit: identity, trial range, and the
	// accumulator folded over exactly those trials. Delivered through
	// SweepHooks.OnShard; consume (serialize) the summary during the call.
	ShardState = engine.ShardState
	// CheckpointMeta identifies the run a checkpoint belongs to (sweep hash,
	// grid shape, stream configuration); build it with CheckpointMetaFor.
	CheckpointMeta = checkpoint.Meta
	// CheckpointRecord is one persisted work unit.
	CheckpointRecord = checkpoint.Record
	// CheckpointWriter appends records to a checkpoint file; Append is
	// concurrency-safe and syncs before returning.
	CheckpointWriter = checkpoint.Writer
	// ErrCheckpointVersion reports a checkpoint file format this build does
	// not speak.
	ErrCheckpointVersion = checkpoint.ErrVersion
	// ErrCheckpointSpecMismatch reports a checkpoint recorded for a different
	// sweep or different run parameters — resuming it would splice state
	// from a different experiment.
	ErrCheckpointSpecMismatch = checkpoint.ErrSpecMismatch
)

// ErrCheckpointCorrupt identifies structurally damaged checkpoint data (a
// torn trailing record is recovered, not an error).
var ErrCheckpointCorrupt = checkpoint.ErrCorrupt

var (
	// CreateCheckpoint starts a fresh checkpoint file.
	CreateCheckpoint = checkpoint.Create
	// RecoverCheckpoint reads a checkpoint's intact records (read-only).
	RecoverCheckpoint = checkpoint.Recover
	// ResumeCheckpoint recovers a checkpoint, truncates any torn tail, and
	// returns a writer positioned to append after the intact records.
	ResumeCheckpoint = checkpoint.Resume
	// CheckpointSeed converts recovered records into the SweepHooks.Seed
	// map a resumed Sweep.Run takes.
	CheckpointSeed = checkpoint.SeedMap
	// CheckpointMetaFor assembles a run identity; every creator and resumer
	// must build it the same way for the stale-checkpoint gate to work.
	CheckpointMetaFor = checkpoint.MetaFor
)

// EpochSchedule produces the sequence of frozen networks (epochs) of a
// dynamic run: an epoch-scheduled time-varying topology. See the
// internal/graph dynamic-dual-graph docs for the purity and validity
// contract. The built-in churn/fade/waypoint schedules are reached by name
// through WithSchedule.
type EpochSchedule = graph.Schedule

// RunDynamic executes alg against adv on the time-varying network produced
// by sched: every EpochLength rounds the current network is swapped for the
// next epoch while algorithm, adversary, and per-node state survive. A
// static schedule takes exactly the code path Run takes.
func RunDynamic(sched EpochSchedule, alg Algorithm, adv Adversary, cfg Config) (*Result, error) {
	return sim.RunDynamic(sched, alg, adv, cfg)
}

// NewChurnSchedule models per-epoch node crash/recovery over a base network
// (backbone links survive, so every epoch stays a valid Dual).
var NewChurnSchedule = graph.NewChurn

// RunStream executes trials independent runs of the same (net, alg, adv,
// cfg) combination across a worker pool and folds every Result into shard
// accumulators as soon as it is produced, so a ten-million-trial sweep runs
// in O(1) result memory. Trial i's seed is a SplitMix64-style mix of
// cfg.Seed and i — a pure function of the trial index, so for a fixed
// cfg.Seed the summary is bit-identical at any worker count, while different
// cfg.Seed values yield statistically independent replications.
// Counts/min/max are exact, mean/variance exact up to rounding, and
// quantiles exact until the trial count exceeds StreamConfig.ExactK (P²
// estimates beyond). On error it reports the lowest-indexed failing trial.
// The reduction stops within 64 rounds once ctx is done and returns an
// error satisfying errors.Is(err, ctx.Err()). Dynamic-network sweeps go through a
// Scenario (WithSchedule) or a Sweep.
func RunStream(ctx context.Context, net *Network, alg Algorithm, adv Adversary, cfg Config, trials int, ec EngineConfig, sc StreamConfig) (*TrialSummary, error) {
	cell := engine.Trial{Net: net, Alg: alg, Adv: adv, Cfg: cfg}
	sums, err := engine.RunGrid(ctx, []engine.Trial{cell}, trials, ec, sc, engine.Hooks{})
	if err != nil {
		return nil, err
	}
	return sums[0], nil
}

// Declarative scenario and sweep layer: name-addressed, JSON-round-trippable
// experiment specs executed on the deterministic engine. See the package
// docs of internal/spec and internal/registry for the full contracts.
type (
	// Scenario is one declarative simulation cell: topology + algorithm +
	// adversary + run config, addressed by registry names. Build one with
	// NewScenario and functional options, or unmarshal from JSON;
	// Scenario.Build materializes it, and the Net, Sched, Alg and Adv fields
	// of its result are the built objects.
	Scenario = spec.Scenario
	// Choice names one registered constructor plus parameter overrides.
	Choice = spec.Choice
	// Params is the parameter bag of a Choice (JSON-friendly: numbers and
	// lists of numbers).
	Params = registry.Params
	// RegistryEntry is the self-describing header of a registered
	// topology/algorithm/adversary constructor.
	RegistryEntry = registry.Entry
	// ErrUnknownName reports a failed registry lookup, listing valid names
	// and close suggestions.
	ErrUnknownName = registry.ErrUnknownName
	// Sweep is a declarative Cartesian grid of Scenarios: a base cell plus
	// per-axis value lists, executed as one parallel grid run.
	Sweep = spec.Sweep
	// CellResult pairs a grid cell with its streamed trial summary.
	CellResult = spec.CellResult
	// SweepHooks are the optional checkpoint seed and per-shard/per-cell
	// observers of a Sweep.Run; the zero value observes nothing.
	SweepHooks = spec.Hooks
	// ErrUnsupportedVersion reports a Scenario/Sweep/job document whose
	// "version" field names a wire format this build does not speak (an
	// absent or zero version reads as version 1).
	ErrUnsupportedVersion = spec.ErrUnsupportedVersion
	// ErrDuplicateLabel reports a Sweep whose expansion produces two cells
	// with the same label (duplicate axis values), which would make the
	// label-keyed results ambiguous.
	ErrDuplicateLabel = spec.ErrDuplicateLabel
)

// FormatSummary renders one TrialSummary as the canonical aggregate line
// shared by `dgsim -trials N`, `dgsim -spec`, and the dgsimd results API —
// the single formatter that makes their outputs byte-comparable.
var FormatSummary = spec.FormatSummary

// Scenario construction and functional options.
var (
	// NewScenario builds a Scenario from the dgsim defaults plus options and
	// validates it once against the registries.
	NewScenario = spec.New
	// WithTopology selects a registered topology by name.
	WithTopology = spec.WithTopology
	// WithAlgorithm selects a registered algorithm by name.
	WithAlgorithm = spec.WithAlgorithm
	// WithAdversary selects a registered adversary by name.
	WithAdversary = spec.WithAdversary
	// WithN sets the requested network size.
	WithN = spec.WithN
	// WithCollisionRule sets the collision rule.
	WithCollisionRule = spec.WithCollisionRule
	// WithStart sets the start rule.
	WithStart = spec.WithStart
	// WithSeed sets the base seed.
	WithSeed = spec.WithSeed
	// WithMaxRounds caps the execution length.
	WithMaxRounds = spec.WithMaxRounds
	// WithSchedule selects a registered epoch schedule (topology dynamics);
	// "static" is the default fixed-topology behaviour.
	WithSchedule = spec.WithSchedule
)

// Registry introspection; name-addressed construction goes through
// NewScenario and the With… options.
var (
	// AlgorithmInfo returns the entry header of a named algorithm.
	AlgorithmInfo = registry.AlgorithmInfo
	// AdversaryInfo returns the entry header of a named adversary.
	AdversaryInfo = registry.AdversaryInfo
	// WriteRegistry renders every registry with parameter docs (the -list
	// output of both CLIs).
	WriteRegistry = registry.WriteList
	// WriteRegistryMarkdown renders every registry as the generated
	// docs/REGISTRY.md (see `make docs-registry`).
	WriteRegistryMarkdown = registry.WriteMarkdown
)

// Graph construction.
var (
	// NewGraphBuilder returns an empty n-node graph builder.
	NewGraphBuilder = graph.NewBuilder
	// NewNetwork validates and assembles a dual graph network (G, G') from
	// two builders, freezing both.
	NewNetwork = graph.NewDual
)

// Topology generators (the rest of the topology registry is reached by name
// through WithTopology).
var (
	// CliqueBridge is the Theorem 2 network: an (n-1)-clique plus a receiver
	// behind a bridge; G' complete.
	CliqueBridge = graph.CliqueBridge
	// Line is the classical path.
	Line = graph.Line
	// Grid is a lattice with random unreliable gray-zone links.
	Grid = graph.Grid
	// RandomDual is a random connected G plus random unreliable edges.
	RandomDual = graph.RandomDual
	// Geometric is a unit-square placement with reliable short links and
	// unreliable longer ones; cell-bucketed construction scales it to
	// 100k+ nodes.
	Geometric = graph.Geometric
)

// Algorithm constructors (the rest of the algorithm registry is reached by
// name through WithAlgorithm).
var (
	// NewStrongSelect builds Strong Select for n processes.
	NewStrongSelect = core.NewStrongSelect
	// NewHarmonicForN builds Harmonic Broadcast with the paper's
	// T = ceil(12 ln(n/ε)).
	NewHarmonicForN = core.NewHarmonicForN
	// NewRoundRobin builds the round-robin baseline.
	NewRoundRobin = core.NewRoundRobin
	// NewUniform builds the uniform-probability baseline.
	NewUniform = core.NewUniform
	// NewTreeCast precomputes a BFS broadcast schedule over a trusted graph.
	NewTreeCast = core.NewTreeCast
)

// Adversaries.
type (
	// Benign never uses unreliable edges.
	Benign = adversary.Benign
	// GreedyCollider adaptively jams single deliveries into collisions.
	GreedyCollider = adversary.GreedyCollider
)

// NewAdaptiveAdversary validates the search parameters (delivery horizon,
// search rounds, node budget, table size; zeros mean the documented
// defaults) and builds an adaptive best-response adversary. The rest of the
// adversary registry is reached by name through WithAdversary.
var NewAdaptiveAdversary = adversary.NewAdaptive

// Strongly selective families (Section 5 selection objects).
var (
	// NewSelectiveFamily returns the smallest available (n,k)-SSF.
	NewSelectiveFamily = ssf.New
	// VerifySelectiveFamily exhaustively checks strong selectivity.
	VerifySelectiveFamily = ssf.Verify
)

// Lower-bound games.
var (
	// RunTheorem2Game forces any deterministic algorithm past n-3 rounds on
	// a 2-broadcastable network.
	RunTheorem2Game = lowerbound.RunTheorem2Game
	// RunTheorem4 Monte-Carlo-bounds randomized success probability.
	RunTheorem4 = lowerbound.RunTheorem4
	// RunTheorem12Game forces Ω(n log n) rounds on the layered network.
	RunTheorem12Game = lowerbound.RunTheorem12Game
)

// ProbeLinks runs a collision-free probing phase and culls links below the
// delivery-rate threshold.
var ProbeLinks = linkest.Probe

// SearchConfig parameterizes an exhaustive worst-case adversary search for
// small instances.
type SearchConfig = exhaustive.Config

// SearchWorstCase explores every adversary delivery behaviour on a small
// network and returns the execution maximizing broadcast time.
var SearchWorstCase = exhaustive.Search

// NewRand returns a seeded math/rand source for topology generators; it
// exists so example programs do not need to import math/rand themselves.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
