package main

import (
	"encoding/json"
	"fmt"

	"dualgraph/internal/sim"
	"dualgraph/internal/spec"
)

// workload is one set of inputs the benchmark runs. Every workload uses the
// greedy collider; they differ in which layer does most of the work.
type workload struct {
	name string
	why  string
	// sweeps are the generated sweep documents in run order. For dgsim
	// workloads each one is a `dgsim -spec` invocation; for the service
	// workload sweeps[0] is the phase-A job and sweeps[1] the phase-B job.
	sweeps []sweepDoc
	// checkpoint runs dgsim with -checkpoint, and the traced pass appends a
	// checkpoint record per shard as dgsim does.
	checkpoint bool
	// service drives dgsimd over HTTP instead of dgsim.
	service bool
	// jobs is the number of phase-B jobs a service rep submits.
	jobs int
}

type sweepDoc struct {
	name  string
	sweep spec.Sweep
}

// workloadNames lists the workloads in suite order.
var workloadNames = []string{"short-trials", "long-trials", "churn-epochs", "service-grid"}

// scale shrinks the workloads for -quick runs (smoke testing only).
type scale struct{ quick bool }

func (s scale) trials(t int) int {
	if !s.quick {
		return t
	}
	return max(1, t/64)
}

func (s scale) jobs(j int) int {
	if s.quick {
		return 2
	}
	return j
}

// seeds is the base-seed axis of a sweep: k consecutive seeds, disjoint
// for different benchmark seeds. Every cell runs on k independently
// generated networks, so one unusual network moves a rep's totals less.
func (s scale) seeds(seed int64, k int) []int64 {
	if s.quick {
		k = 1
	}
	out := make([]int64, k)
	for i := range out {
		out[i] = seed*int64(k) + int64(i)
	}
	return out
}

func choice(name string, params map[string]any) spec.Choice {
	return spec.Choice{Name: name, Params: params}
}

func choices(names ...string) []spec.Choice {
	out := make([]spec.Choice, len(names))
	for i, n := range names {
		out[i] = choice(n, nil)
	}
	return out
}

// base is the scenario every generated sweep starts from: the greedy
// collider under CR4 with asynchronous starts. Each sweep's axes override
// the topology, algorithm and seed.
func base(seed int64, n int, topo spec.Choice) spec.Scenario {
	return spec.Scenario{
		Topology:  topo,
		Algorithm: choice("harmonic", nil),
		Adversary: choice("greedy", nil),
		N:         n,
		Rule:      sim.CR4,
		Start:     sim.AsyncStart,
		Seed:      seed,
	}
}

// newWorkload generates the named workload's inputs from seed. The same
// seed always gives byte-identical sweep documents. A rep of each workload
// takes a second or two on two CPUs and splits into many small (cell,
// shard) units, so that a run of a few seconds holds enough reps for a
// steady median.
func newWorkload(name string, seed int64, quick bool) (*workload, error) {
	s := scale{quick}
	switch name {
	case "short-trials":
		return &workload{
			name: name,
			why:  "many short n=256 trials where per-trial setup (RNG sources, buffers) is most of the time",
			sweeps: []sweepDoc{{"short", spec.Sweep{
				Base: base(seed, 256, choice("tree", nil)),
				Topologies: []spec.Choice{
					choice("geometric", map[string]any{"r-reliable": 0.12, "r-unreliable": 0.25}),
					choice("pa", nil),
					choice("tree", nil),
				},
				Algorithms: choices("decay", "strong-select"),
				Seeds:      s.seeds(seed, 4),
				Trials:     s.trials(24),
			}}},
		}, nil
	case "long-trials":
		return &workload{
			name: name,
			why:  "trials of up to ~28k rounds where the round loop dominates, dense at n=257 and sparse at n=1024; setup-only changes leave it unchanged",
			sweeps: []sweepDoc{
				{"long-dense", spec.Sweep{
					Base:       base(seed, 257, choice("clique-bridge", nil)),
					Topologies: choices("clique-bridge", "complete-layered"),
					Algorithms: choices("harmonic", "strong-select"),
					Trials:     s.trials(8),
				}},
				{"long-sparse", spec.Sweep{
					Base:  base(seed, 1024, choice("geometric", map[string]any{"r-reliable": 0.06, "r-unreliable": 0.1})),
					Seeds: s.seeds(seed, 4),
				}},
			},
		}, nil
	case "churn-epochs":
		return &workload{
			name:       name,
			why:        "n=1024 churn/fade/waypoint schedules where epoch materialization dominates, plus an fsync'd checkpoint append per shard",
			checkpoint: true,
			sweeps: []sweepDoc{{"churn", spec.Sweep{
				Base: base(seed, 1024, choice("geometric", map[string]any{"r-reliable": 0.06, "r-unreliable": 0.12})),
				Algorithms: []spec.Choice{
					choice("decay", nil),
					choice("uniform", map[string]any{"p": 0.02}),
				},
				Schedules: []spec.Choice{
					choice("churn", map[string]any{"epoch-len": 4, "p-down": 0.05}),
					choice("fade", map[string]any{"epoch-len": 4, "p-fade": 0.3}),
					choice("waypoint", map[string]any{"epoch-len": 8, "r-reliable": 0.06, "r-unreliable": 0.12}),
				},
				Seeds:  s.seeds(seed, 2),
				Trials: s.trials(3),
			}}},
		}, nil
	case "service-grid":
		return &workload{
			name:    name,
			why:     "dgsimd: one wide 192-cell job of tiny trials, then closed-loop small jobs; per-trial engine/spec/stream overheads and job latency",
			service: true,
			jobs:    s.jobs(40),
			sweeps: []sweepDoc{
				{"service-a", spec.Sweep{
					Base:       base(seed, 9, choice("clique-bridge", nil)),
					Topologies: choices("clique-bridge", "line", "star", "complete-layered", "tree", "grid"),
					Algorithms: choices("round-robin", "decay", "harmonic", "strong-select"),
					Ns:         []int{9, 17},
					Rules:      []sim.CollisionRule{sim.CR1, sim.CR2, sim.CR3, sim.CR4},
					Trials:     s.trials(32),
				}},
				{"service-b", spec.Sweep{
					Base:       base(seed, 17, choice("clique-bridge", nil)),
					Topologies: choices("clique-bridge", "line"),
					Algorithms: choices("decay", "strong-select"),
					Trials:     s.trials(32),
				}},
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// docs renders every sweep as the JSON document the programs receive.
func (w *workload) docs() ([][]byte, error) {
	out := make([][]byte, len(w.sweeps))
	for i, s := range w.sweeps {
		b, err := json.MarshalIndent(s.sweep, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("%s: encode %s: %w", w.name, s.name, err)
		}
		out[i] = append(b, '\n')
	}
	return out, nil
}
