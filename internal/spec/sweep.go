package spec

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"dualgraph/internal/engine"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
)

// Sweep is a declarative Cartesian grid: a base Scenario plus per-axis value
// lists. Every listed axis replaces the base's value in the product; an
// omitted axis contributes the base's single value. Cells are enumerated in
// a fixed nested order — topology, algorithm, adversary, schedule, n, rule,
// seed, with the last axis innermost — so cell indices and labels are
// stable.
type Sweep struct {
	// Version is the wire-format version of the document (see WireVersion);
	// zero reads and marshals as version 1, unknown versions are rejected.
	Version int `json:"version,omitempty"`
	// Base supplies the value of every axis the sweep does not list, and
	// the non-axis fields (start rule, max rounds).
	Base Scenario `json:"base"`
	// Topologies is the topology axis (empty = base's topology).
	Topologies []Choice `json:"topologies,omitempty"`
	// Algorithms is the algorithm axis.
	Algorithms []Choice `json:"algorithms,omitempty"`
	// Adversaries is the adversary axis.
	Adversaries []Choice `json:"adversaries,omitempty"`
	// Schedules is the epoch-schedule axis (topology dynamics): sweep churn
	// rates, fade probabilities, or mobility speeds like any other axis.
	Schedules []Choice `json:"schedules,omitempty"`
	// Ns is the network-size axis.
	Ns []int `json:"ns,omitempty"`
	// Rules is the collision-rule axis.
	Rules []sim.CollisionRule `json:"rules,omitempty"`
	// Seeds is the base-seed axis (independent replications of the grid).
	Seeds []int64 `json:"seeds,omitempty"`
	// Trials is the Monte Carlo depth of every cell; 0 means 1.
	Trials int `json:"trials,omitempty"`
}

// Cell is one point of the expanded grid.
type Cell struct {
	// Index is the cell's position in enumeration order.
	Index int
	// Label identifies the cell by its swept axes (axes the sweep did not
	// list are fixed across the grid and stay out of the label).
	Label string
	// Scenario is the fully specified cell.
	Scenario Scenario
}

// UnmarshalJSON fills unset base fields with Default's values, so a spec
// file only states what it cares about: `{"base": {"n": 17}}` inherits the
// default topology, algorithm, adversary, rules, and seed. Unknown
// wire-format versions are rejected up front with *ErrUnsupportedVersion,
// and unknown field names at any level with an error naming the field.
func (sw *Sweep) UnmarshalJSON(b []byte) error {
	type alias Sweep // drop methods to avoid recursion
	tmp := alias{Base: Default()}
	if err := decodeStrict(b, &tmp); err != nil {
		return err
	}
	if err := checkVersion("sweep", tmp.Version); err != nil {
		return err
	}
	*sw = Sweep(tmp)
	return nil
}

// trials returns the per-cell Monte Carlo depth.
func (sw Sweep) trials() int {
	if sw.Trials > 0 {
		return sw.Trials
	}
	return 1
}

// Cells expands the grid in enumeration order and validates every cell.
// Axis value combinations that expand to duplicate labels — e.g. a repeated
// seed or two identical topology choices — are rejected with
// *ErrDuplicateLabel, since labels key GridResult lookups and downstream
// result streams.
func (sw Sweep) Cells() ([]Cell, error) {
	if err := checkVersion("sweep", sw.Version); err != nil {
		return nil, err
	}
	if sw.Trials < 0 {
		return nil, fmt.Errorf("sweep: trials must be >= 0, got %d", sw.Trials)
	}
	if len(sw.Ns) > 0 {
		// An n axis over a topology that derives its size from parameters
		// would run byte-identical duplicate cells under different n=
		// labels; reject the combination instead.
		topos := sw.Topologies
		if len(topos) == 0 {
			topos = []Choice{sw.Base.Topology}
		}
		for _, c := range topos {
			if e, ok := registry.TopologyInfo(c.Name); ok && e.IgnoresN {
				return nil, fmt.Errorf("sweep: topology %q derives its size from its params and ignores n; drop the ns axis or sweep its size parameter instead", c.Name)
			}
		}
	}
	type axis struct {
		n      int                      // axis length (0 = not swept)
		apply  func(s *Scenario, i int) // set value i on s
		render func(s Scenario) string  // label fragment after apply
	}
	axes := []axis{
		{len(sw.Topologies),
			func(s *Scenario, i int) { s.Topology = sw.Topologies[i] },
			func(s Scenario) string { return "topo=" + s.Topology.label() }},
		{len(sw.Algorithms),
			func(s *Scenario, i int) { s.Algorithm = sw.Algorithms[i] },
			func(s Scenario) string { return "alg=" + s.Algorithm.label() }},
		{len(sw.Adversaries),
			func(s *Scenario, i int) { s.Adversary = sw.Adversaries[i] },
			func(s Scenario) string { return "adv=" + s.Adversary.label() }},
		{len(sw.Schedules),
			func(s *Scenario, i int) { s.Schedule = sw.Schedules[i] },
			func(s Scenario) string { return "sched=" + s.Schedule.label() }},
		{len(sw.Ns),
			func(s *Scenario, i int) { s.N = sw.Ns[i] },
			func(s Scenario) string { return fmt.Sprintf("n=%d", s.N) }},
		{len(sw.Rules),
			func(s *Scenario, i int) { s.Rule = sw.Rules[i] },
			func(s Scenario) string { return fmt.Sprintf("rule=%v", s.Rule) }},
		{len(sw.Seeds),
			func(s *Scenario, i int) { s.Seed = sw.Seeds[i] },
			func(s Scenario) string { return fmt.Sprintf("seed=%d", s.Seed) }},
	}
	total := 1
	for _, a := range axes {
		if a.n > 0 {
			total *= a.n
		}
	}
	cells := make([]Cell, 0, total)
	seen := make(map[string]int, total)
	// odometer enumeration: the last listed axis is the innermost digit.
	idx := make([]int, len(axes))
	for {
		s := sw.Base
		label := ""
		for ai, a := range axes {
			if a.n == 0 {
				continue
			}
			a.apply(&s, idx[ai])
			if label != "" {
				label += " "
			}
			label += a.render(s)
		}
		if label == "" {
			label = "base"
		}
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("sweep cell %d (%s): %w", len(cells), label, err)
		}
		if first, dup := seen[label]; dup {
			return nil, &ErrDuplicateLabel{Label: label, First: first, Second: len(cells)}
		}
		seen[label] = len(cells)
		cells = append(cells, Cell{Index: len(cells), Label: label, Scenario: s})

		// advance the odometer
		ai := len(axes) - 1
		for ; ai >= 0; ai-- {
			if axes[ai].n == 0 {
				continue
			}
			idx[ai]++
			if idx[ai] < axes[ai].n {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			return cells, nil
		}
	}
}

// labelWithoutN drops the "n=..." fragment of a cell label, grouping cells
// that differ only in the requested size.
func labelWithoutN(label string) string {
	fields := strings.Fields(label)
	kept := fields[:0]
	for _, f := range fields {
		if !strings.HasPrefix(f, "n=") {
			kept = append(kept, f)
		}
	}
	return strings.Join(kept, " ")
}

// CellResult pairs a cell with its streamed Monte Carlo summary.
type CellResult struct {
	// Cell identifies the grid point.
	Cell Cell
	// Summary aggregates the cell's trials (bit-identical at any worker
	// count; equal to the cell's Scenario run alone as a one-cell sweep).
	Summary *engine.TrialSummary
}

// GridResult is the outcome of a Sweep run, keyed by cell label.
type GridResult struct {
	// Trials is the per-cell Monte Carlo depth that was run.
	Trials int
	// Cells holds one result per grid point, in enumeration order.
	Cells []CellResult
}

// Cell returns the result with the given label.
func (g *GridResult) Cell(label string) (*CellResult, bool) {
	for i := range g.Cells {
		if g.Cells[i].Cell.Label == label {
			return &g.Cells[i], true
		}
	}
	return nil, false
}

// Hooks are the optional checkpoint seed and observers of a Sweep run. The
// zero value runs the whole grid and observes nothing.
type Hooks struct {
	// Seed holds (cell, shard) units restored from a checkpoint instead of
	// run (see engine.Hooks.Seed).
	Seed map[engine.ShardKey]*engine.TrialSummary
	// OnShard observes every freshly completed unit, from worker goroutines,
	// possibly concurrently: synchronize, and consume the summary during the
	// call (see engine.Hooks.OnShard).
	OnShard func(engine.ShardState)
	// OnCell receives finished cells as engine.Hooks.OnCell does: serialized,
	// in enumeration order, while the rest of the grid still runs — always a
	// prefix of the full grid, byte-identical to an uninterrupted run's.
	OnCell func(CellResult)
}

// Run expands the sweep, builds its cells (BuildCells) and executes the
// whole grid on one worker pool (engine.RunGrid). Every cell summary is
// bit-identical at any worker count and equal to streaming that cell's
// Scenario alone. Units in h.Seed are restored instead of run, and the grid
// result — including the order and content of h.OnCell deliveries — is
// bit-identical to an uninterrupted run at any worker count on either side
// of the interruption. Cancelling ctx stops the run within 64 rounds with
// a wrapped context error; cells already delivered remain final.
func (sw Sweep) Run(ctx context.Context, ec engine.Config, sc engine.StreamConfig, h Hooks) (*GridResult, error) {
	cells, err := sw.Cells()
	if err != nil {
		return nil, err
	}
	built, err := sw.BuildCells(ctx, ec, cells)
	if err != nil {
		return nil, err
	}
	eh := engine.Hooks{Seed: h.Seed, OnShard: h.OnShard}
	if h.OnCell != nil {
		eh.OnCell = func(c int, sum *engine.TrialSummary) {
			h.OnCell(CellResult{Cell: cells[c], Summary: sum})
		}
	}
	sums, err := engine.RunGrid(ctx, built, sw.trials(), ec, sc, eh)
	if err != nil {
		return nil, err
	}
	out := &GridResult{Trials: sw.trials(), Cells: make([]CellResult, len(cells))}
	for i, c := range cells {
		out.Cells[i] = CellResult{Cell: c, Summary: sums[i]}
	}
	return out, nil
}

// BuildCells constructs the engine cells of the sweep's expansion cells in
// parallel on ec's pool — deterministically, each from its own scenario
// seed. A size-adjusting topology (grid rounds n up to a square) can map
// two requested n values to the same built network; those cells would be
// byte-identical under different n= labels, so the sweep is refused. Run
// and the sweep service both build through here.
func (sw Sweep) BuildCells(ctx context.Context, ec engine.Config, cells []Cell) ([]engine.Trial, error) {
	errs := make([]error, len(cells))
	built, err := engine.Map(ctx, len(cells), ec, func(i int) (engine.Trial, error) {
		b, err := cells[i].Scenario.Build()
		if err != nil {
			errs[i] = fmt.Errorf("sweep cell %d (%s): %w", i, cells[i].Label, err)
			return engine.Trial{}, errs[i]
		}
		return b.Trial, nil
	})
	if err != nil {
		// Map reports the lowest failing index as a trial; it is a cell here,
		// and Map's lowest failing index is the lowest recorded one.
		if i := slices.IndexFunc(errs, func(e error) bool { return e != nil }); i >= 0 {
			return nil, errs[i]
		}
		return nil, err
	}
	if len(sw.Ns) > 1 {
		// Cells that differ in any axis but n keep distinct keys.
		type key struct {
			rest   string
			builtN int
		}
		seen := make(map[key]string, len(cells))
		for i, c := range cells {
			k := key{rest: labelWithoutN(c.Label), builtN: built[i].Net.N()}
			if prev, ok := seen[k]; ok {
				return nil, fmt.Errorf("sweep: cells %q and %q build the same %d-node network (the topology adjusts the requested size); remove one of the n values",
					prev, c.Label, built[i].Net.N())
			}
			seen[k] = c.Label
		}
	}
	return built, nil
}
