// Package expt is the experiment harness: it regenerates, as measured
// scaling experiments, every table of the paper plus per-theorem validation
// figures and ablations. Each experiment has a stable ID used by
// cmd/dgbench and by the benchmark suite; `dgbench -experiment list` prints
// the index, and ARCHITECTURE.md's "CLIs and experiments" describes it.
//
// An experiment whose rows are scenario cells is a checked-in sweep
// document, sweeps/<ID>.json, plus a row formatter over its cell summaries:
// `dgsim -spec internal/expt/sweeps/<ID>.json` runs it at full size. Every
// other experiment — the games, schedules, searches and checks whose rows
// are not scenario cells — is a job table: a list of jobs, and a row
// function that runs one job and formats its table line, fanned out over
// the trial engine (internal/engine) and written in job order. Every
// trial's seed is a pure function of the experiment seed and the trial
// index, and every row a pure function of the config and its job, so an
// experiment's table is byte-identical at any worker count.
package expt

import (
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"text/tabwriter"

	"dualgraph/internal/adversary"
	"dualgraph/internal/engine"
	"dualgraph/internal/sim"
	"dualgraph/internal/spec"
	"dualgraph/internal/stats"
)

// Config parameterizes an experiment run.
type Config struct {
	// Out receives the experiment's table.
	Out io.Writer
	// Quick trims sweeps and trial counts for CI-speed runs.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Engine configures the parallel trial engine used to fan out the
	// experiment's simulations; the zero value uses one worker per CPU.
	// Worker count never changes an experiment's output.
	Engine engine.Config
}

// Experiment is one reproducible experiment.
type Experiment struct {
	// ID is the stable identifier (e.g. "table1-dual-strongselect").
	ID string
	// Title is a one-line description.
	Title string
	// PaperRef points at the table/theorem the experiment reproduces.
	PaperRef string
	// Run executes the experiment and writes its table to cfg.Out.
	Run func(cfg Config) error
	// quick trims the experiment's sweep document for -quick runs; nil
	// when the experiment runs no document.
	quick *quickTrim
}

// All returns every registered experiment in a stable order.
func All() []Experiment {
	exps := []Experiment{
		table1ClassicalRR(),
		table1DualStrongSelect(),
		table1Theorem2(),
		table1Theorem12(),
		table2ClassicalDecay(),
		table2DualHarmonic(),
		table2Theorem4(),
		figSeparation(),
		figBusyRounds(),
		figSSFSize(),
		figLemma1(),
		ablCollisionRules(),
		ablHarmonicT(),
		ablAdversary(),
		extDeltaSelect(),
		extDynamic(),
		extPreferentialAttachment(),
		extRepeatedBroadcast(),
		extLinkCulling(),
		extBroadcastability(),
		extExhaustive(),
		extAdaptive(),
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

//go:embed sweeps/*.json
var sweepDocs embed.FS

// quickTrim is how -quick shrinks a sweep document: its n axis to the first
// three sizes, and its trials and base n to these values where nonzero.
type quickTrim struct{ trials, n int }

// cell is one cell of a sweep experiment as its row formatter sees it: the
// cell's summary and its scenario built again, for the built network's
// size and the algorithm's and adversary's names and parameters. Building
// is deterministic, so these are the values the cell ran.
type cell struct {
	spec.CellResult
	*spec.Built
}

// sweepExperiment returns e run as its sweep document, sweeps/<e.ID>.json,
// in one Sweep.Run, then rows, which writes the table body from the cells
// and returns an error where a row breaks a bound the experiment checks.
func sweepExperiment(e Experiment, q quickTrim, rows func(tw io.Writer, cells []cell) error) Experiment {
	e.quick = &q
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		sw, err := e.Sweep(cfg)
		if err != nil {
			return err
		}
		g, err := sw.Run(context.Background(), cfg.Engine, engine.StreamConfig{}, spec.Hooks{})
		if err != nil {
			return err
		}
		cells := make([]cell, len(g.Cells))
		for i, c := range g.Cells {
			b, err := c.Cell.Scenario.Build()
			if err != nil {
				return err
			}
			cells[i] = cell{c, b}
		}
		tw := newTable(cfg.Out)
		if err := rows(tw, cells); err != nil {
			return err
		}
		return tw.Flush()
	}
	return e
}

// jobExperiment returns e run as a job table: the banner, then row for
// every job jobs lists, fanned out through one engine.Map, written in job
// order as one table line each under the column header head, then the lines
// of foot below the table. row returns an error where its job breaks a
// bound the experiment checks; the lowest-index error fails the run before
// any of the table is written.
func jobExperiment[J any](e Experiment, head string, jobs func(Config) ([]J, error), row func(Config, J) (string, error), foot ...string) Experiment {
	e.Run = func(cfg Config) error {
		header(cfg.Out, e)
		js, err := jobs(cfg)
		if err != nil {
			return err
		}
		rows, err := engine.Map(context.Background(), len(js), cfg.Engine, func(i int) (string, error) {
			return row(cfg, js[i])
		})
		if err != nil {
			return err
		}
		tw := newTable(cfg.Out)
		fmt.Fprintln(tw, head)
		for _, r := range rows {
			fmt.Fprintln(tw, r)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		for _, line := range foot {
			fmt.Fprintln(cfg.Out, line)
		}
		return nil
	}
	return e
}

// Sweep returns the sweep document e runs under cfg: its checked-in file
// with the base seed set to cfg.Seed, trimmed when cfg.Quick.
func (e Experiment) Sweep(cfg Config) (spec.Sweep, error) {
	var sw spec.Sweep
	if e.quick == nil {
		return sw, fmt.Errorf("experiment %s runs no sweep document", e.ID)
	}
	name := "sweeps/" + e.ID + ".json"
	blob, err := sweepDocs.ReadFile(name)
	if err != nil {
		return sw, err
	}
	if err := json.Unmarshal(blob, &sw); err != nil {
		return sw, fmt.Errorf("%s: %w", name, err)
	}
	sw.Base.Seed = cfg.Seed
	if cfg.Quick {
		sw.Ns = sw.Ns[:min(3, len(sw.Ns))]
		if e.quick.trials > 0 {
			sw.Trials = e.quick.trials
		}
		if e.quick.n > 0 {
			sw.Base.N = e.quick.n
		}
	}
	return sw, nil
}

// rounds returns the q-quantile of the cell's rounds; NaN, which the table
// shows, only for a cell without trials, which a sweep never runs.
func (c cell) rounds(q float64) float64 {
	v, err := c.Summary.Rounds.Quantile(q)
	if err != nil {
		return math.NaN()
	}
	return v
}

// allWithin reports whether every run of the cell completed within bound
// rounds.
func (c cell) allWithin(bound int) bool {
	return c.Summary.Completed == c.Summary.Trials && c.rounds(1) <= float64(bound)
}

// fitRows writes one row per cell with row, which returns the rounds the
// row reports, and after each topology's rows the power-law fit of those
// rounds against the built n, placed in the table's columns by pad.
func fitRows(tw io.Writer, cells []cell, pad string, row func(cell) (float64, error)) error {
	var ns []int
	var rounds []float64
	for i, c := range cells {
		r, err := row(c)
		if err != nil {
			return err
		}
		ns, rounds = append(ns, c.Net.N()), append(rounds, r)
		topo := c.Scenario.Topology.Name
		if i+1 == len(cells) || cells[i+1].Scenario.Topology.Name != topo {
			fmt.Fprintf(tw, "%s%s%s\n", topo, pad, fitLine(ns, rounds))
			ns, rounds = nil, nil
		}
	}
	return nil
}

// pairs returns the cells run against the benign adversary, stably ordered
// by n, each with the cell that differs from it only in running against
// the greedy collider.
func pairs(cells []cell) ([][2]cell, error) {
	var out [][2]cell
	for _, c := range cells {
		if c.Scenario.Adversary.Name != "benign" {
			continue
		}
		i := slices.IndexFunc(cells, func(o cell) bool {
			s := o.Scenario
			s.Adversary = spec.Choice{Name: "benign"}
			return o.Scenario.Adversary.Name == "greedy" && reflect.DeepEqual(s, c.Scenario)
		})
		if i < 0 {
			return nil, fmt.Errorf("no greedy cell for %s", c.Scenario.Label())
		}
		out = append(out, [2]cell{c, cells[i]})
	}
	slices.SortStableFunc(out, func(a, b [2]cell) int { return a[0].Scenario.N - b[0].Scenario.N })
	return out, nil
}

// newTable returns a tabwriter for aligned experiment output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// header prints the experiment banner.
func header(w io.Writer, e Experiment) {
	fmt.Fprintf(w, "== %s — %s\n   paper: %s\n", e.ID, e.Title, e.PaperRef)
}

// sweepSizes returns the n sweep for scaling experiments.
func sweepSizes(quick bool) []int {
	if quick {
		return []int{17, 33, 65}
	}
	return []int{17, 33, 65, 129, 257}
}

// fitLine reports the fitted power-law exponent of rounds vs n, or NaN-free
// fallback text when the fit fails.
func fitLine(ns []int, rounds []float64) string {
	xs := make([]float64, len(ns))
	for i, n := range ns {
		xs[i] = float64(n)
	}
	alpha, c, err := stats.FitPowerLaw(xs, rounds)
	if err != nil {
		return "fit: n/a"
	}
	return fmt.Sprintf("fit: rounds ≈ %.2f·n^%.2f", c, alpha)
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// greedy returns the standard worst-case-ish adversary used in the dual
// experiments.
func greedy() sim.Adversary { return adversary.GreedyCollider{} }

// benign returns the classical-model adversary.
func benign() sim.Adversary { return adversary.Benign{} }
