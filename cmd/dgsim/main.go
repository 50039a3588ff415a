// Command dgsim runs broadcast simulations, from one cell to a whole grid.
// Topologies, algorithms, and adversaries are addressed by registry name
// (`dgsim -list` prints every name with its parameter docs).
//
// With -trials 1 it prints the outcome of a single run. With -trials N the
// cell flags describe a one-cell sweep: N independently seeded runs are
// folded on the streaming reducer and one aggregate line prints. With
// -spec file.json the flags are replaced by a declarative sweep file: the
// whole Cartesian grid executes as one parallel run, one aggregate line per
// cell. Both multi-trial forms run through the same sweep path, so the
// aggregate line of a cell is the same whichever form ran it; every such run
// is memory-bounded at any trial count, bit-identical at any -workers value,
// and resumable with -checkpoint/-resume.
//
// Examples:
//
//	dgsim -topo clique-bridge -n 33 -alg harmonic -adv greedy -rule 4 -seed 7 -v
//	dgsim -topo geometric -n 65 -alg harmonic -adv greedy -trials 1000
//	dgsim -topo clique-bridge -n 17 -alg harmonic -adv greedy -trials 1000000 -checkpoint run.ckpt
//	dgsim -topo geometric -n 65 -alg harmonic -adv greedy -sched churn -trials 100
//	dgsim -spec sweep.json -workers 8
//	dgsim -list
//
// With -sched a dynamic epoch schedule (churn, fade, waypoint mobility)
// mutates the topology every few rounds; schedule parameters (churn rate,
// epoch length, ...) are set through a -spec file's "schedule" block.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"dualgraph"
	"dualgraph/internal/metrics"
	"dualgraph/internal/progress"
)

// progressOut receives -progress lines; a package variable so tests can
// capture them.
var progressOut io.Writer = os.Stderr

func main() {
	// SIGINT/SIGTERM cancel the run context: the engine stops between
	// trials, every already-printed -spec cell line stays valid, and
	// the error path below reports how much of the grid completed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		stop()
		printError(os.Stderr, err)
		os.Exit(1)
	}
}

// printError reports a failed run on stderr. When the error chain carries a
// registry *ErrUnknownName with near-miss suggestions, they are printed as
// their own stderr line: the typed error's Error() text only surfaces the
// closest one, and on the -spec path the long valid-name list buried the
// hint entirely.
func printError(w io.Writer, err error) {
	fmt.Fprintln(w, "dgsim:", err)
	var unknown *dualgraph.ErrUnknownName
	if errors.As(err, &unknown) && len(unknown.Suggestions) > 0 {
		fmt.Fprintf(w, "dgsim: did you mean: %s?\n", strings.Join(unknown.Suggestions, ", "))
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dgsim", flag.ContinueOnError)
	var (
		topo      = fs.String("topo", "clique-bridge", "topology name (see -list)")
		n         = fs.Int("n", 33, "network size")
		algName   = fs.String("alg", "harmonic", "algorithm name (see -list)")
		advName   = fs.String("adv", "greedy", "adversary name (see -list)")
		rule      = fs.Int("rule", 4, "collision rule 1..4")
		start     = fs.String("start", "async", "start rule: sync|async")
		sched     = fs.String("sched", "static", "epoch schedule name driving topology dynamics (see -list); defaults via -spec for parameters")
		seed      = fs.Int64("seed", 1, "random seed")
		maxRounds = fs.Int("max-rounds", 0, "round cap (0 = default)")
		p         = fs.Float64("p", 0.25, "probability parameter for uniform algorithm / random adversary")
		verbose   = fs.Bool("v", false, "print per-node first-receive rounds (single-trial mode only)")
		trials    = fs.Int("trials", 1, "number of independently seeded runs (per-trial seed derived from -seed and the trial index)")
		workers   = fs.Int("workers", 0, "trial engine worker count (0 = one per CPU)")
		specPath  = fs.String("spec", "", "run the declarative sweep in this JSON file instead of the cell flags")
		ckptPath  = fs.String("checkpoint", "", "with -trials > 1 or -spec: append every completed (cell, shard) accumulator to this file as the sweep runs, so a killed run can -resume it")
		resume    = fs.String("resume", "", "with -trials > 1 or -spec: restore completed shards from this checkpoint file (skipping their work), keep appending to it, and reproduce the full output byte-identically")
		progFlag  = fs.Bool("progress", false, "with -trials > 1 or -spec: print a live progress line to stderr every 2s (done/total trials, trials/s, ETA, live rounds p50/p99)")
		metrAddr  = fs.String("metrics", "", "with -trials > 1 or -spec: serve Prometheus metrics on this address (e.g. localhost:9090) for the duration of the run")
		list      = fs.Bool("list", false, "print registered topologies/algorithms/adversaries/schedules with parameter docs, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	pSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "p" {
			pSet = true
		}
	})
	if *list {
		// -list is a pure query; any other explicitly-set flag was a
		// mistake, so reject it instead of silently ignoring it.
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "list" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-list prints the registry and runs nothing; drop -%s", conflict)
		}
		dualgraph.WriteRegistry(w)
		return nil
	}
	if *ckptPath != "" && *resume != "" {
		return fmt.Errorf("use -checkpoint to start a checkpoint file and -resume to continue one (a resumed run keeps appending to the same file); the flags are mutually exclusive")
	}
	if *trials < 1 {
		return fmt.Errorf("trials must be >= 1, got %d", *trials)
	}
	if *specPath == "" && *trials == 1 && (*ckptPath != "" || *resume != "" || *progFlag || *metrAddr != "") {
		// Checkpoints and live telemetry hang off the sweep's per-shard
		// completion callbacks; a single run has no shards.
		return fmt.Errorf("-checkpoint, -resume, -progress and -metrics act on sweeps; use them with -trials > 1 or -spec")
	}
	sf := sweepFlags{workers: *workers, ckptPath: *ckptPath, resumePath: *resume, progress: *progFlag, metricsAddr: *metrAddr}
	if *specPath != "" {
		// The spec file is the whole experiment; reject explicitly-set cell
		// flags instead of silently ignoring them.
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "spec", "workers", "checkpoint", "resume", "progress", "metrics":
			default:
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-spec runs a self-contained sweep file; drop -%s", conflict)
		}
		blob, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		var sw dualgraph.Sweep
		if err := json.Unmarshal(blob, &sw); err != nil {
			return fmt.Errorf("%s: %w", *specPath, err)
		}
		return runSweep(ctx, w, sw, "", sf)
	}

	if startRule(*start) == 0 {
		return fmt.Errorf("unknown start rule %q", *start)
	}
	algP := pParams(dualgraph.AlgorithmInfo, *algName, *p)
	advP := pParams(dualgraph.AdversaryInfo, *advName, *p)
	sc, err := dualgraph.NewScenario(
		dualgraph.WithTopology(*topo, nil),
		dualgraph.WithN(*n),
		dualgraph.WithAlgorithm(*algName, algP),
		dualgraph.WithAdversary(*advName, advP),
		dualgraph.WithSchedule(*sched, nil),
		dualgraph.WithCollisionRule(dualgraph.CollisionRule(*rule)),
		dualgraph.WithStart(startRule(*start)),
		dualgraph.WithSeed(*seed),
		dualgraph.WithMaxRounds(*maxRounds),
	)
	if err != nil {
		return err
	}
	if pSet && algP == nil && advP == nil {
		// Names are valid (validation above would have produced the typed
		// suggestion error otherwise) but neither schema documents a "p"
		// parameter: reject rather than silently drop the flag.
		return fmt.Errorf("-p applies to entries with a %q parameter (see -list); neither algorithm %q nor adversary %q takes one",
			"p", *algName, *advName)
	}
	built, err := sc.Build()
	if err != nil {
		return err
	}
	if *trials > 1 {
		if *verbose {
			// Per-node first-receive rounds exist only for a single retained
			// run; silently dropping the flag hid this, so reject it instead.
			return fmt.Errorf("-v prints per-node rounds of a single run and is incompatible with -trials %d; drop -v or use -trials 1", *trials)
		}
		// The cell is a one-cell sweep: the same run, checkpoint and
		// telemetry path as -spec, so its aggregate line is the one a spec
		// file with this cell as its base prints.
		header := fmt.Sprintf("topology=%s n=%d alg=%s adversary=%s rule=CR%d start=%s seed=%d trials=%d%s",
			*topo, built.Net.N(), built.Alg.Name(), built.Adv.Name(), *rule, *start, *seed, *trials, schedSuffix(*sched))
		return runSweep(ctx, w, dualgraph.Sweep{Base: sc, Trials: *trials}, header, sf)
	}

	res, err := built.Run(ctx)
	if err != nil {
		return err
	}
	// Report the network the run actually started on: epoch 0 of the
	// schedule. For static/churn/fade that is the built base network; for
	// generative schedules (waypoint) the base only contributes its size,
	// so its eccentricity would describe a network the run never used.
	net0, err := built.Sched.Epoch(0, built.Cfg.Seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topology=%s n=%d alg=%s adversary=%s rule=CR%d start=%s seed=%d%s\n",
		*topo, net0.N(), built.Alg.Name(), built.Adv.Name(), *rule, *start, *seed, schedSuffix(*sched))
	fmt.Fprintf(w, "completed=%v rounds=%d transmissions=%d eccentricity=%d\n",
		res.Completed, res.Rounds, res.Transmissions, net0.Eccentricity())
	if *verbose {
		for node, r := range res.FirstReceive {
			fmt.Fprintf(w, "  node %3d (pid %3d): first receive round %d\n", node, res.ProcOf[node], r)
		}
	}
	return nil
}

// startRule maps the flag string; an unknown value yields 0, which scenario
// validation rejects with a clear message.
func startRule(s string) dualgraph.StartRule {
	switch s {
	case "sync":
		return dualgraph.SyncStart
	case "async":
		return dualgraph.AsyncStart
	}
	return 0
}

// pParams routes the -p flag by the registry's own parameter schema: the
// named entry receives it exactly when its schema documents a "p"
// parameter. Unknown names return nil and fail scenario validation later
// with the registry's suggestion-bearing error.
func pParams(info func(string) (dualgraph.RegistryEntry, bool), name string, p float64) dualgraph.Params {
	if e, ok := info(name); ok && e.AcceptsParam("p") {
		return dualgraph.Params{"p": p}
	}
	return nil
}

// schedSuffix renders the header fragment of a dynamic run; static runs —
// named "static" or spelled as the empty default, like the spec layer
// treats them — keep their historical headers byte-identical.
func schedSuffix(sched string) string {
	if sched == "" || sched == "static" {
		return ""
	}
	return " sched=" + sched
}

// startObservability wires the live-telemetry surfaces of a streaming run: a
// progress tracker fed by per-shard completions, the -progress stderr line on
// a 2s ticker, and the -metrics Prometheus listener. The tracker is
// observe-only, so attaching it never changes the run's output. The ticker
// always runs (it is what refreshes the progress_* gauges the listener
// serves) but writes to io.Discard unless -progress asked for the line.
// cleanup stops the ticker — emitting one final line — and closes the
// listener.
func startObservability(total int, sc dualgraph.StreamConfig, showProgress bool, metricsAddr string) (onShard func(dualgraph.ShardState), cleanup func(), err error) {
	var stops []func()
	if metricsAddr != "" {
		ln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return nil, nil, fmt.Errorf("-metrics: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler())
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(ln) }()
		// Handshake line: tests (and humans with -metrics :0) learn the
		// bound address from here.
		fmt.Fprintf(os.Stderr, "metrics listening on %s\n", ln.Addr())
		stops = append(stops, func() { _ = srv.Close() })
	}
	tr := progress.NewTracker(int64(total), sc)
	out := io.Discard
	if showProgress {
		out = progressOut
	}
	stops = append(stops, tr.Start(out, 2*time.Second))
	return tr.Observe, func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}, nil
}

// composeShard chains two optional per-shard callbacks.
func composeShard(a, b func(dualgraph.ShardState)) func(dualgraph.ShardState) {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return func(st dualgraph.ShardState) { a(st); b(st) }
}

// sweepFlags are the execution, checkpoint and telemetry flags of a sweep
// run, whether the sweep came from -spec or from the cell flags.
type sweepFlags struct {
	workers              int
	ckptPath, resumePath string
	progress             bool
	metricsAddr          string
}

// runSweep executes a sweep: every cell of the grid runs Trials times on the
// shared worker pool, and one aggregate line prints per cell — streamed in
// cell order as cells complete, so an interrupted run leaves a valid prefix
// of the full output. The whole output is bit-identical at any -workers
// value. With an empty header the output is a -spec grid: a "grid:" line,
// then "label: aggregate" per cell; otherwise header introduces a one-cell
// sweep built from the cell flags, whose aggregate prints unlabelled.
//
// With ckptPath every completed (cell, shard) accumulator is appended to a
// crash-safe checkpoint file the moment it finishes; with resumePath the
// file's intact records are restored (their trials never re-run, any torn
// tail from the crash is truncated away, fresh shards keep appending) and
// the full output — including the already-checkpointed cells — reprints
// byte-identically to an uninterrupted run. The checkpoint is keyed by the
// sweep's hash, so resuming with a different spec file or cell flag fails.
func runSweep(ctx context.Context, w io.Writer, sw dualgraph.Sweep, header string, f sweepFlags) error {
	cells, err := sw.Cells()
	if err != nil {
		return err
	}
	trials := sw.Trials
	if trials == 0 {
		trials = 1
	}

	sc := dualgraph.StreamConfig{}
	var (
		seed    map[dualgraph.ShardKey]*dualgraph.TrialSummary
		writer  *dualgraph.CheckpointWriter
		onShard func(dualgraph.ShardState)
	)
	if f.ckptPath != "" || f.resumePath != "" {
		hash, err := sw.Hash()
		if err != nil {
			return err
		}
		meta := dualgraph.CheckpointMetaFor(hash, len(cells), trials, sc)
		if f.resumePath != "" {
			recs, wr, err := dualgraph.ResumeCheckpoint(f.resumePath, meta)
			if err != nil {
				return err
			}
			seed = dualgraph.CheckpointSeed(recs)
			writer = wr
		} else {
			wr, err := dualgraph.CreateCheckpoint(f.ckptPath, meta)
			if err != nil {
				return err
			}
			writer = wr
		}
		defer writer.Close()
		// Append from worker goroutines; a failing write aborts nothing
		// mid-run (results stay correct without the checkpoint) but is
		// reported once the sweep returns.
		var mu sync.Mutex
		var appendErr error
		onShard = func(st dualgraph.ShardState) {
			err := writer.Append(dualgraph.CheckpointRecord{
				Cell: st.Cell, Shard: st.Shard,
				TrialLo: st.TrialLo, TrialHi: st.TrialHi,
				Summary: st.Summary,
			})
			if err != nil {
				mu.Lock()
				if appendErr == nil {
					appendErr = err
				}
				mu.Unlock()
			}
		}
		defer func() {
			if appendErr != nil {
				printError(os.Stderr, fmt.Errorf("checkpoint incomplete: %w", appendErr))
			}
		}()
	}

	if f.progress || f.metricsAddr != "" {
		obs, cleanup, err := startObservability(len(cells)*trials, sc, f.progress, f.metricsAddr)
		if err != nil {
			return err
		}
		defer cleanup()
		onShard = composeShard(onShard, obs)
	}

	labels := header == ""
	if labels {
		header = fmt.Sprintf("grid: cells=%d trials-per-cell=%d", len(cells), trials)
	}
	fmt.Fprintln(w, header)
	printed := 0
	_, err = sw.Run(ctx, dualgraph.EngineConfig{Workers: f.workers}, sc, dualgraph.SweepHooks{
		Seed:    seed,
		OnShard: onShard,
		OnCell: func(cr dualgraph.CellResult) {
			if labels {
				fmt.Fprintf(w, "%s: ", cr.Cell.Label)
			}
			fmt.Fprintln(w, dualgraph.FormatSummary(cr.Summary))
			printed++
		},
	})
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("interrupted after %d/%d cells (partial results above are final for their cells): %w",
				printed, len(cells), err)
		}
		return err
	}
	return nil
}
