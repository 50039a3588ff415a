// Command bench is the repository's benchmark. It generates each workload's
// sweep files from a seed, drives the real dgsim and dgsimd binaries on them
// for the end-to-end metrics, and times every layer from outside in a
// separate traced in-process pass. Run it through bench/run.sh; README.md
// documents the workloads, the metrics and the report format.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// A run repeats the set-up it reports as setup_s at least setupReps times
// and for at least setupSeconds, and reports the median: a set-up takes
// milliseconds, so a single one is at the mercy of any hiccup.
const (
	setupReps    = 21
	setupSeconds = time.Second
)

// suiteReps is how many times a suite runs every workload untraced, in
// rotating order.
const suiteReps = 3

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type harness struct {
	env
	seed           int64
	quick          bool
	stdout, stderr io.Writer
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := runCompare(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run one workload and print its result as a JSON line; empty runs the whole suite")
		seed    = fs.Int64("seed", 1, "seed the workload inputs are generated from")
		seconds = fs.Int("seconds", 20, "with -workload and -trace 0: repeat the workload until this many seconds have passed")
		trace   = fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		quick   = fs.Bool("quick", false, "shrink every workload about 64x, for smoke tests; the numbers are not results")
		traj    = fs.Bool("trajectory", false, "suite: append the end-to-end values to bench/trajectory.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "bench: -trace must be 0 or 1")
		return 2
	case *seconds < 0:
		fmt.Fprintln(stderr, "bench: -seconds must be >= 0")
		return 2
	case *traj && (*quick || *name != ""):
		fmt.Fprintln(stderr, "bench: -trajectory records full suite runs only")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	h := &harness{
		env: env{
			root:    root,
			build:   filepath.Join(root, ".bench_build"),
			out:     filepath.Join(root, "bench", "out"),
			workers: runtime.NumCPU(),
		},
		seed: *seed, quick: *quick, stdout: stdout, stderr: stderr,
	}
	if err := h.buildPrograms(ctx); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *name != "" {
		return h.one(ctx, *name, *seconds, *trace)
	}
	return h.suite(ctx, *traj)
}

// load generates a workload's inputs.
func (h *harness) load(name string) (*workload, []*input, error) {
	w, err := newWorkload(name, h.seed, h.quick)
	if err != nil {
		return nil, nil, err
	}
	dir := fmt.Sprintf("%s-seed%d", name, h.seed)
	if h.quick {
		dir += "-quick"
	}
	ins, err := h.prepare(w, filepath.Join(h.build, "inputs", dir))
	return w, ins, err
}

// one runs a single workload on the built programs and prints its metrics,
// the last line being the JSON result. It returns the exit code.
func (h *harness) one(ctx context.Context, name string, seconds, trace int) int {
	w, ins, err := h.load(name)
	if err != nil {
		fmt.Fprintln(h.stderr, "bench:", err)
		return 1
	}
	chk := &checker{}
	var (
		defs []metricDef
		vals map[string]float64
	)
	if trace == 0 {
		defs = e2eDefs
		var e2e map[string]*series
		if e2e, err = h.endToEnd(ctx, w, ins, float64(seconds), chk); err == nil {
			vals = reportedValues(e2e)
		}
	} else {
		defs = layerDefs
		var reps []*rep
		if reps, err = h.repeat(ctx, w, ins, 0, chk); err == nil {
			vals, err = h.layers(ctx, w, ins, reps, chk)
		}
	}
	if err != nil {
		fmt.Fprintf(h.stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	res := result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return h.fail(name, fmt.Errorf("metric %s is %v", d.name, v))
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	h.print(name, defs, vals)
	if trace == 1 {
		h.print(name, extraLayerDefs, vals)
	}
	for _, e := range chk.errs {
		fmt.Fprintln(h.stderr, "bench: check failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return h.fail(name, err)
	}
	fmt.Fprintln(h.stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func (h *harness) fail(name string, err error) int {
	fmt.Fprintf(h.stderr, "bench: %s: %v\n", name, err)
	return 1
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the metrics in defs that vals holds, one per line.
func (h *harness) print(workload string, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		if v, ok := vals[d.name]; ok {
			fmt.Fprintf(h.stdout, "%-13s %-28s %14.6g %s\n", workload, d.name, v, d.unit)
		}
	}
}

// endToEnd measures the set-up time, then repeats the workload until
// seconds have passed, and returns the end-to-end series.
func (h *harness) endToEnd(ctx context.Context, w *workload, ins []*input, seconds float64, chk *checker) (map[string]*series, error) {
	setup, err := measureSetup(ins)
	if err != nil {
		return nil, err
	}
	reps, err := h.repeat(ctx, w, ins, seconds, chk)
	if err != nil {
		return nil, err
	}
	return e2eSeries(reps, setup), nil
}

// reportedValues returns the value each series reports.
func reportedValues(e2e map[string]*series) map[string]float64 {
	m := make(map[string]float64, len(e2e))
	for k, s := range e2e {
		m[k] = s.Value
	}
	return m
}

// repeat runs untraced reps, at least one, until seconds have passed.
func (h *harness) repeat(ctx context.Context, w *workload, ins []*input, seconds float64, chk *checker) ([]*rep, error) {
	var reps []*rep
	start := time.Now()
	for len(reps) == 0 || time.Since(start).Seconds() < seconds {
		var ref []string
		if len(reps) > 0 {
			ref = reps[0].lines
		}
		r, err := h.runRep(ctx, w, ins, ref, chk)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		fmt.Fprintf(h.stderr, "bench: %s rep %d: %d trials in %.3fs, cpu %.3fs, max rss %d KB\n",
			w.name, len(reps), r.trials, r.wall, r.cpu, r.rssKB)
	}
	return reps, nil
}

// layers runs the traced pass, checks its lines against the binaries' and
// writes its trace. Utilization and the service numbers come from the
// untraced reps.
func (h *harness) layers(ctx context.Context, w *workload, ins []*input, reps []*rep, chk *checker) (map[string]float64, error) {
	if err := os.MkdirAll(filepath.Join(h.build, "work"), 0o755); err != nil {
		return nil, err
	}
	lr, err := tracedPass(ctx, w, ins, filepath.Join(h.build, "work", w.name+"-traced.ckpt"))
	if err != nil {
		return nil, err
	}
	ref := reps[0].lines
	for i, line := range lr.lines {
		ok := i < len(ref) && line == ref[i]
		chk.op(ok, "traced cell %d %q differs from the binaries' output", i, line)
	}
	if len(lr.lines) != len(ref) {
		chk.op(false, "traced pass printed %d cells, the binaries %d", len(lr.lines), len(ref))
	}
	util := make([]float64, len(reps))
	for i, r := range reps {
		util[i] = r.cpu / (r.life * float64(h.workers))
	}
	m := lr.metrics(median(util))
	for k := range reps[0].svc {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = r.svc[k]
		}
		m[k] = median(v)
	}
	if w.service {
		// A suite's three reps submit 120 phase-B jobs: enough for a p90
		// with ten samples beyond it.
		var jobs []float64
		for _, r := range reps {
			jobs = append(jobs, r.jobs...)
		}
		m["service.job_p90_s"] = quantile(jobs, 0.9)
	}
	if err := os.MkdirAll(h.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(h.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, h.seed))
	if err := lr.tr.writeTrace(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return m, nil
}

// suite runs every workload suiteReps times in rotating order, then each
// one's traced pass, and writes the report (and, with traj, a trajectory
// line).
func (h *harness) suite(ctx context.Context, traj bool) int {
	type entry struct {
		w      *workload
		ins    []*input
		chk    checker
		reps   []*rep
		setups []float64 // the median set-up time measured after each rep
	}
	entries := make([]*entry, len(workloadNames))
	for i, name := range workloadNames {
		w, ins, err := h.load(name)
		if err != nil {
			return h.fail(name, err)
		}
		entries[i] = &entry{w: w, ins: ins}
	}
	for r := 0; r < suiteReps; r++ {
		for i := range entries {
			e := entries[(i+r)%len(entries)]
			var ref []string
			if len(e.reps) > 0 {
				ref = e.reps[0].lines
			}
			rp, err := h.runRep(ctx, e.w, e.ins, ref, &e.chk)
			if err != nil {
				return h.fail(e.w.name, err)
			}
			e.reps = append(e.reps, rp)
			setup, err := measureSetup(e.ins)
			if err != nil {
				return h.fail(e.w.name, err)
			}
			e.setups = append(e.setups, median(setup))
		}
	}
	rpt := &report{Seed: h.seed, Nproc: h.workers, Reps: suiteReps, Quick: h.quick, Commit: gitCommit(h.root), Workloads: map[string]*workloadReport{}}
	failed := false
	for _, e := range entries {
		e2e := e2eSeries(e.reps, e.setups)
		layers, err := h.layers(ctx, e.w, e.ins, e.reps, &e.chk)
		if err != nil {
			return h.fail(e.w.name, err)
		}
		rpt.Workloads[e.w.name] = newWorkloadReport(e2e, layers, &e.chk)
		h.print(e.w.name, e2eDefs, reportedValues(e2e))
		for _, err := range e.chk.errs {
			fmt.Fprintf(h.stderr, "bench: %s: check failed: %s\n", e.w.name, err)
		}
		failed = failed || e.chk.failed > 0
	}
	for _, e := range entries {
		h.print(e.w.name, append(append([]metricDef(nil), layerDefs...), extraLayerDefs...), rpt.Workloads[e.w.name].layerValues())
	}
	path, err := rpt.write(h.out)
	if err != nil {
		return h.fail("suite", err)
	}
	fmt.Fprintln(h.stdout, "report:", path)
	if traj && !failed {
		if err := rpt.appendTrajectory(filepath.Join(h.root, "bench", "trajectory.jsonl")); err != nil {
			return h.fail("suite", err)
		}
	}
	if failed {
		return h.fail("suite", errors.New("correctness checks failed"))
	}
	return 0
}
