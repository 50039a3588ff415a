// Command benchcmp diffs two benchjson reports (see cmd/benchjson) and fails
// when a gated benchmark regresses beyond a threshold. CI runs it against the
// previous run's BENCH artifact so a PR cannot silently give back the round-loop,
// run-setup, or epoch-swap wins:
//
//	benchcmp -old BENCH_baseline.json -new BENCH_pr10.json
//	benchcmp -old a.json -new b.json -match 'BenchmarkSimRoundLoop' -threshold 0.05
//	benchcmp -old a.json -new b.json -match '^BenchmarkRunSetup$' -metric B/op
//
// Only benchmarks whose name matches -match and that appear in BOTH files are
// gated; benchmarks present on one side only are reported but never fail the
// run (new benchmarks have no baseline, retired ones no successor).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
}

// report mirrors benchjson's output shape.
type report struct {
	Benchmarks []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	var (
		oldPath   = fs.String("old", "", "baseline benchjson report (required)")
		newPath   = fs.String("new", "", "candidate benchjson report (required)")
		match     = fs.String("match", "^Benchmark(SimRoundLoop|RunSetup|EpochSwap|AdaptiveAdversaryRound)", "regexp selecting the gated benchmarks")
		metric    = fs.String("metric", "ns/op", "metric to compare")
		threshold = fs.Float64("threshold", 0.10, "maximum allowed fractional regression (0.10 = +10%)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *oldPath == "" || *newPath == "" {
		return fmt.Errorf("both -old and -new are required")
	}
	if *threshold < 0 {
		return fmt.Errorf("-threshold must be >= 0, got %g", *threshold)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		return fmt.Errorf("bad -match pattern: %w", err)
	}
	oldRep, err := load(*oldPath)
	if err != nil {
		return err
	}
	newRep, err := load(*newPath)
	if err != nil {
		return err
	}

	names := map[string]bool{}
	for name := range oldRep {
		if re.MatchString(name) {
			names[name] = true
		}
	}
	for name := range newRep {
		if re.MatchString(name) {
			names[name] = true
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("no benchmark in either report matches %q", *match)
	}
	ordered := make([]string, 0, len(names))
	for name := range names {
		ordered = append(ordered, name)
	}
	sort.Strings(ordered)

	var regressed []string
	for _, name := range ordered {
		oldV, inOld := oldRep[name][*metric]
		newV, inNew := newRep[name][*metric]
		switch {
		case !inOld:
			fmt.Fprintf(w, "%-56s new (no baseline, not gated)  %s = %.4g\n", name, *metric, newV)
		case !inNew:
			fmt.Fprintf(w, "%-56s (absent from candidate, not gated)\n", name)
		case oldV == 0:
			// A zero baseline admits no fractional comparison: 0 -> anything
			// would read as an infinite regression. Report, don't gate.
			fmt.Fprintf(w, "%-56s %s 0 -> %.4g  (zero baseline, not gated)\n", name, *metric, newV)
		default:
			delta := (newV - oldV) / oldV
			verdict := "ok"
			if delta > *threshold {
				verdict = "REGRESSION"
				regressed = append(regressed, name)
			}
			fmt.Fprintf(w, "%-56s %s %.4g -> %.4g  (%+.1f%%)  %s\n",
				name, *metric, oldV, newV, 100*delta, verdict)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.0f%% on %s: %v",
			len(regressed), 100**threshold, *metric, regressed)
	}
	return nil
}

// load reads a benchjson report into name -> metrics.
func load(path string) (map[string]map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[b.Name] = b.Metrics
	}
	return out, nil
}
