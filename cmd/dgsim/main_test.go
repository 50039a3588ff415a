package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dualgraph"
	"dualgraph/internal/engine"
	"dualgraph/internal/expt"
	"dualgraph/internal/service"
	"dualgraph/internal/spec"
)

// runLines invokes the command's run path and returns its output lines.
func runLines(t *testing.T, args ...string) []string {
	t.Helper()
	var sb strings.Builder
	if err := run(context.Background(), args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
}

func TestSingleTrialGolden(t *testing.T) {
	lines := runLines(t,
		"-topo", "line", "-n", "8", "-alg", "round-robin", "-adv", "benign",
		"-rule", "3", "-start", "sync", "-seed", "1")
	want := []string{
		"topology=line n=8 alg=round-robin adversary=benign rule=CR3 start=sync seed=1",
		"completed=true rounds=7 transmissions=7 eccentricity=7",
	}
	for i, w := range want {
		if i >= len(lines) || lines[i] != w {
			t.Fatalf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestMultiTrialGolden(t *testing.T) {
	// The aggregate line is identical at any -workers value.
	want := []string{
		"topology=clique-bridge n=9 alg=harmonic(T=74) adversary=greedy-collider rule=CR4 start=async seed=2 trials=8",
		"completed=8/8 rounds: min=144 mean=198.00 p50=209.00 p90=234.30 p95=245.15 p99=253.83 max=256 mean-transmissions=1022.3",
	}
	for _, workers := range []string{"1", "2", "8"} {
		lines := runLines(t,
			"-topo", "clique-bridge", "-n", "9", "-alg", "harmonic", "-adv", "greedy",
			"-trials", "8", "-seed", "2", "-workers", workers)
		for i, w := range want {
			if i >= len(lines) || lines[i] != w {
				t.Fatalf("workers=%s line %d = %q, want %q", workers, i, lines[i], w)
			}
		}
	}
}

func TestPreferentialAttachmentTopology(t *testing.T) {
	lines := runLines(t, "-topo", "pa", "-n", "16", "-alg", "harmonic", "-adv", "greedy", "-seed", "5")
	if want := "topology=pa n=16 alg=harmonic(T=81) adversary=greedy-collider rule=CR4 start=async seed=5"; lines[0] != want {
		t.Fatalf("line 0 = %q, want %q", lines[0], want)
	}
	if !strings.HasPrefix(lines[1], "completed=true ") {
		t.Fatalf("pa broadcast did not complete: %q", lines[1])
	}
}

func TestVerboseListsEveryNode(t *testing.T) {
	lines := runLines(t,
		"-topo", "line", "-n", "5", "-alg", "round-robin", "-adv", "benign",
		"-rule", "3", "-start", "sync", "-seed", "1", "-v")
	if got, want := len(lines), 2+5; got != want {
		t.Fatalf("verbose output has %d lines, want %d", got, want)
	}
	if want := "  node   0 (pid   1): first receive round 0"; lines[2] != want {
		t.Fatalf("first node line = %q, want %q", lines[2], want)
	}
}

// TestUnknownNamesListValidOnes is the name-drift regression test: every
// unknown name must fail with the registry's typed error, which lists the
// valid names and suggests near misses.
func TestUnknownNamesListValidOnes(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{[]string{"-topo", "nope"}, []string{"valid topology names", "clique-bridge"}},
		{[]string{"-topo", "geometirc"}, []string{`did you mean "geometric"?`}},
		{[]string{"-alg", "harmonix"}, []string{`did you mean "harmonic"?`, "valid algorithm names"}},
		{[]string{"-adv", "greddy"}, []string{`did you mean "greedy"?`, "valid adversary names"}},
	}
	for _, c := range cases {
		var sb strings.Builder
		err := run(context.Background(), c.args, &sb)
		if err == nil {
			t.Fatalf("run(%v): expected error", c.args)
		}
		for _, want := range c.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("run(%v) error %q missing %q", c.args, err, want)
			}
		}
	}
}

// TestListPrintsEveryRegisteredName golden-checks the -list surface: the
// three section headers, a known entry line, and a parameter doc line.
func TestListPrintsEveryRegisteredName(t *testing.T) {
	lines := runLines(t, "-list")
	out := strings.Join(lines, "\n")
	for _, want := range []string{
		"topologies:",
		"algorithms:",
		"adversaries:",
		"  geometric          unit-square placement: short links reliable, longer ones unreliable; scales to 100k+ nodes",
		"      r-reliable       float  links shorter than this are reliable (default 0.28)",
		"  strong-select      deterministic Strong Select, O(n^{3/2}√log n) (Section 5)",
		"  greedy             adaptive greedy collider: jams single deliveries into collisions",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestSpecGridGolden runs a two-axis sweep file at two worker counts and
// pins the output: the acceptance criterion that -spec executes a grid
// bit-identically at any -workers value.
func TestSpecGridGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	blob := `{
		"base": {"seed": 2},
		"algorithms": [{"name": "harmonic"}, {"name": "round-robin"}],
		"ns": [9, 17],
		"trials": 8
	}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"grid: cells=4 trials-per-cell=8",
		"alg=harmonic n=9: completed=8/8 rounds: min=144 mean=198.00 p50=209.00 p90=234.30 p95=245.15 p99=253.83 max=256 mean-transmissions=1022.3",
	}
	for _, workers := range []string{"1", "2", "8"} {
		lines := runLines(t, "-spec", path, "-workers", workers)
		if len(lines) != 5 {
			t.Fatalf("workers=%s: %d output lines, want 5:\n%s", workers, len(lines), strings.Join(lines, "\n"))
		}
		for i, w := range want {
			if lines[i] != w {
				t.Fatalf("workers=%s line %d = %q, want %q", workers, i, lines[i], w)
			}
		}
	}
}

// TestExperimentDocumentRunsUnderSpec: a paper experiment's sweep document
// is an ordinary -spec file. The quick-trimmed ext-dynamic document run
// through -spec prints, per cell, spec.FormatSummary of the summaries the
// experiment's own Sweep.Run produces.
func TestExperimentDocumentRunsUnderSpec(t *testing.T) {
	e, ok := expt.ByID("ext-dynamic")
	if !ok {
		t.Fatal("ext-dynamic must exist")
	}
	sw, err := e.Sweep(expt.Config{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ext-dynamic.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := sw.Run(context.Background(), engine.Config{Workers: 2}, engine.StreamConfig{}, spec.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{fmt.Sprintf("grid: cells=%d trials-per-cell=%d", len(g.Cells), g.Trials)}
	for _, c := range g.Cells {
		want = append(want, c.Cell.Label+": "+spec.FormatSummary(c.Summary))
	}
	if got := runLines(t, "-spec", path, "-workers", "2"); !slices.Equal(got, want) {
		t.Fatalf("-spec output:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSpecGridFirstCellMatchesStreamFlagPath: a cell run with -trials N is
// a one-cell sweep streamed through the same reduction -spec uses, so for
// every multi-trial flag set its aggregate line must be byte-equal to the
// line -spec prints for a file holding the same cell, at any -workers value.
func TestSpecGridFirstCellMatchesStreamFlagPath(t *testing.T) {
	cases := []struct {
		flags []string
		spec  string
	}{
		{
			[]string{"-topo", "clique-bridge", "-n", "9", "-alg", "harmonic", "-adv", "greedy", "-trials", "8", "-seed", "2"},
			`{"base": {"n": 9, "seed": 2}, "trials": 8}`,
		},
		{
			[]string{"-topo", "geometric", "-n", "40", "-alg", "harmonic", "-adv", "greedy", "-trials", "16", "-seed", "7"},
			`{"base": {"topology": {"name": "geometric"}, "n": 40, "seed": 7}, "trials": 16}`,
		},
		{
			[]string{"-topo", "clique-bridge", "-n", "17", "-alg", "harmonic", "-adv", "greedy", "-trials", "32", "-seed", "3"},
			`{"base": {"n": 17, "seed": 3}, "trials": 32}`,
		},
		{
			[]string{"-topo", "geometric", "-n", "40", "-alg", "harmonic", "-adv", "greedy", "-sched", "churn", "-trials", "8", "-seed", "7"},
			`{"base": {"topology": {"name": "geometric"}, "n": 40, "seed": 7, "schedule": {"name": "churn"}}, "trials": 8}`,
		},
		{
			[]string{"-topo", "line", "-n", "6", "-alg", "uniform", "-p", "0.5", "-adv", "benign",
				"-rule", "3", "-start", "sync", "-seed", "5", "-trials", "2000"},
			`{"base": {"topology": {"name": "line"}, "n": 6, "algorithm": {"name": "uniform", "params": {"p": 0.5}},
				"adversary": {"name": "benign"}, "rule": "CR3", "start": "sync", "seed": 5}, "trials": 2000}`,
		},
	}
	dir := t.TempDir()
	for ci, c := range cases {
		path := filepath.Join(dir, fmt.Sprintf("cell%d.json", ci))
		if err := os.WriteFile(path, []byte(c.spec), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "2", "8"} {
			cell := runLines(t, append(c.flags, "-workers", workers)...)
			grid := runLines(t, "-spec", path, "-workers", workers)
			if len(cell) != 2 || len(grid) != 2 {
				t.Fatalf("case %d workers=%s: %d cell lines and %d spec lines, want 2 each", ci, workers, len(cell), len(grid))
			}
			if want := "base: " + cell[1]; grid[1] != want {
				t.Fatalf("case %d workers=%s:\n  -spec:   %q\n  -trials: %q", ci, workers, grid[1], want)
			}
		}
	}
}

// TestStreamGolden pins the streamed aggregate line of a cell with more
// trials than the sketch's exact regime (stats.DefaultExactK), so its
// quantiles come from the merged P² estimators: the line must not depend on
// the worker count.
func TestStreamGolden(t *testing.T) {
	want := []string{
		"topology=line n=6 alg=uniform(p=0.500) adversary=benign rule=CR3 start=sync seed=5 trials=5000",
		"completed=5000/5000 rounds: min=5 mean=9.96 p50=9.86 p90=14.01 p95=15.92 p99=19.86 max=25 mean-transmissions=15.0",
	}
	for _, workers := range []string{"1", "2", "8"} {
		lines := runLines(t,
			"-topo", "line", "-n", "6", "-alg", "uniform", "-p", "0.5", "-adv", "benign",
			"-rule", "3", "-start", "sync", "-seed", "5", "-trials", "5000", "-workers", workers)
		for i, w := range want {
			if i >= len(lines) || lines[i] != w {
				t.Fatalf("workers=%s line %d = %q, want %q", workers, i, lines[i], w)
			}
		}
	}
}

// TestPRejectedWhenNothingTakesIt: -p must fail loudly when neither the
// algorithm nor the adversary documents a "p" parameter, instead of being
// silently dropped (and it must keep flowing to entries that do take it,
// per the registry schema rather than a hardcoded name list).
func TestPRejectedWhenNothingTakesIt(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-alg", "harmonic", "-adv", "greedy", "-p", "0.5"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-p applies") {
		t.Fatalf("err = %v, want a -p rejection", err)
	}
	lines := runLines(t, "-topo", "line", "-n", "5", "-alg", "uniform", "-p", "0.5",
		"-adv", "benign", "-rule", "3", "-start", "sync", "-seed", "1")
	if want := "alg=uniform(p=0.500)"; !strings.Contains(lines[0], want) {
		t.Fatalf("line 0 = %q, want it to carry %q", lines[0], want)
	}
}

// TestTypoWithPStillSuggests: a typoed name must surface the registry's
// did-you-mean error even when -p is set (name validation runs first).
func TestTypoWithPStillSuggests(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-alg", "harmonix", "-p", "0.5"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `did you mean "harmonic"?`) {
		t.Fatalf("err = %v, want the suggestion error, not a -p complaint", err)
	}
}

func TestListRejectsOtherFlags(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-list", "-topo", "line"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-topo") {
		t.Fatalf("err = %v, want a -topo conflict error", err)
	}
}

func TestSpecRejectsCellFlags(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-spec", "whatever.json", "-topo", "line"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-topo") {
		t.Fatalf("err = %v, want a -topo conflict error", err)
	}
}

// TestSpecRejectsMisspelledKeys: a spec file with a misspelled key fails
// with the key named, instead of running with the default in its place.
func TestSpecRejectsMisspelledKeys(t *testing.T) {
	for field, doc := range map[string]string{
		"max-rounds": `{"base":{"n":9,"max-rounds":1},"trials":1}`,
		"trial":      `{"base":{"n":9},"trial":5}`,
		"nmae":       `{"base":{"n":9,"topology":{"nmae":"line"}}}`,
	} {
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		err := run(context.Background(), []string{"-spec", path}, &sb)
		if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Fatalf("%s: err = %v, want one naming %q", doc, err, field)
		}
		if sb.Len() != 0 {
			t.Fatalf("%s: printed %q before failing", doc, sb.String())
		}
	}
}

// TestVerboseRejectedForSweeps is the regression test for the silently
// dropped flag: -v only makes sense for a single retained run, so pairing
// it with a sweep must fail loudly instead of being ignored.
func TestVerboseRejectedForSweeps(t *testing.T) {
	for _, args := range [][]string{
		{"-trials", "8", "-v"},
	} {
		var sb strings.Builder
		err := run(context.Background(), args, &sb)
		if err == nil || !strings.Contains(err.Error(), "-v") {
			t.Errorf("run(%v) error = %v, want a -v incompatibility error", args, err)
		}
		if sb.Len() != 0 {
			t.Errorf("run(%v) produced output despite the flag error", args)
		}
	}
}

// TestStaticScheduleByteIdentical is the dynamics-tentpole regression
// property: with the default (or explicit) "static" schedule, dgsim output
// must be byte-identical at fixed seeds, across worker counts.
func TestStaticScheduleByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "many",
			args: []string{"-topo", "geometric", "-n", "40", "-alg", "harmonic",
				"-adv", "greedy", "-trials", "16", "-seed", "7"},
			want: []string{
				"topology=geometric n=40 alg=harmonic(T=92) adversary=greedy-collider rule=CR4 start=async seed=7 trials=16",
				"completed=16/16 rounds: min=1094 mean=1314.38 p50=1332.00 p90=1457.00 p95=1474.25 p99=1513.25 max=1523 mean-transmissions=10102.5",
			},
		},
		{
			name: "clique-bridge",
			args: []string{"-topo", "clique-bridge", "-n", "17", "-alg", "harmonic",
				"-adv", "greedy", "-trials", "32", "-seed", "3"},
			want: []string{
				"topology=clique-bridge n=17 alg=harmonic(T=81) adversary=greedy-collider rule=CR4 start=async seed=3 trials=32",
				"completed=32/32 rounds: min=246 mean=399.44 p50=386.00 p90=562.40 p95=582.00 p99=628.88 max=645 mean-transmissions=2906.3",
			},
		},
	}
	for _, c := range cases {
		for _, workers := range []string{"1", "2", "8"} {
			for _, explicit := range []bool{false, true} {
				args := append([]string{}, c.args...)
				args = append(args, "-workers", workers)
				if explicit {
					args = append(args, "-sched", "static")
				}
				lines := runLines(t, args...)
				for i, w := range c.want {
					if i >= len(lines) || lines[i] != w {
						t.Fatalf("%s workers=%s explicit=%v line %d = %q, want %q",
							c.name, workers, explicit, i, lines[i], w)
					}
				}
			}
		}
	}
}

// TestSchedFlagDynamicGolden pins a dynamic run end to end: the churn
// schedule header carries the sched fragment and the aggregate is
// bit-identical at any worker count (per-epoch randomness is a pure
// function of each trial's seed).
func TestSchedFlagDynamicGolden(t *testing.T) {
	var want []string
	for _, workers := range []string{"1", "2", "8"} {
		lines := runLines(t,
			"-topo", "geometric", "-n", "40", "-alg", "harmonic", "-adv", "greedy",
			"-sched", "churn", "-trials", "8", "-seed", "7", "-workers", workers)
		if got := "topology=geometric n=40 alg=harmonic(T=92) adversary=greedy-collider rule=CR4 start=async seed=7 trials=8 sched=churn"; lines[0] != got {
			t.Fatalf("workers=%s header = %q", workers, lines[0])
		}
		if want == nil {
			want = lines
			continue
		}
		for i := range want {
			if lines[i] != want[i] {
				t.Fatalf("workers=%s line %d = %q, want %q (worker-count dependence)", workers, i, lines[i], want[i])
			}
		}
	}
}

// TestSchedUnknownSuggests: the schedule registry plugs into the same typed
// suggestion error as the other three registries.
func TestSchedUnknownSuggests(t *testing.T) {
	var sb strings.Builder
	err := run(context.Background(), []string{"-sched", "statc"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `did you mean "static"?`) {
		t.Fatalf("err = %v, want the static suggestion", err)
	}
	if !strings.Contains(err.Error(), "valid schedule names") {
		t.Fatalf("err = %v, want the schedule name list", err)
	}
}

// TestErrorPrintsSuggestionsToStderr is the CLI golden test for the
// suggestion bugfix: when a run fails on an unknown registry name, the
// stderr report must carry a dedicated did-you-mean line with every
// suggestion — including on the -spec path, where the error text used to
// bury the hint behind the full valid-name list.
func TestErrorPrintsSuggestionsToStderr(t *testing.T) {
	specPath := filepath.Join(t.TempDir(), "sweep.json")
	blob := `{"base": {"topology": {"name": "geometirc"}}}`
	if err := os.WriteFile(specPath, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-topo", "geometirc"}, "dgsim: did you mean: geometric?\n"},
		{[]string{"-spec", specPath}, "dgsim: did you mean: geometric?\n"},
		{[]string{"-sched", "fode"}, "dgsim: did you mean: fade?\n"},
	}
	for _, c := range cases {
		var out, stderr strings.Builder
		err := run(context.Background(), c.args, &out)
		if err == nil {
			t.Fatalf("run(%v): expected error", c.args)
		}
		printError(&stderr, err)
		lines := strings.SplitAfter(stderr.String(), "\n")
		if len(lines) < 2 || lines[1] != c.want {
			t.Errorf("run(%v) stderr suggestion line = %q, want %q", c.args, stderr.String(), c.want)
		}
	}
	// Errors without a registry lookup keep the single-line report.
	var stderr strings.Builder
	printError(&stderr, fmt.Errorf("trials must be >= 1"))
	if got := stderr.String(); got != "dgsim: trials must be >= 1\n" {
		t.Errorf("plain error stderr = %q", got)
	}
}

// TestStreamSweepBoundedMemory: a 100k-trial dgsim cell sweep must retain
// O(shards) accumulator state — not O(trials) results — so live heap stays
// flat. (Materializing the Results would retain ~30MB at this trial count.)
func TestStreamSweepBoundedMemory(t *testing.T) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	lines := runLines(t,
		"-topo", "line", "-n", "6", "-alg", "uniform", "-p", "0.5", "-adv", "benign",
		"-rule", "3", "-start", "sync", "-seed", "5", "-trials", "100000")

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if !strings.HasPrefix(lines[1], "completed=100000/100000 ") {
		t.Fatalf("sweep incomplete: %q", lines[1])
	}
	const limit = 8 << 20
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > limit {
		t.Fatalf("live heap grew %d bytes across a 100k-trial streamed sweep (limit %d): O(trials) retention", grew, limit)
	}
}

// TestSpecOutputMatchesServiceHTTP is the cross-surface determinism gate:
// the per-cell lines `dgsim -spec` prints and the per-cell results the
// dgsimd HTTP API streams for the same sweep document must be byte-identical
// at every worker count — one shared renderer, one shared engine, one
// answer.
func TestSpecOutputMatchesServiceHTTP(t *testing.T) {
	const blob = `{
		"base": {"seed": 3},
		"algorithms": [{"name": "harmonic"}, {"name": "round-robin"}],
		"ns": [9, 13],
		"trials": 6
	}`
	path := filepath.Join(t.TempDir(), "sweep.json")
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 8} {
		cliLines := runLines(t, "-spec", path, "-workers", fmt.Sprint(workers))[1:] // drop the grid header

		svc := service.New(service.Config{Engine: dualgraph.EngineConfig{Workers: workers}})
		ts := httptest.NewServer(svc.Handler())

		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"sweep":`+blob+`}`))
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		stream, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results")
		if err != nil {
			t.Fatal(err)
		}
		var httpLines []string
		sc := bufio.NewScanner(stream.Body)
		for sc.Scan() {
			var line struct {
				Done    bool   `json:"done"`
				Label   string `json:"label"`
				Summary string `json:"summary"`
			}
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("bad stream line %q: %v", sc.Text(), err)
			}
			if line.Done {
				break
			}
			httpLines = append(httpLines, line.Label+": "+line.Summary)
		}
		stream.Body.Close()
		ts.Close()
		svc.Close()

		if len(httpLines) != len(cliLines) {
			t.Fatalf("workers=%d: HTTP streamed %d cells, CLI printed %d", workers, len(httpLines), len(cliLines))
		}
		for i := range cliLines {
			if httpLines[i] != cliLines[i] {
				t.Fatalf("workers=%d cell %d:\n  http: %q\n  cli:  %q", workers, i, httpLines[i], cliLines[i])
			}
		}
	}
}

// TestSpecInterruptedPrintsPartialNotice: a cancelled -spec run must fail
// with a notice saying how much of the grid the partial output covers, and
// every line it did print must be a valid prefix of the full run's output.
func TestSpecInterruptedPrintsPartialNotice(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.json")
	blob := `{"base": {"n": 9}, "seeds": [1, 2, 3], "trials": 4}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // interrupt before any cell completes
	var sb strings.Builder
	err := run(ctx, []string{"-spec", path}, &sb)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
	if !strings.Contains(err.Error(), "interrupted after 0/3 cells") {
		t.Fatalf("err = %q, want the partial-results notice", err)
	}
}
