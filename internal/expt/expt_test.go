package expt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualgraph/internal/core"
	"dualgraph/internal/engine"
	"dualgraph/internal/registry"
	"dualgraph/internal/sim"
	"dualgraph/internal/spec"
	"dualgraph/internal/stats"
)

func TestRegistryIDsUniqueAndSorted(t *testing.T) {
	exps := All()
	if len(exps) < 10 {
		t.Fatalf("expected at least 10 experiments, got %d", len(exps))
	}
	seen := map[string]bool{}
	prev := ""
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.ID < prev {
			t.Errorf("experiments not sorted: %q after %q", e.ID, prev)
		}
		prev = e.ID
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("table1-thm2"); !ok {
		t.Fatal("table1-thm2 must exist")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

// TestAllExperimentsRunQuick executes every experiment in quick mode; this
// doubles as the integration test of the whole stack (the experiments return
// errors when a paper bound is violated).
func TestAllExperimentsRunQuick(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Config{Out: &buf, Quick: true, Seed: 11}); err != nil {
				t.Fatalf("experiment failed: %v\noutput so far:\n%s", err, buf.String())
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("output missing banner: %q", out[:minInt(len(out), 80)])
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Errorf("suspiciously short output:\n%s", out)
			}
		})
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestExperimentOutputWorkerCountInvariant is the engine port's golden
// guarantee: every experiment's rendered table must be byte-identical
// whether its trials or jobs run on 1, 2 or 8 workers.
func TestExperimentOutputWorkerCountInvariant(t *testing.T) {
	for _, e := range All() {
		render := func(workers int) string {
			var buf bytes.Buffer
			err := e.Run(Config{
				Out: &buf, Quick: true, Seed: 11,
				Engine: engine.Config{Workers: workers},
			})
			if err != nil {
				t.Fatalf("%s with %d workers: %v", e.ID, workers, err)
			}
			return buf.String()
		}
		seq := render(1)
		for _, workers := range []int{2, 8} {
			if par := render(workers); seq != par {
				t.Fatalf("%s output differs between 1 and %d workers:\n--- workers=1\n%s\n--- workers=%d\n%s", e.ID, workers, seq, workers, par)
			}
		}
	}
}

// TestJobExperiment pins the job-table runner: rows in job order under the
// header, then the footnote lines; and on a failing job, the lowest-index
// error (a panic included) with nothing of the table printed, at any worker
// count.
func TestJobExperiment(t *testing.T) {
	e := Experiment{ID: "job-table", Title: "runner", PaperRef: "none"}
	banner := "== job-table — runner\n   paper: none\n"
	jobs := func(Config) ([]int, error) { return []int{0, 1, 2, 3, 4, 5}, nil }
	ok := jobExperiment(e, "job\tsquare", jobs, func(_ Config, j int) (string, error) {
		return fmt.Sprintf("%d\t%d", j, j*j), nil
	}, "   (foot)")
	failing := jobExperiment(e, "job", jobs, func(_ Config, j int) (string, error) {
		switch j {
		case 2, 4:
			return "", fmt.Errorf("job %d broke its bound", j)
		case 1:
			time.Sleep(10 * time.Millisecond)
		case 5:
			panic("boom")
		}
		return "row", nil
	})
	broken := jobExperiment(e, "job", func(Config) ([]int, error) { return nil, errors.New("no jobs") },
		func(Config, int) (string, error) { return "row", nil })
	for _, workers := range []int{1, 4} {
		run := func(e Experiment) (string, error) {
			var buf bytes.Buffer
			err := e.Run(Config{Out: &buf, Engine: engine.Config{Workers: workers}})
			return buf.String(), err
		}
		out, err := run(ok)
		want := banner + "job  square\n0    0\n1    1\n2    4\n3    9\n4    16\n5    25\n   (foot)\n"
		if err != nil || out != want {
			t.Fatalf("workers=%d: got %q, %v; want %q", workers, out, err, want)
		}
		out, err = run(failing)
		if err == nil || err.Error() != "engine: trial 2: job 2 broke its bound" || out != banner {
			t.Fatalf("workers=%d: got %q, %v; want the banner and job 2's error", workers, out, err)
		}
		if out, err = run(broken); err == nil || out != banner {
			t.Fatalf("workers=%d: got %q, %v; want the banner and the job-list error", workers, out, err)
		}
	}
}

// TestSweepDocuments checks every file under sweeps/ the way `dgsim -spec`
// reads it (json.Unmarshal into a Sweep, then Cells), and that the files
// are exactly the documents of the registered sweep experiments.
func TestSweepDocuments(t *testing.T) {
	entries, err := sweepDocs.ReadDir("sweeps")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]bool{}
	for _, ent := range entries {
		id, ok := strings.CutSuffix(ent.Name(), ".json")
		if e, found := ByID(id); !ok || !found || e.quick == nil {
			t.Errorf("sweeps/%s names no sweep experiment", ent.Name())
			continue
		}
		files[id] = true
		blob, err := sweepDocs.ReadFile("sweeps/" + ent.Name())
		if err != nil {
			t.Fatal(err)
		}
		var sw spec.Sweep
		if err := json.Unmarshal(blob, &sw); err != nil {
			t.Errorf("%s: %v", ent.Name(), err)
			continue
		}
		if _, err := sw.Cells(); err != nil {
			t.Errorf("%s: %v", ent.Name(), err)
		}
	}
	for _, e := range All() {
		if e.quick != nil && !files[e.ID] {
			t.Errorf("experiment %s has no document sweeps/%s.json", e.ID, e.ID)
		}
	}
}

// TestAblationDocumentsMatchTheirDerivation pins the constants the
// ablation documents spell out to the formulas they come from: the round
// caps are twice strongSelectBudget(33) and the Theorem 18 bound at the
// paper's T, and the harmonic T axis is that T scaled by 1/4, 1/2, 1 and 2.
func TestAblationDocumentsMatchTheirDerivation(t *testing.T) {
	sweep := func(id string) spec.Sweep {
		e, _ := ByID(id)
		sw, err := e.Sweep(Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if sw.Base.N != 33 {
			t.Fatalf("%s: base n = %d, want 33", id, sw.Base.N)
		}
		return sw
	}
	for _, id := range []string{"abl-collision-rules", "abl-adversary"} {
		if got, want := sweep(id).Base.MaxRounds, 2*strongSelectBudget(33); got != want {
			t.Errorf("%s: max_rounds = %d, want 2·strongSelectBudget(33) = %d", id, got, want)
		}
	}
	sw := sweep("abl-harmonic-T")
	paperT := core.HarmonicT(33, 0.02)
	if want := int(2 * float64(33*paperT) * stats.HarmonicNumber(33)); sw.Base.MaxRounds != want {
		t.Errorf("abl-harmonic-T: max_rounds = %d, want the Theorem 18 bound %d", sw.Base.MaxRounds, want)
	}
	for i, mult := range []float64{0.25, 0.5, 1, 2} {
		if got, want := sw.Algorithms[i].Params["t"], float64(int(float64(paperT)*mult)); got != want {
			t.Errorf("abl-harmonic-T: algorithm %d has t = %v, want %v", i, got, want)
		}
	}
}

// TestTable1RowMatchesSequentialReference recomputes the Table 1 classical
// round-robin "line" rows with a plain sequential sim.Run loop and checks
// the engine-rendered experiment reports exactly those numbers.
func TestTable1RowMatchesSequentialReference(t *testing.T) {
	seed := int64(11)
	want := map[int]int{} // n -> rounds
	for _, n := range sweepSizes(true) {
		d, err := registry.Topology("line", n, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(d, core.NewRoundRobin(), benign(), sim.Config{
			Rule:  sim.CR3,
			Start: sim.SyncStart,
			Seed:  seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[n] = res.Rounds
	}

	e, ok := ByID("table1-classical-rr")
	if !ok {
		t.Fatal("table1-classical-rr must exist")
	}
	var buf bytes.Buffer
	if err := e.Run(Config{Out: &buf, Quick: true, Seed: seed, Engine: engine.Config{Workers: 8}}); err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || fields[0] != "line" {
			continue
		}
		n, err1 := strconv.Atoi(fields[1])
		rounds, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			continue
		}
		got[n] = rounds
	}
	for n, rounds := range want {
		if got[n] != rounds {
			t.Errorf("line n=%d: experiment reports %d rounds, sequential reference says %d", n, got[n], rounds)
		}
	}
}

// TestQuickEnginePathInShortMode keeps one cheap engine-backed experiment in
// the -short test path, so even the fast CI lane exercises the fan-out.
func TestQuickEnginePathInShortMode(t *testing.T) {
	e, ok := ByID("fig-busy-rounds")
	if !ok {
		t.Fatal("fig-busy-rounds must exist")
	}
	var buf bytes.Buffer
	if err := e.Run(Config{Out: &buf, Quick: true, Seed: 3, Engine: engine.Config{Workers: 4}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "front-loaded") {
		t.Fatalf("unexpected output:\n%s", buf.String())
	}
}

// TestScenarioUnknownNamesFail pins the registry routing: an experiment
// cell with an unknown name fails with the registry's typed error instead
// of a bare message.
func TestScenarioUnknownNamesFail(t *testing.T) {
	e, _ := ByID("table1-classical-rr")
	sw, err := e.Sweep(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw.Topologies[0].Name = "bogus"
	_, err = sw.Cells()
	var unk *registry.ErrUnknownName
	if !errors.As(err, &unk) {
		t.Fatalf("want *registry.ErrUnknownName, got %v", err)
	}
}

func TestFitLine(t *testing.T) {
	got := fitLine([]int{2, 4, 8}, []float64{4, 16, 64})
	if !strings.Contains(got, "n^2.00") {
		t.Errorf("fitLine = %q, want quadratic fit", got)
	}
	if fitLine([]int{1}, []float64{1}) != "fit: n/a" {
		t.Error("single-point fit must degrade to n/a")
	}
}
