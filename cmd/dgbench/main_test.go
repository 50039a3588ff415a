package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runOutput(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestListIncludesEveryExperiment(t *testing.T) {
	out := runOutput(t, "-experiment", "list")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 15 {
		t.Fatalf("experiment list suspiciously short: %d lines", len(lines))
	}
	for _, id := range []string{"table1-classical-rr", "table2-dual-harmonic", "fig-ssf-size", "ext-pref-attach"} {
		if !strings.Contains(out, id) {
			t.Fatalf("experiment %q missing from list:\n%s", id, out)
		}
	}
}

// TestRegistryList golden-checks -list: the shared registry rendering with
// entry and parameter doc lines (the full format is pinned in
// internal/registry's tests; here we pin the CLI wiring and one line of
// each kind).
func TestRegistryList(t *testing.T) {
	out := runOutput(t, "-list")
	for _, want := range []string{
		"topologies:",
		"algorithms:",
		"adversaries:",
		"  clique-bridge      Theorem 2 network: (n-1)-clique with a receiver behind a bridge; G' complete",
		"      epsilon          float  failure probability in the paper's T = ceil(12 ln(n/ε)) (default 0.02)",
		"  benign             never uses unreliable edges (the classical static model)",
		"schedules:",
		"  static             fixed topology for the whole run (the historical behaviour; the default)",
		"      p-down           float  per-epoch per-node crash probability (default 0.2)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q\n---\n%s", want, out)
		}
	}
}

func TestRegistryListRejectsOtherFlags(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-list", "-experiment", "all"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-experiment") {
		t.Fatalf("err = %v, want an -experiment conflict error", err)
	}
}

func TestSSFExperimentGolden(t *testing.T) {
	out := runOutput(t, "-experiment", "fig-ssf-size", "-quick", "-seed", "1")
	lines := strings.Split(out, "\n")
	want := []string{
		"== fig-ssf-size — strongly selective family sizes: Kautz-Singleton vs round robin",
		"   paper: Section 5, Definition 6, Theorem 7, constructive note [19]",
	}
	for i, w := range want {
		if i >= len(lines) || lines[i] != w {
			t.Fatalf("line %d = %q, want %q", i, lines[i], w)
		}
	}
	if !strings.Contains(out, "kautz-singleton") {
		t.Fatalf("table body missing:\n%s", out)
	}
}

// TestExperimentsByteIdenticalAcrossWorkers is the dgbench half of the
// static-schedule byte-identity property: the Table 2 dual-harmonic
// experiment (whose cells run through the schedule-aware engine) must print
// the pinned -quick -seed 1 lines at every worker count.
func TestExperimentsByteIdenticalAcrossWorkers(t *testing.T) {
	var first string
	for _, workers := range []string{"1", "2", "8"} {
		out := runOutput(t, "-experiment", "table2-dual-harmonic", "-quick", "-seed", "1", "-workers", workers)
		if first == "" {
			first = out
		} else if out != first {
			t.Fatalf("workers=%s output differs from workers=1", workers)
		}
		for _, want := range []string{
			"clique-bridge     17  81  309            9472         0.033         5/5\n",
			"complete-layered  65  98  4620           60633  0.076  5/5\n",
			"random                                   fit: rounds ≈ 30.08·n^0.93\n",
		} {
			if !strings.Contains(out, want) {
				t.Fatalf("workers=%s output missing golden line %q:\n%s", workers, want, out)
			}
		}
	}
}

// goldenIDs lists every registered experiment. Each has a -quick -seed 1
// golden and a full-size -seed 1 golden in testdata.
var goldenIDs = []string{
	"abl-adversary",
	"abl-collision-rules",
	"abl-harmonic-T",
	"ext-adaptive",
	"ext-broadcastability",
	"ext-delta-select",
	"ext-dynamic",
	"ext-exhaustive",
	"ext-link-culling",
	"ext-pref-attach",
	"ext-repeated-broadcast",
	"fig-busy-rounds",
	"fig-lemma1",
	"fig-separation",
	"fig-ssf-size",
	"table1-classical-rr",
	"table1-dual-strongselect",
	"table1-thm12",
	"table1-thm2",
	"table2-classical-decay",
	"table2-dual-harmonic",
	"table2-thm4",
}

// checkGolden runs dgbench with args plus each -workers value and fails
// unless every output equals testdata/file byte for byte.
func checkGolden(t *testing.T, file string, args []string, workers ...string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		got := runOutput(t, append(args, "-workers", w)...)
		if got != string(want) {
			t.Fatalf("workers=%s output differs from the golden\n--- got\n%s--- want\n%s", w, got, want)
		}
	}
}

// TestMedianRoundsExperimentsGolden pins the full -quick -seed 1 output of
// every registered experiment, byte for byte, at worker counts 1, 2 and 8:
// the sweep-document experiments and those whose rows come from their own
// jobs (games, schedules, exhaustive searches, repeated broadcast). The
// Harmonic rows of repeated broadcast are randomized: its processes draw
// from the same per-pid SplitMix64 streams as the simulator's.
func TestMedianRoundsExperimentsGolden(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			checkGolden(t, id+".quick-seed1.golden", []string{"-experiment", id, "-quick", "-seed", "1"}, "1", "2", "8")
		})
	}
}

// TestFullSizeExperimentsGolden pins the full-size -seed 1 output of every
// registered experiment, byte for byte, at worker counts 1 and 8. The whole
// registry takes a few seconds per worker count, so -short skips it.
func TestFullSizeExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size experiments; run without -short")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			checkGolden(t, id+".seed1.golden", []string{"-experiment", id, "-seed", "1"}, "1", "8")
		})
	}
}

// TestDynamicExperimentRuns smoke-tests the dynamics extension experiment:
// every schedule cell completes and the schedule axis labels surface.
func TestDynamicExperimentRuns(t *testing.T) {
	out := runOutput(t, "-experiment", "ext-dynamic", "-quick", "-seed", "1", "-workers", "2")
	for _, want := range []string{
		"== ext-dynamic",
		"sched=static",
		`sched=churn{"p-down":0.3}`,
		"sched=waypoint",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ext-dynamic output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-experiment", "nope"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("want unknown-experiment error, got %v", err)
	}
}
