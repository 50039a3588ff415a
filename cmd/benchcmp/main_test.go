package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport writes a benchjson-shaped report with the given name -> ns/op
// values and returns its path.
func writeReport(t *testing.T, name string, nsop map[string]float64) string {
	t.Helper()
	var entries []string
	for bench, v := range nsop {
		entries = append(entries,
			fmt.Sprintf(`{"name":%q,"metrics":{"ns/op":%g,"allocs/op":5}}`, bench, v))
	}
	path := filepath.Join(t.TempDir(), name)
	body := `{"benchmarks":[` + strings.Join(entries, ",") + `]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestWithinThresholdPasses(t *testing.T) {
	oldPath := writeReport(t, "old.json", map[string]float64{
		"BenchmarkSimRoundLoop": 1000,
		"BenchmarkEpochSwap":    500,
	})
	newPath := writeReport(t, "new.json", map[string]float64{
		"BenchmarkSimRoundLoop": 1080, // +8%: inside the 10% gate
		"BenchmarkEpochSwap":    300,  // improvement
	})
	var out strings.Builder
	if err := run([]string{"-old", oldPath, "-new", newPath}, &out); err != nil {
		t.Fatalf("within-threshold comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("expected ok verdicts in output:\n%s", out.String())
	}
}

func TestRegressionFails(t *testing.T) {
	oldPath := writeReport(t, "old.json", map[string]float64{
		"BenchmarkSimRoundLoop":                 1000,
		"BenchmarkEpochSwapIncremental/pDown=1": 200,
	})
	newPath := writeReport(t, "new.json", map[string]float64{
		"BenchmarkSimRoundLoop":                 1200, // +20%: beyond the gate
		"BenchmarkEpochSwapIncremental/pDown=1": 205,
	})
	var out strings.Builder
	err := run([]string{"-old", oldPath, "-new", newPath}, &out)
	if err == nil {
		t.Fatalf("20%% regression must fail the gate; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkSimRoundLoop") {
		t.Fatalf("error should name the regressed benchmark, got: %v", err)
	}
	if strings.Contains(err.Error(), "EpochSwapIncremental") {
		t.Fatalf("+2.5%% is within threshold and must not be reported: %v", err)
	}
}

func TestUnmatchedBenchmarksNotGated(t *testing.T) {
	// A benchmark outside the -match set may regress arbitrarily.
	oldPath := writeReport(t, "old.json", map[string]float64{
		"BenchmarkSimRoundLoop": 1000,
		"BenchmarkGridSweep":    100,
	})
	newPath := writeReport(t, "new.json", map[string]float64{
		"BenchmarkSimRoundLoop": 900,
		"BenchmarkGridSweep":    900, // 9x slower but not gated
	})
	var out strings.Builder
	if err := run([]string{"-old", oldPath, "-new", newPath}, &out); err != nil {
		t.Fatalf("unmatched benchmark must not be gated: %v", err)
	}
	if strings.Contains(out.String(), "BenchmarkGridSweep") {
		t.Fatalf("unmatched benchmark should not appear in the report:\n%s", out.String())
	}
}

func TestNewBenchmarkWithoutBaselinePasses(t *testing.T) {
	oldPath := writeReport(t, "old.json", map[string]float64{
		"BenchmarkSimRoundLoop": 1000,
	})
	newPath := writeReport(t, "new.json", map[string]float64{
		"BenchmarkSimRoundLoop":        1000,
		"BenchmarkSimRoundLoopDynamic": 5000, // new in this PR: no baseline
	})
	var out strings.Builder
	if err := run([]string{"-old", oldPath, "-new", newPath}, &out); err != nil {
		t.Fatalf("baseline-less benchmark must not fail the gate: %v", err)
	}
	if !strings.Contains(out.String(), "no baseline") {
		t.Fatalf("baseline-less benchmark should be reported as ungated:\n%s", out.String())
	}
}

func TestZeroBaselineMetricNotGated(t *testing.T) {
	// A metric that was 0 in the baseline (e.g. allocs/op of an
	// allocation-free loop) admits no fractional comparison; it must be
	// reported informationally, never as an infinite regression.
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	if err := os.WriteFile(oldPath, []byte(
		`{"benchmarks":[{"name":"BenchmarkSimRoundLoop","metrics":{"allocs/op":0}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(
		`{"benchmarks":[{"name":"BenchmarkSimRoundLoop","metrics":{"allocs/op":2}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-old", oldPath, "-new", newPath, "-metric", "allocs/op"}, &out); err != nil {
		t.Fatalf("zero baseline must not gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "zero baseline") {
		t.Fatalf("zero-baseline metric should be labelled:\n%s", out.String())
	}
}

func TestNoMatchesIsAnError(t *testing.T) {
	oldPath := writeReport(t, "old.json", map[string]float64{"BenchmarkGridSweep": 100})
	newPath := writeReport(t, "new.json", map[string]float64{"BenchmarkGridSweep": 100})
	var out strings.Builder
	if err := run([]string{"-old", oldPath, "-new", newPath}, &out); err == nil {
		t.Fatal("an empty gate set should be an error, not a silent pass")
	}
}

func TestMissingFlagsAndFiles(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-old", "x.json"}, &out); err == nil {
		t.Fatal("missing -new must error")
	}
	if err := run([]string{"-old", "nope.json", "-new", "nope.json"}, &out); err == nil {
		t.Fatal("unreadable report must error")
	}
}

// TestRunSetupGatedByDefault: per-run setup is part of the default gate, so
// a regression there fails without a custom -match.
func TestRunSetupGatedByDefault(t *testing.T) {
	oldPath := writeReport(t, "old.json", map[string]float64{"BenchmarkRunSetup": 1000})
	newPath := writeReport(t, "new.json", map[string]float64{"BenchmarkRunSetup": 1500})
	var out strings.Builder
	err := run([]string{"-old", oldPath, "-new", newPath}, &out)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkRunSetup") {
		t.Fatalf("50%% run-setup regression must fail the default gate, got %v\n%s", err, out.String())
	}
}
