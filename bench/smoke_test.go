package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of BENCHMARK.json the harness must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

func asBenchmarkMetrics(defs []metricDef) []benchmarkMetric {
	out := make([]benchmarkMetric, len(defs))
	for i, d := range defs {
		out[i] = benchmarkMetric{d.name, d.unit, d.better, d.bound}
	}
	return out
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// workload and metric tables in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		wl, err := newWorkload(w.Name, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		if wl.why != w.Why {
			t.Errorf("%s: why %q in BENCHMARK.json, %q in the harness", w.Name, w.Why, wl.why)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v in BENCHMARK.json, %v in the harness", names, workloadNames)
	}
	if got := asBenchmarkMetrics(e2eDefs); !reflect.DeepEqual(b.EndToEnd, got) {
		t.Errorf("end_to_end %+v in BENCHMARK.json, %+v in the harness", b.EndToEnd, got)
	}
	if got := asBenchmarkMetrics(layerDefs); !reflect.DeepEqual(b.PerLayer, got) {
		t.Errorf("per_layer %+v in BENCHMARK.json, %+v in the harness", b.PerLayer, got)
	}
}

// TestQuickRunsEmitEveryMetric runs every workload, shrunk about 64x, both
// untraced and traced against freshly built binaries, and checks that each
// run passes its correctness gates and emits exactly the metrics
// BENCHMARK.json names. The quick numbers themselves mean nothing.
func TestQuickRunsEmitEveryMetric(t *testing.T) {
	b := readBenchmarkJSON(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	h := &harness{
		env:   env{root: root, build: t.TempDir(), out: t.TempDir(), workers: 2},
		seed:  1,
		quick: true, stdout: &stdout, stderr: &stderr,
	}
	ctx := context.Background()
	if err := h.buildPrograms(ctx); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for trace, want := range [][]benchmarkMetric{b.EndToEnd, b.PerLayer} {
			stdout.Reset()
			stderr.Reset()
			if code := h.one(ctx, name, 0, trace); code != 0 {
				t.Fatalf("%s trace %d: exit %d: %s", name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %d: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
