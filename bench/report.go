package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// report is what a suite run writes: per workload, every rep's end-to-end
// values and the traced pass's layer metrics. compare reads two of them.
type report struct {
	Seed      int64                      `json:"seed"`
	Nproc     int                        `json:"nproc"`
	Reps      int                        `json:"reps"`
	Quick     bool                       `json:"quick"`
	Commit    string                     `json:"commit"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	ErrorRate float64                `json:"error_rate"`
	E2E       map[string]*series     `json:"e2e"`
	Layers    map[string]metricValue `json:"layers"`
}

// series is one end-to-end metric of a run: the reported value (a median,
// or for peak RSS the lower quartile) and the samples it reduces.
type series struct {
	Unit   string    `json:"unit"`
	Value  float64   `json:"value"`
	Values []float64 `json:"values"`
}

func newWorkloadReport(e2e map[string]*series, layers map[string]float64, chk *checker) *workloadReport {
	wr := &workloadReport{
		Attempted: chk.attempted,
		Failed:    chk.failed,
		ErrorRate: float64(chk.failed) / float64(max(chk.attempted, 1)),
		E2E:       e2e,
		Layers:    map[string]metricValue{},
	}
	for _, d := range append(append([]metricDef(nil), layerDefs...), extraLayerDefs...) {
		if v, ok := layers[d.name]; ok {
			wr.Layers[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	return wr
}

func (wr *workloadReport) layerValues() map[string]float64 {
	m := make(map[string]float64, len(wr.Layers))
	for k, v := range wr.Layers {
		m[k] = v.Value
	}
	return m
}

// write stores the report as out/report-seed<N>.json.
func (r *report) write(out string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("report-seed%d", r.Seed)
	if r.Quick {
		name += "-quick"
	}
	path := filepath.Join(out, name+".json")
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// trajectoryLine is one line of bench/trajectory.jsonl: the end-to-end
// values of one full suite run, per workload.
type trajectoryLine struct {
	Commit string                        `json:"commit"`
	Nproc  int                           `json:"nproc"`
	Seed   int64                         `json:"seed"`
	Reps   int                           `json:"reps"`
	E2E    map[string]map[string]float64 `json:"e2e"`
}

func (r *report) appendTrajectory(path string) error {
	tl := trajectoryLine{Commit: r.Commit, Nproc: r.Nproc, Seed: r.Seed, Reps: r.Reps, E2E: map[string]map[string]float64{}}
	for name, wr := range r.Workloads {
		m := map[string]float64{}
		for k, s := range wr.E2E {
			m[k] = s.Value
		}
		tl.E2E[name] = m
	}
	b, err := json.Marshal(tl)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitCommit names the commit under test, or "unknown" outside a git
// checkout.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
