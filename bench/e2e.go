package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dualgraph"
	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

// env locates the programs under test and the benchmark's own files.
type env struct {
	root    string // repository root: the programs' module
	build   string // binaries, generated inputs, scratch files
	out     string // reports and traces
	workers int    // -workers for the programs: one per CPU
	dgsim   string
	dgsimd  string
}

// buildPrograms builds dgsim and dgsimd from the repository's source.
func (e *env) buildPrograms(ctx context.Context) error {
	bin := filepath.Join(e.build, "bin")
	for _, name := range []string{"dgsim", "dgsimd"} {
		cmd := exec.CommandContext(ctx, "go", "build", "-o", filepath.Join(bin, name), "./cmd/"+name)
		cmd.Dir = e.root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	e.dgsim, e.dgsimd = filepath.Join(bin, "dgsim"), filepath.Join(bin, "dgsimd")
	return nil
}

// input is one generated sweep file, read back the way the programs read it.
type input struct {
	name   string
	path   string
	doc    []byte
	sweep  spec.Sweep
	labels []string
	trials int
}

// prepare writes the workload's sweep documents and expands their cells.
func (e *env) prepare(w *workload, dir string) ([]*input, error) {
	docs, err := w.docs()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ins := make([]*input, len(docs))
	for i, doc := range docs {
		in := &input{name: w.sweeps[i].name, path: filepath.Join(dir, w.sweeps[i].name+".json"), doc: doc}
		if err := os.WriteFile(in.path, doc, 0o644); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(doc, &in.sweep); err != nil {
			return nil, fmt.Errorf("%s: %w", in.path, err)
		}
		cells, err := in.sweep.Cells()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.path, err)
		}
		for _, c := range cells {
			in.labels = append(in.labels, c.Label)
		}
		in.trials = max(in.sweep.Trials, 1)
		ins[i] = in
	}
	return ins, nil
}

// checker counts operations — cells and jobs — and the ones that failed a
// correctness gate.
type checker struct {
	attempted, failed int
	errs              []string
}

func (c *checker) op(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.errs) < 20 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// rep is one untraced repetition of a workload against the real binaries.
type rep struct {
	wall      float64 // seconds of the throughput window
	life      float64 // seconds the children were alive
	trials    int64   // trials in the throughput window
	rounds    float64 // Σ cell mean rounds × trials in the throughput window
	cpu       float64 // children's user+sys seconds
	allTrials int64   // every trial the children ran
	rssKB     int64   // the largest child max RSS
	jobs      []float64
	lines     []string // every cell line, in output order
	svc       map[string]float64
}

// runRep runs the workload once. ref, when non-nil, is the first rep's
// lines, which every later rep must reproduce byte for byte.
func (e *env) runRep(ctx context.Context, w *workload, ins []*input, ref []string, chk *checker) (*rep, error) {
	if w.service {
		return e.serviceRep(ctx, w, ins, ref, chk)
	}
	r := &rep{}
	for _, in := range ins {
		args := []string{"-spec", in.path, "-workers", strconv.Itoa(e.workers)}
		ckpt := ""
		if w.checkpoint {
			ckpt = filepath.Join(e.build, "work", w.name+".ckpt")
			if err := os.MkdirAll(filepath.Dir(ckpt), 0o755); err != nil {
				return nil, err
			}
			args = append(args, "-checkpoint", ckpt)
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, e.dgsim, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		wall := time.Since(start).Seconds()
		chk.op(err == nil, "dgsim -spec %s: %v: %s", in.path, err, stderr.Bytes())
		if err != nil {
			return nil, fmt.Errorf("dgsim -spec %s: %w", in.path, err)
		}
		cpu, rss := usage(cmd.ProcessState)
		r.wall += wall
		r.life += wall
		r.cpu += cpu
		r.rssKB = max(r.rssKB, rss)
		lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
		header := fmt.Sprintf("grid: cells=%d trials-per-cell=%d", len(in.labels), in.trials)
		if len(lines) == 0 || lines[0] != header {
			chk.op(false, "%s: header %q, want %q", in.path, lines[0], header)
		} else {
			lines = lines[1:]
		}
		trials, rounds := r.addCells(in, lines, refLines(ref, len(r.lines), len(in.labels)), chk)
		r.trials += trials
		r.rounds += rounds
		r.allTrials += trials
		if ckpt != "" {
			err := checkCheckpoint(ckpt, in, lines)
			chk.op(err == nil, "%s checkpoint: %v", in.path, err)
		}
	}
	// Every workload reports every end-to-end metric. A dgsim workload's
	// one job is the whole rep, so its job_p50_s is the rep's wall time and
	// moves exactly as trials_per_s does: a slowdown there is one finding,
	// not two.
	r.jobs = []float64{r.wall}
	return r, nil
}

// refLines returns the reference lines for the next n cells, or nil.
func refLines(ref []string, off, n int) []string {
	if ref == nil || off+n > len(ref) {
		return nil
	}
	return ref[off : off+n]
}

var cellRE = regexp.MustCompile(`^completed=(\d+)/(\d+) rounds: min=\S+ mean=(\S+) `)

// addCells checks one output's cell lines — every cell present in order,
// every trial completed, and, when want is given, byte-identical to want —
// appends them to the rep's lines and returns the trials and rounds they
// summarize.
func (r *rep) addCells(in *input, lines, want []string, chk *checker) (trials int64, rounds float64) {
	for i, label := range in.labels {
		line := ""
		if i < len(lines) {
			line = lines[i]
		}
		mean, err := parseCell(line, label, in.trials)
		if err == nil && want != nil && line != want[i] {
			err = fmt.Errorf("differs from the reference %q", want[i])
		}
		chk.op(err == nil, "%s cell %d: %q: %v", in.name, i, line, err)
		r.lines = append(r.lines, line)
		trials += int64(in.trials)
		rounds += mean * float64(in.trials)
	}
	if len(lines) > len(in.labels) {
		chk.op(false, "%s: %d unexpected extra lines", in.name, len(lines)-len(in.labels))
	}
	return trials, rounds
}

// parseCell checks a "label: completed=T/T rounds: ..." line and returns the
// cell's mean rounds.
func parseCell(line, label string, trials int) (float64, error) {
	rest, ok := strings.CutPrefix(line, label+": ")
	if !ok {
		return 0, fmt.Errorf("want label %q", label)
	}
	m := cellRE.FindStringSubmatch(rest)
	if m == nil {
		return 0, errors.New("malformed summary")
	}
	want := strconv.Itoa(trials)
	if m[1] != want || m[2] != want {
		return 0, fmt.Errorf("completed=%s/%s, want %d/%d", m[1], m[2], trials, trials)
	}
	return strconv.ParseFloat(m[3], 64)
}

// checkCheckpoint recovers a finished run's checkpoint and checks that it
// holds every (cell, shard) record and that merging them in shard order
// reproduces the printed lines.
func checkCheckpoint(path string, in *input, lines []string) error {
	hash, err := in.sweep.Hash()
	if err != nil {
		return err
	}
	meta := dualgraph.CheckpointMetaFor(hash, len(in.labels), in.trials, dualgraph.StreamConfig{})
	recs, _, err := dualgraph.RecoverCheckpoint(path, meta)
	if err != nil {
		return err
	}
	shards := engine.Shards(in.trials)
	if len(recs) != len(in.labels)*shards {
		return fmt.Errorf("recovered %d records, want %d", len(recs), len(in.labels)*shards)
	}
	seed := dualgraph.CheckpointSeed(recs)
	for c, label := range in.labels {
		dst := seed[dualgraph.ShardKey{Cell: c, Shard: 0}]
		for s := 1; s < shards; s++ {
			if err := dst.Merge(seed[dualgraph.ShardKey{Cell: c, Shard: s}]); err != nil {
				return fmt.Errorf("cell %d: %w", c, err)
			}
		}
		if got := label + ": " + spec.FormatSummary(dst); c >= len(lines) || got != lines[c] {
			return fmt.Errorf("cell %d recovers as %q", c, got)
		}
	}
	return nil
}

// usage returns a finished child's user+sys CPU seconds and max RSS in KB.
func usage(ps *os.ProcessState) (float64, int64) {
	cpu := (ps.UserTime() + ps.SystemTime()).Seconds()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return cpu, ru.Maxrss
	}
	return cpu, 0
}

// serviceRep starts dgsimd, submits the phase-A job, then w.jobs phase-B
// jobs in a closed loop (each submitted after the previous one's done
// line), and drains the daemon. One client, one connection, one job at a
// time.
func (e *env) serviceRep(ctx context.Context, w *workload, ins []*input, ref []string, chk *checker) (*rep, error) {
	a, b := ins[0], ins[1]
	d, err := startDaemon(ctx, e.dgsimd, e.workers)
	if err != nil {
		chk.op(false, "start dgsimd: %v", err)
		return nil, err
	}
	defer d.kill()
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	r := &rep{}
	ja, err := submitJob(ctx, client, d.url, a)
	chk.op(err == nil, "phase A job: %v", err)
	if err != nil {
		return nil, err
	}
	r.wall = ja.turnaround
	r.trials, r.rounds = r.addCells(a, ja.lines, refLines(ref, 0, len(a.labels)), chk)
	wantB := refLines(ref, len(a.labels), len(b.labels))
	var submit, first, lag []float64
	streamed := ja.bytes
	for j := 0; j < w.jobs; j++ {
		jb, err := submitJob(ctx, client, d.url, b)
		chk.op(err == nil, "phase B job %d: %v", j, err)
		if err != nil {
			return nil, err
		}
		if j == 0 {
			// The first job's lines are the rep's record; later jobs must
			// repeat them exactly.
			r.addCells(b, jb.lines, wantB, chk)
			wantB = r.lines[len(a.labels):]
		} else if !slices.Equal(jb.lines, wantB) {
			chk.op(false, "phase B job %d: lines differ from job 0", j)
		}
		r.jobs = append(r.jobs, jb.turnaround)
		submit = append(submit, jb.submit)
		first = append(first, jb.firstLine)
		lag = append(lag, jb.doneLag)
		streamed += jb.bytes
	}
	cpu, rss, life, err := d.stop()
	chk.op(err == nil, "dgsimd drain: %v", err)
	if err != nil {
		return nil, err
	}
	r.cpu, r.rssKB, r.life = cpu, rss, life
	r.allTrials = int64(len(a.labels)*a.trials + w.jobs*len(b.labels)*b.trials)
	r.svc = map[string]float64{
		"service.submit_s":     median(submit),
		"service.first_line_s": median(first),
		"service.done_lag_s":   median(lag),
		"service.bytes":        float64(streamed),
	}
	return r, nil
}

// daemon is a running dgsimd.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	started time.Time
	logs    bytes.Buffer  // stderr, readable once exited is closed
	exited  chan struct{} // closed when stderr reaches EOF
	waited  bool
}

func startDaemon(ctx context.Context, bin string, workers int) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logs.WriteString(line + "\n")
			if _, a, ok := strings.Cut(line, "listening on "); ok && !sent {
				addr <- a
				sent = true
			}
		}
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.exited:
	case <-time.After(30 * time.Second):
	}
	d.kill()
	return nil, fmt.Errorf("dgsimd did not report its address: %s", d.logs.String())
}

// stop drains the daemon with SIGTERM and returns its CPU seconds, max RSS
// and lifetime.
func (d *daemon) stop() (cpu float64, rssKB int64, life float64, err error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, 0, 0, errors.New("dgsimd did not drain within 60s")
	}
	d.waited = true
	err = d.cmd.Wait()
	life = time.Since(d.started).Seconds()
	if err != nil {
		return 0, 0, life, fmt.Errorf("dgsimd exit: %w: %s", err, d.logs.String())
	}
	cpu, rssKB = usage(d.cmd.ProcessState)
	return cpu, rssKB, life, nil
}

// kill ends the daemon and waits for it, unless stop already did.
func (d *daemon) kill() {
	if d.waited {
		return
	}
	d.waited = true
	_ = d.cmd.Process.Kill() // it may have exited already
	<-d.exited
	_ = d.cmd.Wait() // the kill is the error
}

type jobResult struct {
	turnaround float64 // POST sent → done line
	submit     float64 // POST round trip
	firstLine  float64 // POST sent → first cell line
	doneLag    float64 // last cell line → done line
	bytes      int64   // results stream bytes
	lines      []string
}

// submitJob posts the sweep as a job and follows its results stream to the
// done line, which must report state "done" with every cell completed.
func submitJob(ctx context.Context, client *http.Client, url string, in *input) (*jobResult, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	body := append(append([]byte(`{"sweep":`), in.doc...), '}')
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	var st struct {
		ID string `json:"id"`
	}
	status := resp.StatusCode
	err = json.NewDecoder(resp.Body).Decode(&st)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if status != http.StatusCreated || err != nil {
		return nil, fmt.Errorf("POST /v1/jobs: status %d: %v", status, err)
	}
	res := &jobResult{submit: time.Since(start).Seconds()}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/jobs/"+st.ID+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET results: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	var last time.Time
	for {
		raw, err := br.ReadBytes('\n')
		now := time.Now()
		res.bytes += int64(len(raw))
		if err != nil {
			return nil, fmt.Errorf("results of %s ended before the done line: %w", st.ID, err)
		}
		var line struct {
			Label          string `json:"label"`
			Summary        string `json:"summary"`
			Done           bool   `json:"done"`
			State          string `json:"state"`
			Cells          int    `json:"cells"`
			CellsCompleted int    `json:"cells_completed"`
			Error          string `json:"error"`
		}
		if err := json.Unmarshal(raw, &line); err != nil {
			return nil, fmt.Errorf("results of %s: %w", st.ID, err)
		}
		if !line.Done {
			if res.lines == nil {
				res.firstLine = now.Sub(start).Seconds()
			}
			res.lines = append(res.lines, line.Label+": "+line.Summary)
			last = now
			continue
		}
		res.turnaround = now.Sub(start).Seconds()
		res.doneLag = now.Sub(last).Seconds()
		if line.State != "done" || line.CellsCompleted != len(in.labels) {
			return nil, fmt.Errorf("job %s ended %s with %d/%d cells: %s", st.ID, line.State, line.CellsCompleted, line.Cells, line.Error)
		}
		_, _ = io.Copy(io.Discard, br)
		return res, nil
	}
}

// measureSetup times, in-process and untraced, the work dgsim does before
// its first trial — read and decode the sweep, expand its cells, build every
// cell and materialize its epoch 0. It repeats that at least setupReps times
// and for at least setupSeconds and returns every repetition's seconds.
func measureSetup(ins []*input) ([]float64, error) {
	var times []float64
	begin := time.Now()
	for len(times) < setupReps || time.Since(begin) < setupSeconds {
		runtime.GC()
		start := time.Now()
		for _, in := range ins {
			blob, err := os.ReadFile(in.path)
			if err != nil {
				return nil, err
			}
			var sw spec.Sweep
			if err := json.Unmarshal(blob, &sw); err != nil {
				return nil, err
			}
			cells, err := sw.Cells()
			if err != nil {
				return nil, err
			}
			for _, c := range cells {
				b, err := c.Scenario.Build()
				if err != nil {
					return nil, err
				}
				if _, err := b.Sched.Epoch(0, engine.SeedFor(b.Cfg.Seed, 0)); err != nil {
					return nil, err
				}
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	return times, nil
}

// repMetrics are the end-to-end metrics each rep yields on its own, with
// the quantile that reduces a run's reps to one value: the median, except
// for peak RSS. GC timing only ever adds to a process's peak, and on one
// input the reps' peaks spread over 1.5x; the lower quartile of a run's
// peaks still moves with what the program needs and was the steadiest
// across seeds and runs (the minimum, an extreme, jumped by up to 15%).
var repMetrics = map[string]struct {
	of func(*rep) float64
	q  float64
}{
	"trials_per_s":     {func(r *rep) float64 { return float64(r.trials) / r.wall }, 0.5},
	"sim_rounds_per_s": {func(r *rep) float64 { return r.rounds / r.wall }, 0.5},
	"cpu_ms_per_trial": {func(r *rep) float64 { return r.cpu * 1000 / float64(r.allTrials) }, 0.5},
	"peak_rss_mb":      {func(r *rep) float64 { return float64(r.rssKB) / 1024 }, 0.25},
}

// e2eSeries returns, for every end-to-end metric, the samples a run
// yields — one per rep, one per job for job_p50_s, the given set-up times
// for setup_s — and the value reported for the run.
func e2eSeries(reps []*rep, setup []float64) map[string]*series {
	out := map[string]*series{
		"setup_s":   {Values: setup, Value: median(setup)},
		"job_p50_s": {},
	}
	for _, r := range reps {
		out["job_p50_s"].Values = append(out["job_p50_s"].Values, r.jobs...)
	}
	out["job_p50_s"].Value = median(out["job_p50_s"].Values)
	for name, m := range repMetrics {
		s := &series{}
		for _, r := range reps {
			s.Values = append(s.Values, m.of(r))
		}
		s.Value = quantile(s.Values, m.q)
		out[name] = s
	}
	for _, d := range e2eDefs {
		out[d.name].Unit = d.unit
	}
	return out
}
