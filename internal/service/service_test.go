package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

// smallSweep is a quick 4-cell grid used by most tests.
func smallSweep(trials int) spec.Sweep {
	sw := spec.Sweep{Base: spec.Default(), Seeds: []int64{1, 2, 3, 4}, Trials: trials}
	sw.Base.N = 13
	return sw
}

// slowSweep is a grid big enough to still be running when a test cancels
// or drains it — minutes of work if left alone. Cancel latency is one
// claimed shard (trials/256 runs), so the -short race lane shrinks the
// trial count to keep the drained shard cheap under instrumentation.
func slowSweep() spec.Sweep {
	trials := 400000
	if testing.Short() {
		trials = 50000
	}
	sw := spec.Sweep{Base: spec.Default(), Seeds: []int64{1, 2, 3, 4}, Trials: trials}
	sw.Base.N = 17
	return sw
}

// newTestServer builds a Server plus its httptest front end and tears both
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// submit POSTs a job envelope and decodes the created status.
func submit(t *testing.T, ts *httptest.Server, req JobRequest) JobStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit: status %d: %v", resp.StatusCode, e)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// streamLines reads a job's ndjson result stream to the end, returning the
// cell lines and the terminating done line.
func streamLines(t *testing.T, ts *httptest.Server, id string) ([]CellLine, doneLine) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results content type %q", ct)
	}
	var (
		lines []CellLine
		done  doneLine
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", raw, err)
		}
		if probe.Done {
			if err := json.Unmarshal(raw, &done); err != nil {
				t.Fatal(err)
			}
			return lines, done
		}
		var line CellLine
		if err := json.Unmarshal(raw, &line); err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	t.Fatalf("stream ended without a done line (read %d lines, scanner err %v)", len(lines), sc.Err())
	return nil, doneLine{}
}

// getStatus fetches one job status over HTTP.
func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, s *Server, id string, want func(State) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if want(st.State) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Get(id)
	t.Fatalf("job %s stuck in state %s", id, st.State)
	return JobStatus{}
}

// A submitted sweep must run end to end with every per-cell line streamed
// in cell order and byte-identical to the same sweep's local
// Sweep.Run + FormatSummary rendering — i.e. to `dgsim -spec` output —
// whatever worker count drains the job's ledger: the service pool of a
// local job, or the in-process FoldShardContext claimants of a coordinator
// job.
func TestJobResultsDeterministicAcrossWorkerCounts(t *testing.T) {
	sw := smallSweep(64)

	// Local reference: the exact lines dgsim -spec prints for each cell.
	grid, err := sw.Run(context.Background(), engine.Config{Workers: 1}, engine.StreamConfig{}, spec.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(grid.Cells))
	for i, cr := range grid.Cells {
		want[i] = fmt.Sprintf("%s: %s", cr.Cell.Label, spec.FormatSummary(cr.Summary))
	}

	for _, workers := range []int{1, 2, 8} {
		s, ts := newTestServer(t, Config{Engine: engine.Config{Workers: workers}})
		local := submit(t, ts, JobRequest{Name: "determinism", Sweep: sw})
		if local.Cells != len(grid.Cells) || local.Trials != 64 {
			t.Fatalf("workers=%d: submitted status %+v", workers, local)
		}
		remote := submit(t, ts, JobRequest{Name: "determinism", Sweep: sw, Mode: ModeCoordinator})
		drainInProcess(t, s, remote.ID, workers)
		for _, st := range []JobStatus{local, remote} {
			lines, done := streamLines(t, ts, st.ID)
			if done.State != Done || !done.Done || done.CellsCompleted != len(want) {
				t.Fatalf("workers=%d %q job: done line %+v", workers, st.Mode, done)
			}
			if len(lines) != len(want) {
				t.Fatalf("workers=%d %q job: got %d lines, want %d", workers, st.Mode, len(lines), len(want))
			}
			for i, line := range lines {
				if line.Cell != i {
					t.Fatalf("workers=%d %q job: line %d is cell %d (out of order)", workers, st.Mode, i, line.Cell)
				}
				if got := line.Label + ": " + line.Summary; got != want[i] {
					t.Fatalf("workers=%d %q job: cell %d over HTTP differs from local run:\n http: %s\nlocal: %s", workers, st.Mode, i, got, want[i])
				}
			}
		}
	}
}

// drainInProcess drains a coordinator job with n in-process claimants that
// claim through ClaimShard, fold through FoldShardContext and report through
// ReportShard — the dgsimd worker loop without the HTTP hop.
func drainInProcess(t *testing.T, s *Server, id string, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c, ok, err := s.ClaimShard(id)
				if errors.Is(err, ErrJobNotRunning) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !ok { // the remaining units are leased by the other claimants
					time.Sleep(time.Millisecond)
					continue
				}
				if _, err := s.ReportShard(id, Report{Cell: c.Cell, Shard: c.Shard, Summary: foldClaim(t, c)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A second reader attaching after completion (and one resuming with ?from=)
// must see the same lines.
func TestResultsReplayAndResume(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, JobRequest{Sweep: smallSweep(16)})
	first, done := streamLines(t, ts, st.ID)
	if done.State != Done {
		t.Fatalf("done line %+v", done)
	}
	second, _ := streamLines(t, ts, st.ID)
	if len(second) != len(first) {
		t.Fatalf("replay: %d lines vs %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay line %d differs", i)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/results?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("resumed stream is empty")
	}
	var line CellLine
	if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line.Cell != 2 {
		t.Fatalf("?from=2 started at cell %d", line.Cell)
	}
}

// SSE negotiation: Accept: text/event-stream must switch the stream to
// cell/done events carrying the same JSON payloads.
func TestResultsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submit(t, ts, JobRequest{Sweep: smallSweep(8)})

	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+st.ID+"/results", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var cells, dones int
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		l := sc.Text()
		switch {
		case strings.HasPrefix(l, "event: "):
			event = strings.TrimPrefix(l, "event: ")
		case strings.HasPrefix(l, "data: "):
			data := strings.TrimPrefix(l, "data: ")
			switch event {
			case "cell":
				var line CellLine
				if err := json.Unmarshal([]byte(data), &line); err != nil {
					t.Fatalf("bad cell event %q: %v", data, err)
				}
				cells++
			case "done":
				var d doneLine
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					t.Fatalf("bad done event %q: %v", data, err)
				}
				if d.State != Done {
					t.Fatalf("done event state %s", d.State)
				}
				dones++
			}
		}
	}
	if cells != 4 || dones != 1 {
		t.Fatalf("saw %d cell events and %d done events", cells, dones)
	}
}

// DELETE on a running job must cancel it promptly (within one shard
// boundary) and terminate its result streams with a cancelled done line.
func TestCancelRunningJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: engine.Config{Workers: 2}})
	st := submit(t, ts, JobRequest{Name: "victim", Sweep: slowSweep()})
	waitState(t, s, st.ID, func(st State) bool { return st == Running })

	// Attach a live stream before cancelling, to prove it terminates.
	type streamEnd struct {
		done doneLine
	}
	endC := make(chan streamEnd, 1)
	go func() {
		_, done := streamLines(t, ts, st.ID)
		endC <- streamEnd{done}
	}()

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	start := time.Now()
	fin := waitState(t, s, st.ID, func(st State) bool { return st.Terminal() })
	if fin.State != Cancelled {
		t.Fatalf("cancelled job ended %s", fin.State)
	}
	// Shard-boundary promptness: one shard is trials/256 ≈ 2k tiny runs;
	// seconds, not the minutes the full grid would need.
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	select {
	case end := <-endC:
		if end.done.State != Cancelled {
			t.Fatalf("stream done line state %s", end.done.State)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("result stream did not terminate after cancel")
	}

	// DELETE is idempotent on a terminal job.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second cancel status %d", resp2.StatusCode)
	}
}

// Cancel ends a running local job at once: the returned status is already
// cancelled, and the job's lines are a prefix of the uninterrupted run that
// never grows afterwards, although the pool finishes its claimed units.
func TestCancelRunningJobFreezesPrefix(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: engine.Config{Workers: 2}})
	sw := smallSweep(2000)
	sw.Seeds = nil
	for seed := int64(1); seed <= 32; seed++ {
		sw.Seeds = append(sw.Seeds, seed)
	}
	st := submit(t, ts, JobRequest{Sweep: sw})
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, st.ID).CellsCompleted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cell completed")
		}
		time.Sleep(time.Millisecond)
	}
	cancelled, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != Cancelled {
		t.Fatalf("Cancel returned state %s, want cancelled at once", cancelled.State)
	}
	// The executor is serial: once a follow-up job is done, the cancelled
	// job's pool has wound down and can no longer deliver anything.
	next := submit(t, ts, JobRequest{Sweep: smallSweep(1)})
	waitState(t, s, next.ID, func(st State) bool { return st == Done })
	// A cell delivered in the window between Cancel and the pool stopping
	// is dropped, not streamed.
	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	s.appendLine(j, CellLine{Cell: cancelled.CellsCompleted, Label: "late"})

	lines, done := streamLines(t, ts, st.ID)
	if done.State != Cancelled || len(lines) != cancelled.CellsCompleted {
		t.Fatalf("after the pool stopped: %d lines, done %+v; want the %d lines of the cancel", len(lines), done, cancelled.CellsCompleted)
	}
	prefix := sw
	prefix.Seeds = sw.Seeds[:len(lines)]
	grid, err := prefix.Run(context.Background(), engine.Config{Workers: 1}, engine.StreamConfig{}, spec.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cr := range grid.Cells {
		if lines[i].Label != cr.Cell.Label || lines[i].Summary != spec.FormatSummary(cr.Summary) {
			t.Fatalf("line %d = %+v, want the uninterrupted run's %s", i, lines[i], cr.Cell.Label)
		}
	}
}

// Cancelling a queued job must flip it to cancelled without it ever
// running, while the job ahead of it is unaffected.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: engine.Config{Workers: 2}})
	first := submit(t, ts, JobRequest{Name: "running", Sweep: slowSweep()})
	second := submit(t, ts, JobRequest{Name: "queued", Sweep: smallSweep(8)})

	waitState(t, s, first.ID, func(st State) bool { return st == Running })
	if st := getStatus(t, ts, second.ID); st.State != Queued {
		t.Fatalf("second job state %s before cancel", st.State)
	}
	if _, err := s.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	if st := getStatus(t, ts, second.ID); st.State != Cancelled {
		t.Fatalf("second job state %s after cancel", st.State)
	}
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, first.ID, func(st State) bool { return st.Terminal() })
}

// The typed error paths over HTTP: bad versions and misspelled spec keys
// 400, unknown jobs 404.
func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	errOf := func(resp *http.Response) string {
		defer resp.Body.Close()
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return e["error"]
	}

	// Unknown envelope version.
	resp := post(`{"version":2,"sweep":{"base":{"n":13}}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("envelope v2: status %d", resp.StatusCode)
	}
	if msg := errOf(resp); !strings.Contains(msg, "unsupported job version 2") {
		t.Fatalf("envelope v2 error: %q", msg)
	}

	// Unknown sweep version (rejected by the spec layer on decode).
	resp = post(`{"sweep":{"version":3,"base":{"n":13}}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("sweep v3: status %d", resp.StatusCode)
	}
	if msg := errOf(resp); !strings.Contains(msg, "unsupported sweep version 3") {
		t.Fatalf("sweep v3 error: %q", msg)
	}

	// Duplicate labels are caught at submission.
	resp = post(`{"sweep":{"base":{"n":13},"seeds":[1,1]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("dup labels: status %d", resp.StatusCode)
	}
	if msg := errOf(resp); !strings.Contains(msg, "same label") {
		t.Fatalf("dup labels error: %q", msg)
	}

	// Unknown registry names carry the spec layer's message.
	resp = post(`{"sweep":{"base":{"n":13,"topology":{"name":"cliqe-bridge"}}}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name: status %d", resp.StatusCode)
	}

	// Misspelled spec keys at every level are 400s naming the key: the
	// envelope's DisallowUnknownFields does not reach the spec's own
	// unmarshalers, so they must reject unknown keys themselves.
	for field, sweep := range map[string]string{
		"max-rounds": `{"base":{"n":13,"max-rounds":1},"trials":1}`,
		"trial":      `{"base":{"n":13},"trial":5}`,
		"nmae":       `{"base":{"n":13},"adversaries":[{"nmae":"greedy"}]}`,
	} {
		resp = post(`{"sweep":` + sweep + `}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", sweep, resp.StatusCode)
		}
		if msg := errOf(resp); !strings.Contains(msg, `"`+field+`"`) {
			t.Fatalf("%s: error %q does not name %q", sweep, msg, field)
		}
	}

	// Unknown job id.
	for _, path := range []string{"/v1/jobs/job-999999", "/v1/jobs/job-999999/results"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d", path, r.StatusCode)
		}
	}
}

// Race lane: concurrent submits, cancels, lists, status reads, and result
// streams against one server must be data-race free and leave every job in
// a coherent state.
func TestConcurrentSubmitCancelList(t *testing.T) {
	s, ts := newTestServer(t, Config{Engine: engine.Config{Workers: 2}, QueueLimit: 256})

	const submitters = 8
	var wg sync.WaitGroup
	ids := make(chan string, submitters*4)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				st, err := s.Submit(JobRequest{Name: fmt.Sprintf("r%d-%d", g, k), Sweep: smallSweep(4)})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				ids <- st.ID
			}
		}(g)
	}
	var aux sync.WaitGroup
	stopAux := make(chan struct{})
	for g := 0; g < 4; g++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for {
				select {
				case <-stopAux:
					return
				default:
				}
				for _, st := range s.List() {
					if _, err := s.Get(st.ID); err != nil {
						t.Errorf("get %s: %v", st.ID, err)
					}
				}
			}
		}()
	}
	cancelled := make(map[string]bool)
	var cmu sync.Mutex
	for g := 0; g < 2; g++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			for id := range ids {
				if _, err := s.Cancel(id); err != nil {
					t.Errorf("cancel %s: %v", id, err)
				}
				cmu.Lock()
				cancelled[id] = true
				cmu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(ids)
	time.Sleep(10 * time.Millisecond)
	close(stopAux)
	aux.Wait()

	// Every job must settle into a terminal state.
	for _, st := range s.List() {
		waitState(t, s, st.ID, func(st State) bool { return st.Terminal() })
	}
	_ = cancelled
	_ = ts
}

// Drain: admission stops, queued jobs cancel, the running job stops at a
// shard boundary keeping its streamed cells, the executor exits, and no
// goroutines are left behind.
func TestDrain(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Engine: engine.Config{Workers: 2}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	running := submit(t, ts, JobRequest{Name: "running", Sweep: slowSweep()})
	queued := submit(t, ts, JobRequest{Name: "queued", Sweep: smallSweep(8)})
	waitState(t, s, running.ID, func(st State) bool { return st == Running })

	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if st, _ := s.Get(queued.ID); st.State != Cancelled {
		t.Fatalf("queued job after drain: %s", st.State)
	}
	st, _ := s.Get(running.ID)
	if !st.State.Terminal() {
		t.Fatalf("running job after drain: %s", st.State)
	}

	// Admission is closed.
	if _, err := s.Submit(JobRequest{Sweep: smallSweep(1)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v", err)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}

	// Drain is idempotent.
	if err := s.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}

	// Completed result streams still replay after drain.
	lines, done := streamLines(t, ts, running.ID)
	if done.State != Cancelled && done.State != Done {
		t.Fatalf("drained job done line: %+v", done)
	}
	if len(lines) != done.CellsCompleted {
		t.Fatalf("replayed %d lines, status says %d", len(lines), done.CellsCompleted)
	}

	// No goroutine leak: everything the server started has exited.
	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before, %d after drain", before, runtime.NumGoroutine())
}
