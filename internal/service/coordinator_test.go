package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

// claimOnce POSTs one shard claim and returns (claim, true) on 200 or
// (zero, false) on 204. Anything else fails the test.
func claimOnce(t *testing.T, ts *httptest.Server, id string) (Claim, bool) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/shards/claim", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var c Claim
		if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
			t.Fatal(err)
		}
		return c, true
	case http.StatusNoContent:
		return Claim{}, false
	case http.StatusConflict:
		// The job reached a terminal state between this worker's last status
		// check and the claim — a legitimate shutdown race, not a failure.
		return Claim{}, false
	default:
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("claim: status %d: %v", resp.StatusCode, e)
		return Claim{}, false
	}
}

// reportShard POSTs one shard report and returns the HTTP status plus the
// decoded job status (valid only on 200).
func reportShard(t *testing.T, ts *httptest.Server, id string, rep Report) (int, JobStatus) {
	t.Helper()
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/shards/report", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// foldClaim executes a claimed unit exactly as a dgsimd worker does: build
// the scenario, fold the trial range through the engine's per-shard inner
// loop, serialize the accumulator. Claimant goroutines call it too, so a
// failure is reported with t.Error and yields a nil blob, which the
// coordinator refuses.
func foldClaim(t *testing.T, c Claim) []byte {
	t.Helper()
	b, err := c.Scenario.Build()
	if err != nil {
		t.Errorf("build claim (%d, %d): %v", c.Cell, c.Shard, err)
		return nil
	}
	sum, err := engine.FoldShardContext(t.Context(),
		engine.Trial{Net: b.Net, Sched: b.Sched, Alg: b.Alg, Adv: b.Adv, Cfg: b.Cfg},
		c.TrialLo, c.TrialHi,
		engine.StreamConfig{Quantiles: c.Quantiles, ExactK: c.ExactK})
	if err != nil {
		t.Errorf("fold claim (%d, %d): %v", c.Cell, c.Shard, err)
		return nil
	}
	blob, err := sum.MarshalBinary()
	if err != nil {
		t.Error(err)
	}
	return blob
}

// workLoop claims, folds, and reports units until the job reaches a
// terminal state; 204 (everything leased elsewhere) backs off briefly.
func workLoop(t *testing.T, ts *httptest.Server, s *Server, id string, unitsDone *atomic.Int64) {
	for {
		st, err := s.Get(id)
		if err != nil {
			t.Error(err)
			return
		}
		if st.State.Terminal() {
			return
		}
		c, ok := claimOnce(t, ts, id)
		if !ok {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		code, _ := reportShard(t, ts, id, Report{Cell: c.Cell, Shard: c.Shard, Summary: foldClaim(t, c)})
		switch code {
		case http.StatusOK:
			unitsDone.Add(1)
		case http.StatusConflict:
			return // job ended while this worker was folding
		default:
			t.Errorf("report (%d, %d): status %d", c.Cell, c.Shard, code)
			return
		}
	}
}

// A coordinator job served by remote workers — including one that claims a
// unit and dies without reporting — must stream exactly the lines the same
// sweep produces on the local engine, in the same order.
func TestCoordinatorMatchesSingleProcess(t *testing.T) {
	cfg := Config{Stream: engine.StreamConfig{Quantiles: []float64{0.5, 0.99}, ExactK: 8}}
	s, ts := newTestServer(t, cfg)
	sw := smallSweep(24) // 4 cells × Shards(24)=24 shards = 96 units

	// Reference: the same sweep on the same server's local path.
	local := submit(t, ts, JobRequest{Name: "local", Sweep: sw})
	wantLines, wantDone := streamLines(t, ts, local.ID)
	if wantDone.State != Done {
		t.Fatalf("local reference job ended %s", wantDone.State)
	}

	st := submit(t, ts, JobRequest{Name: "remote", Sweep: sw, Mode: ModeCoordinator, LeaseSeconds: 1})
	if st.State != Running || st.Mode != ModeCoordinator {
		t.Fatalf("coordinator job submitted as %+v", st)
	}

	// A worker claims the very first unit and dies without reporting: its
	// lease must expire and the unit must be re-run by a surviving worker.
	if _, ok := claimOnce(t, ts, st.ID); !ok {
		t.Fatal("dying worker got no claim from a fresh job")
	}

	var unitsDone atomic.Int64
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			workLoop(t, ts, s, st.ID, &unitsDone)
		}()
	}
	<-done
	<-done

	lines, doneL := streamLines(t, ts, st.ID)
	if doneL.State != Done || doneL.CellsCompleted != len(wantLines) {
		t.Fatalf("coordinator done line %+v", doneL)
	}
	// Every unit reported at least once (96 = 4 cells × 24 shards, including
	// the orphaned one). Under heavy instrumentation a fold can outlive its
	// 1s lease and be re-run, so duplicates may push the count above 96 —
	// idempotency makes that harmless.
	if n := unitsDone.Load(); n < 96 {
		t.Fatalf("workers reported %d units, want >= 96", n)
	}
	if len(lines) != len(wantLines) {
		t.Fatalf("got %d lines, want %d", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Fatalf("cell %d differs from local run:\nremote: %+v\n local: %+v", i, lines[i], wantLines[i])
		}
	}
	if fin := getStatus(t, ts, st.ID); fin.State != Done || fin.Mode != ModeCoordinator {
		t.Fatalf("final status %+v", fin)
	}
}

// The claim/report endpoints enforce the ledger contract: coordinator-only,
// running-only, well-formed summaries, idempotent duplicates.
func TestCoordinatorEndpointContract(t *testing.T) {
	s, ts := newTestServer(t, Config{Stream: engine.StreamConfig{ExactK: 8}})

	// A local job's ledger has only the in-process pool as claimant: remote
	// claim and report are 409.
	local := submit(t, ts, JobRequest{Sweep: smallSweep(4)})
	resp, err := http.Post(ts.URL+"/v1/jobs/"+local.ID+"/shards/claim", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("claim on local job: status %d, want 409", resp.StatusCode)
	}
	if code, _ := reportShard(t, ts, local.ID, Report{}); code != http.StatusConflict {
		t.Fatalf("report on local job: status %d, want 409", code)
	}

	// Unknown jobs are 404.
	resp, err = http.Post(ts.URL+"/v1/jobs/nope/shards/claim", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("claim on unknown job: status %d, want 404", resp.StatusCode)
	}

	sw := smallSweep(2) // 4 cells × 2 shards = 8 units
	st := submit(t, ts, JobRequest{Sweep: sw, Mode: ModeCoordinator})

	c, ok := claimOnce(t, ts, st.ID)
	if !ok {
		t.Fatal("fresh coordinator job refused a claim")
	}
	if c.Cell != 0 || c.Shard != 0 || c.SpecHash == "" || c.LeaseSeconds != 60 {
		t.Fatalf("first claim %+v: want unit (0, 0), a spec hash, and the 60s default lease", c)
	}
	if c.ExactK != 8 {
		t.Fatalf("claim carries ExactK %d, want the server's stream config (8)", c.ExactK)
	}
	blob := foldClaim(t, c)

	// Malformed and range-violating reports never touch the ledger.
	if code, _ := reportShard(t, ts, st.ID, Report{Cell: 0, Shard: 0, Summary: []byte("junk")}); code != http.StatusBadRequest {
		t.Fatalf("garbage summary: status %d, want 400", code)
	}
	if code, _ := reportShard(t, ts, st.ID, Report{Cell: 99, Shard: 0, Summary: blob}); code != http.StatusBadRequest {
		t.Fatalf("out-of-range cell: status %d, want 400", code)
	}
	// A summary sized for the wrong trial range is caught: fold two trials
	// for a unit that spans one.
	built, err := c.Scenario.Build()
	if err != nil {
		t.Fatal(err)
	}
	oversized, err := engine.FoldShardContext(t.Context(),
		engine.Trial{Net: built.Net, Sched: built.Sched, Alg: built.Alg, Adv: built.Adv, Cfg: built.Cfg},
		0, 2, engine.StreamConfig{ExactK: c.ExactK})
	if err != nil {
		t.Fatal(err)
	}
	wrongBlob, err := oversized.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := reportShard(t, ts, st.ID, Report{Cell: 1, Shard: 1, Summary: wrongBlob}); code != http.StatusBadRequest {
		t.Fatalf("wrong-sized summary: status %d, want 400", code)
	}

	// A valid report lands once; the duplicate is an acknowledged no-op.
	code, before := reportShard(t, ts, st.ID, Report{Cell: 0, Shard: 0, Summary: blob})
	if code != http.StatusOK {
		t.Fatalf("report: status %d", code)
	}
	code, after := reportShard(t, ts, st.ID, Report{Cell: 0, Shard: 0, Summary: blob})
	if code != http.StatusOK || after.CellsCompleted != before.CellsCompleted {
		t.Fatalf("duplicate report: status %d, cells %d → %d", code, before.CellsCompleted, after.CellsCompleted)
	}

	// Drive the job to completion; a terminal job refuses claims with 409.
	var n atomic.Int64
	workLoop(t, ts, s, st.ID, &n)
	if fin := waitState(t, s, st.ID, func(st State) bool { return st == Done }); fin.CellsCompleted != 4 {
		t.Fatalf("final status %+v", fin)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs/"+st.ID+"/shards/claim", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("claim on done job: status %d, want 409", resp.StatusCode)
	}

	// Cancelling a coordinator job closes the ledger the same way.
	st2 := submit(t, ts, JobRequest{Sweep: sw, Mode: ModeCoordinator})
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := waitState(t, s, st2.ID, State.Terminal); got.State != Cancelled {
		t.Fatalf("cancelled coordinator job is %s", got.State)
	}
	if code, _ := reportShard(t, ts, st2.ID, Report{Cell: 0, Shard: 0, Summary: blob}); code != http.StatusConflict {
		t.Fatalf("report on cancelled job: status %d, want 409", code)
	}
}

// A report folded with another stream configuration would poison its
// cell's merge for every client: the ledger refuses it with 400 and leaves
// the job running, and the correct report for the same unit still lands,
// with output byte-identical to the local path.
func TestReportWithForeignStreamConfigRefused(t *testing.T) {
	cfg := Config{Stream: engine.StreamConfig{Quantiles: []float64{0.5, 0.99}, ExactK: 8}}
	s, ts := newTestServer(t, cfg)
	sw := smallSweep(2)
	local := submit(t, ts, JobRequest{Sweep: sw})
	wantLines, _ := streamLines(t, ts, local.ID)

	st := submit(t, ts, JobRequest{Sweep: sw, Mode: ModeCoordinator})
	c, ok := claimOnce(t, ts, st.ID)
	if !ok {
		t.Fatal("no unit claimable")
	}
	foreign := c
	foreign.Quantiles = []float64{0.5}
	code, _ := reportShard(t, ts, st.ID, Report{Cell: c.Cell, Shard: c.Shard, Summary: foldClaim(t, foreign)})
	if code != http.StatusBadRequest {
		t.Fatalf("foreign-config report: status %d, want 400", code)
	}
	if got := getStatus(t, ts, st.ID); got.State != Running || got.Error != "" {
		t.Fatalf("job after the refused report: %+v", got)
	}
	if code, _ := reportShard(t, ts, st.ID, Report{Cell: c.Cell, Shard: c.Shard, Summary: foldClaim(t, c)}); code != http.StatusOK {
		t.Fatalf("correct report: status %d", code)
	}
	var n atomic.Int64
	workLoop(t, ts, s, st.ID, &n)
	lines, done := streamLines(t, ts, st.ID)
	if done.State != Done || !reflect.DeepEqual(lines, wantLines) {
		t.Fatalf("coordinator job ended %+v with lines differing from the local job", done)
	}
}

// TestSubmitRejectsDuplicateBuiltCells is the service side of
// spec.TestRunRejectsDuplicateBuiltCells: grid rounds n=33 and n=34 up to
// the same 36-node network, and both job modes refuse the sweep with the
// same message — a local job fails when it builds, a coordinator job (whose
// workers build instead) at submission.
func TestSubmitRejectsDuplicateBuiltCells(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	base := spec.Default()
	base.Topology = spec.Choice{Name: "grid"}
	sw := spec.Sweep{Base: base, Ns: []int{33, 34}, Trials: 2}

	local := submit(t, ts, JobRequest{Sweep: sw})
	failed := waitState(t, s, local.ID, State.Terminal)
	if failed.State != Failed || !strings.Contains(failed.Error, "same 36-node network") {
		t.Fatalf("local job ended %+v, want failed on the duplicate built size", failed)
	}
	_, err := s.Submit(JobRequest{Sweep: sw, Mode: ModeCoordinator})
	if err == nil || err.Error() != failed.Error {
		t.Fatalf("coordinator submit: err = %v, want the local job's %q", err, failed.Error)
	}
	// Distinct built sizes stay fine in both modes.
	sw.Ns = []int{16, 36}
	if _, err := s.Submit(JobRequest{Sweep: sw, Mode: ModeCoordinator}); err != nil {
		t.Fatal(err)
	}
}

// An expired lease returns its unit to the pool in index order, so a dead
// worker's unit is the next thing a live worker picks up.
func TestLeaseExpiryReturnsUnit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sw := smallSweep(1) // 4 cells × 1 shard = 4 units
	st := submit(t, ts, JobRequest{Sweep: sw, Mode: ModeCoordinator, LeaseSeconds: 1})

	first, ok := claimOnce(t, ts, st.ID)
	if !ok || first.Cell != 0 {
		t.Fatalf("first claim %+v", first)
	}
	// While the lease is live, the same unit is not claimable again.
	second, ok := claimOnce(t, ts, st.ID)
	if !ok || second.Cell == first.Cell {
		t.Fatalf("second claim %+v: want the next unit, not a double-lease of the first", second)
	}
	time.Sleep(1100 * time.Millisecond)
	// Both leases have expired unreported: the scan restarts at unit 0.
	again, ok := claimOnce(t, ts, st.ID)
	if !ok || again.Cell != first.Cell || again.Shard != first.Shard {
		t.Fatalf("post-expiry claim %+v: want the orphaned unit (%d, %d)", again, first.Cell, first.Shard)
	}
}

// Submit validates coordinator envelopes like any other: unknown modes and
// negative leases fail before a job id is spent.
func TestCoordinatorSubmitValidation(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, err := s.Submit(JobRequest{Sweep: smallSweep(2), Mode: "sharded"}); err == nil ||
		!strings.Contains(err.Error(), "unknown job mode") {
		t.Fatalf("unknown mode: %v", err)
	}
	if _, err := s.Submit(JobRequest{Sweep: smallSweep(2), LeaseSeconds: -1}); err == nil ||
		!strings.Contains(err.Error(), "lease_seconds") {
		t.Fatalf("negative lease: %v", err)
	}
	// A claim's scenario must be self-contained: it round-trips through JSON
	// with the cell's swept values baked in.
	st, err := s.Submit(JobRequest{Sweep: smallSweep(2), Mode: ModeCoordinator})
	if err != nil {
		t.Fatal(err)
	}
	c, ok, err := s.ClaimShard(st.ID)
	if err != nil || !ok {
		t.Fatalf("claim: %v ok=%v", err, ok)
	}
	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Claim
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario.Seed != c.Scenario.Seed || back.TrialHi != c.TrialHi {
		t.Fatalf("claim did not survive JSON: %+v vs %+v", back, c)
	}
	var unused spec.Scenario = back.Scenario
	_ = unused
}
