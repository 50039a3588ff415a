// Package service is the long-running sweep service behind cmd/dgsimd: a
// job manager that accepts declarative spec.Sweep jobs over a versioned
// envelope and streams each job's per-cell summary lines — rendered by the
// same spec.FormatSummary the CLI uses, so byte-identical to `dgsim -spec`
// output for the same sweep — to any number of concurrent readers.
//
// Every job owns an engine.Ledger of its (cell, shard) units from Submit on,
// with two kinds of claimant: the FIFO executor drains local jobs one at a
// time on the shared pool, and remote dgsimd workers drain coordinator jobs
// over the claim/report API. The ledger merges and orders cells the same
// way for both.
//
// Lifecycle: queued (coordinator jobs skip it) → running → done, failed or
// cancelled. Cancel and Drain end any live job at once, whatever its mode,
// and a terminal job's lines never change. Drain also stops admission and
// waits for the executor to exit, so a drained server holds no goroutines.
//
// Lock order: Server.mu, then the ledger's leaf lock (via Ledger.Claim).
// Server.mu is never held across Ledger.Report or Ledger.Drain, whose cell
// deliveries append lines under it.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

// Config parameterizes a Server. The zero value is ready to use.
type Config struct {
	// Engine configures the shared trial pool (zero = one worker per CPU).
	Engine engine.Config
	// Stream configures the per-cell summary accumulators.
	Stream engine.StreamConfig
	// QueueLimit bounds queued-but-not-started jobs; <= 0 means 64.
	QueueLimit int
}

func (c Config) queueLimit() int {
	if c.QueueLimit > 0 {
		return c.QueueLimit
	}
	return 64
}

// State is a job lifecycle state.
type State string

// Job lifecycle states. Queued and Running are live; the other three are
// terminal.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == Done || s == Failed || s == Cancelled
}

// JobRequest is the versioned wire envelope around a sweep: what POST
// /v1/jobs accepts. An absent version reads as version 1; unknown versions
// are rejected with *spec.ErrUnsupportedVersion.
type JobRequest struct {
	// Version is the envelope's wire-format version (see spec.WireVersion).
	Version int `json:"version,omitempty"`
	// Name is an optional human label echoed in statuses.
	Name string `json:"name,omitempty"`
	// Sweep is the declarative job body (its own version field is checked
	// by the spec layer on unmarshal).
	Sweep spec.Sweep `json:"sweep"`
	// Mode selects where the work runs: empty for the local engine,
	// ModeCoordinator to hand (cell, shard) units to remote workers over the
	// shard claim/report API. Coordinator jobs start Running immediately —
	// they occupy no slot in the local executor queue.
	Mode string `json:"mode,omitempty"`
	// LeaseSeconds is the shard-claim lease duration of a coordinator job
	// (0 = 60s): a claimed unit that is not reported within the lease
	// becomes claimable again, which is how a dead worker's work returns to
	// the pool.
	LeaseSeconds int `json:"lease_seconds,omitempty"`
}

// JobStatus is the externally visible snapshot of one job.
type JobStatus struct {
	// ID is the server-assigned job identifier.
	ID string `json:"id"`
	// Name echoes the request's optional label.
	Name string `json:"name,omitempty"`
	// State is the lifecycle state at snapshot time.
	State State `json:"state"`
	// Cells is the expanded grid size.
	Cells int `json:"cells"`
	// CellsCompleted counts cells whose summaries have been streamed.
	CellsCompleted int `json:"cells_completed"`
	// Trials is the per-cell Monte Carlo depth.
	Trials int `json:"trials"`
	// Mode echoes the request's execution mode (empty = local engine).
	Mode string `json:"mode,omitempty"`
	// Created is the submission time.
	Created time.Time `json:"created"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
}

// CellLine is one streamed result: a finished cell's label and its
// canonical summary line. Line c of a job is deterministic — byte-identical
// to the same sweep's cell c under `dgsim -spec` at any worker count.
type CellLine struct {
	// Cell is the cell's enumeration index.
	Cell int `json:"cell"`
	// Label identifies the cell by its swept axes.
	Label string `json:"label"`
	// Summary is the canonical aggregate line (spec.FormatSummary).
	Summary string `json:"summary"`
}

// Typed service errors; the HTTP layer maps them to status codes.
var (
	// ErrDraining rejects submissions after drain began.
	ErrDraining = errors.New("service: draining, not accepting new jobs")
	// ErrQueueFull rejects submissions when the admission queue is full.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrUnknownJob reports a lookup of a job id the server never issued.
	ErrUnknownJob = errors.New("service: unknown job")
)

// job is the internal record; all mutable fields are guarded by Server.mu.
type job struct {
	id       string
	name     string
	mode     string
	sweep    spec.Sweep
	cells    []spec.Cell
	trials   int
	created  time.Time
	lease    time.Duration // remote claim lease (coordinator jobs)
	specHash string        // echoed in claims (coordinator jobs)

	state   State
	err     string
	results []CellLine
	ledger  *engine.Ledger  // the job's units while it is live; dropped once it ends
	ctx     context.Context // a local job's drain context, cancelled when the job ends
	cancel  context.CancelFunc
}

func (j *job) status() JobStatus {
	return JobStatus{
		ID:             j.id,
		Name:           j.name,
		State:          j.state,
		Cells:          len(j.cells),
		CellsCompleted: len(j.results),
		Trials:         j.trials,
		Mode:           j.mode,
		Created:        j.created,
		Error:          j.err,
	}
}

// Server is the sweep job manager. Create with New, serve with Handler,
// stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg   Config
	start time.Time // process-visible uptime anchor for /v1/healthz

	mu   sync.Mutex
	cond *sync.Cond // broadcast on every job state or result change
	jobs map[string]*job
	ids  []string // submission order, for stable listings
	next int
	// draining: admission closed; queue closed once, by Drain.
	draining bool

	queue    chan *job
	execDone chan struct{} // closed when the executor goroutine exits
}

// New builds a Server and starts its executor goroutine.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		jobs:     make(map[string]*job),
		queue:    make(chan *job, cfg.queueLimit()),
		execDone: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.execute()
	return s
}

// Submit validates the request, expands its grid (so malformed sweeps —
// unknown names, bad versions, duplicate cell labels — fail here, before a
// job id exists), gives the job its ledger, and enqueues local jobs, which
// execute in submission order.
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	if req.Version != 0 && req.Version != spec.WireVersion {
		return JobStatus{}, &spec.ErrUnsupportedVersion{Kind: "job", Got: req.Version}
	}
	if req.Mode != "" && req.Mode != ModeCoordinator {
		return JobStatus{}, fmt.Errorf("unknown job mode %q (want empty or %q)", req.Mode, ModeCoordinator)
	}
	if req.LeaseSeconds < 0 {
		return JobStatus{}, fmt.Errorf("lease_seconds must be >= 0, got %d", req.LeaseSeconds)
	}
	cells, err := req.Sweep.Cells()
	if err != nil {
		return JobStatus{}, err
	}
	j := &job{
		name:    req.Name,
		mode:    req.Mode,
		sweep:   req.Sweep,
		cells:   cells,
		trials:  max(req.Sweep.Trials, 1),
		created: time.Now().UTC(),
		state:   Queued,
	}
	if req.Mode == ModeCoordinator {
		// Workers build their own cells, so the built-size duplicate check
		// of a local job's BuildCells runs here; only an n axis can trip it.
		if len(req.Sweep.Ns) > 1 {
			if _, err := req.Sweep.BuildCells(context.TODO(), s.cfg.Engine, cells); err != nil {
				return JobStatus{}, err
			}
		}
		if j.specHash, err = req.Sweep.Hash(); err != nil {
			return JobStatus{}, err
		}
		j.lease = defaultLease
		if req.LeaseSeconds > 0 {
			j.lease = time.Duration(req.LeaseSeconds) * time.Second
		}
		// Claimable at once, beside whatever the executor runs.
		j.state = Running
	}
	j.ledger, err = engine.NewLedger(len(cells), j.trials, s.cfg.Stream, func(c int, sum *engine.TrialSummary) {
		s.appendLine(j, CellLine{Cell: c, Label: cells[c].Label, Summary: spec.FormatSummary(sum)})
	})
	if err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	s.next++
	j.id = fmt.Sprintf("job-%06d", s.next)
	j.ctx, j.cancel = context.WithCancel(context.Background()) // released by finish
	if j.state == Queued {
		select {
		case s.queue <- j:
		default:
			j.cancel()
			s.next-- // id not spent
			return JobStatus{}, ErrQueueFull
		}
		mJobsQueued.Add(1)
	} else {
		mJobsRunning.Add(1)
	}
	s.jobs[j.id] = j
	s.ids = append(s.ids, j.id)
	mJobsSubmitted.Inc()
	s.cond.Broadcast()
	return j.status(), nil
}

// appendLine is a job ledger's onCell. Lines of a terminal job are final,
// so one arriving after Cancel or Drain is dropped.
func (s *Server) appendLine(j *job, line CellLine) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.results = append(j.results, line)
	mCellsStreamed.Inc()
	s.cond.Broadcast()
}

// finish ends a live job — the one place a job turns terminal, whatever its
// mode and whoever ends it — interrupting a local drain and dropping the
// ledger. s.mu must be held; a terminal job is left as it is.
func (s *Server) finish(j *job, final State, msg string) {
	switch j.state {
	case Queued:
		mJobsQueued.Add(-1)
	case Running:
		mJobsRunning.Add(-1)
	default:
		return
	}
	j.state, j.err = final, msg
	j.ledger = nil
	j.cancel()
	mCompleted[final].Inc()
	s.cond.Broadcast()
}

// lookup finds a job by id; s.mu must be held.
func (s *Server) lookup(id string) (*job, error) {
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
}

// Get returns the status snapshot of one job.
func (s *Server) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// List returns every job's status in submission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.ids))
	for _, id := range s.ids {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel ends a live job at once, queued or running, local or coordinator,
// keeping its already-streamed cells; a local job's pool stops within one
// trial. Cancelling a terminal job returns its unchanged status.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	s.finish(j, Cancelled, "")
	return j.status(), nil
}

// StreamResults delivers a job's result lines to emit in cell order,
// starting at index from: lines already present are emitted immediately,
// later ones as their cells complete, until the job reaches a terminal
// state and every line has been delivered. It returns the job's final
// status. It unblocks with ctx's error when the caller's context ends
// first, and stops (returning the emit error) if emit fails — the
// disconnected-client path. Any number of streams may run concurrently.
func (s *Server) StreamResults(ctx context.Context, id string, from int, emit func(CellLine) error) (JobStatus, error) {
	if from < 0 {
		from = 0
	}
	// cond.Wait cannot watch a context, so a context-end wakes all waiters;
	// the loop re-checks ctx after every wake.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	for {
		s.mu.Lock()
		j, err := s.lookup(id)
		if err != nil {
			s.mu.Unlock()
			return JobStatus{}, err
		}
		for len(j.results) <= from && !j.state.Terminal() && ctx.Err() == nil {
			s.cond.Wait()
		}
		lines := append([]CellLine(nil), j.results[min(from, len(j.results)):]...)
		st := j.status()
		s.mu.Unlock()

		for _, line := range lines {
			if err := emit(line); err != nil {
				return st, err
			}
		}
		from += len(lines)
		if st.State.Terminal() && from >= st.CellsCompleted {
			return st, nil
		}
		if err := ctx.Err(); err != nil {
			return st, err
		}
	}
}

// execute is the single executor goroutine: local jobs run strictly one at
// a time, so every job gets the whole shared pool and per-cell results are
// reproducible independent of what else is queued.
func (s *Server) execute() {
	defer close(s.execDone)
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob builds a local job's cells and drains its ledger on the pool.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != Queued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	j.state = Running
	l := j.ledger
	mJobsQueued.Add(-1)
	mJobsRunning.Add(1)
	s.cond.Broadcast()
	s.mu.Unlock()

	built, err := j.sweep.BuildCells(j.ctx, s.cfg.Engine, j.cells)
	if err == nil {
		err = l.Drain(j.ctx, built, s.cfg.Engine, nil)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.finish(j, Done, "")
	case errors.Is(err, context.Canceled):
		s.finish(j, Cancelled, "")
	default:
		s.finish(j, Failed, err.Error())
	}
}

// Drain shuts the server down gracefully: admission stops (Submit returns
// ErrDraining), every live job ends cancelled with its streamed cells kept,
// and Drain waits for the executor goroutine to exit — or for ctx to end
// first, returning ctx's error. Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // executor exits after skipping the jobs already queued
		for _, j := range s.jobs {
			s.finish(j, Cancelled, "")
		}
	}
	s.mu.Unlock()

	select {
	case <-s.execDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close is Drain with no deadline: it returns once the executor has
// exited.
func (s *Server) Close() {
	_ = s.Drain(context.Background())
}
