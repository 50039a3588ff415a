// Package service is the long-running sweep service behind cmd/dgsimd: a
// job manager that accepts declarative spec.Sweep jobs over a versioned
// envelope, executes them one at a time on one shared deterministic grid
// pool (engine.RunGrid via spec.Sweep.Run), supports
// per-job cancellation at (cell, shard) granularity, and streams per-cell
// summary lines — rendered by the same spec.FormatSummary the CLI uses, so
// a job's streamed results are byte-identical to `dgsim -spec` output for
// the same sweep — to any number of concurrent readers as cells complete.
//
// Lifecycle: Submit validates and enqueues (queued) → the single executor
// goroutine picks the job up (running) → the job ends done, failed, or
// cancelled. Cancel flips a queued job straight to cancelled and interrupts
// a running job's context; already-completed cells of a cancelled job
// remain final. Drain stops admission, cancels everything outstanding, and
// waits for the executor to exit, so a drained server holds no goroutines.
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
	id      string
	name    string
	sweep   spec.Sweep
	cells   []spec.Cell
	trials  int
	created time.Time

	state   State
	err     string
	results []CellLine
	cancel  context.CancelFunc // non-nil exactly while running on the local engine
	coord   *coordination      // non-nil exactly for coordinator jobs
}

func (j *job) status() JobStatus {
	mode := ""
	if j.coord != nil {
		mode = ModeCoordinator
	}
	return JobStatus{
		ID:             j.id,
		Name:           j.name,
		State:          j.state,
		Cells:          len(j.cells),
		CellsCompleted: len(j.results),
		Trials:         j.trials,
		Mode:           mode,
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
	baseCtx  context.Context // parent of every job context
	baseStop context.CancelFunc
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
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	go s.execute()
	return s
}

// Submit validates the request, expands its grid (so malformed sweeps —
// unknown names, bad versions, duplicate cell labels — fail here, before a
// job id exists), and enqueues the job. Jobs execute in submission order.
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
	trials := req.Sweep.Trials
	if trials <= 0 {
		trials = 1
	}
	var coord *coordination
	if req.Mode == ModeCoordinator {
		coord, err = newCoordination(req.Sweep, len(cells), trials, s.cfg.Stream, req.LeaseSeconds)
		if err != nil {
			return JobStatus{}, err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	s.next++
	j := &job{
		id:      fmt.Sprintf("job-%06d", s.next),
		name:    req.Name,
		sweep:   req.Sweep,
		cells:   cells,
		trials:  trials,
		created: time.Now().UTC(),
		state:   Queued,
		coord:   coord,
	}
	if coord != nil {
		// Coordinator jobs never enter the executor queue: the work happens
		// on remote workers, so the job is claimable — Running — at once and
		// local jobs keep executing beside it.
		j.state = Running
	} else {
		select {
		case s.queue <- j:
		default:
			s.next-- // id not spent
			return JobStatus{}, ErrQueueFull
		}
	}
	s.jobs[j.id] = j
	s.ids = append(s.ids, j.id)
	mJobsSubmitted.Inc()
	if coord != nil {
		mJobsRunning.Add(1)
	} else {
		mJobsQueued.Add(1)
	}
	s.cond.Broadcast()
	return j.status(), nil
}

// Get returns the status snapshot of one job.
func (s *Server) Get(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
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

// Cancel stops a job: a queued job flips straight to cancelled (the
// executor will skip it), a running job has its context cancelled — the
// pool stops within one shard boundary and the job ends cancelled, keeping
// every already-streamed cell. Cancelling a terminal job is a no-op that
// returns its (unchanged) status.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	switch j.state {
	case Queued:
		j.state = Cancelled
		mJobsQueued.Add(-1)
		jobCompleted(Cancelled)
		s.cond.Broadcast()
	case Running:
		if j.coord != nil {
			// No local execution to interrupt: the ledger simply stops
			// accepting claims and reports.
			j.state = Cancelled
			mJobsRunning.Add(-1)
			jobCompleted(Cancelled)
			s.cond.Broadcast()
		} else {
			j.cancel() // executor publishes the terminal state
		}
	}
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
		j, ok := s.jobs[id]
		if !ok {
			s.mu.Unlock()
			return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
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

// execute is the single executor goroutine: jobs run strictly one at a
// time, so every job gets the whole shared pool and per-cell results are
// reproducible independent of what else is queued.
func (s *Server) execute() {
	defer close(s.execDone)
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	s.mu.Lock()
	if j.state != Queued { // cancelled while queued
		s.mu.Unlock()
		return
	}
	j.state = Running
	j.cancel = cancel
	mJobsQueued.Add(-1)
	mJobsRunning.Add(1)
	s.cond.Broadcast()
	s.mu.Unlock()

	_, err := j.sweep.Run(ctx, s.cfg.Engine, s.cfg.Stream, spec.Hooks{
		OnCell: func(cr spec.CellResult) {
			line := CellLine{Cell: cr.Cell.Index, Label: cr.Cell.Label, Summary: spec.FormatSummary(cr.Summary)}
			s.mu.Lock()
			j.results = append(j.results, line)
			mCellsStreamed.Inc()
			s.cond.Broadcast()
			s.mu.Unlock()
		},
	})

	s.mu.Lock()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = Done
	case errors.Is(err, context.Canceled):
		j.state = Cancelled
	default:
		j.state = Failed
		j.err = err.Error()
	}
	mJobsRunning.Add(-1)
	jobCompleted(j.state)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Drain shuts the server down gracefully: admission stops (Submit returns
// ErrDraining), queued jobs flip to cancelled, the running job's context is
// cancelled — its claimed shards finish and its completed cells stay
// streamed — and Drain waits for the executor goroutine to exit, or for ctx
// to end first (returning ctx's error with the executor still winding
// down). Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // executor exits after the jobs already queued
		for _, id := range s.ids {
			j := s.jobs[id]
			if j.state == Queued || (j.state == Running && j.coord != nil) {
				if j.state == Queued {
					mJobsQueued.Add(-1)
				} else {
					mJobsRunning.Add(-1)
				}
				j.state = Cancelled
				jobCompleted(Cancelled)
			}
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	// Cancel the running job (if any) through the shared parent, after
	// queued jobs were flipped so none of them starts.
	s.baseStop()

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
