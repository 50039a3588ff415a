// Coordinator mode: a job whose ledger is drained by remote dgsimd workers
// instead of the local pool. Workers claim the lowest claimable unit over
// the v1 job API, fold it through engine.FoldShardContext — the local
// pool's per-unit fold — and report the serialized accumulator; the ledger
// merges and delivers exactly as for a local job, so the lines match
// `dgsim -spec` whatever the number, order or deaths of workers.
//
// Worker death costs progress, never correctness: a unit whose lease
// expired unreported becomes claimable again (lazy expiry — no timers), and
// reports are idempotent, so a slow worker reporting a unit re-run
// elsewhere gets a friendly "already done".
package service

import (
	"errors"
	"fmt"
	"time"

	"dualgraph/internal/engine"
	"dualgraph/internal/spec"
)

// ModeCoordinator marks a JobRequest whose work units are executed by remote
// workers rather than the local engine.
const ModeCoordinator = "coordinator"

// defaultLease is the claim lease duration when the request does not set
// one. Long enough for any realistic shard, short enough that a dead
// worker's units return to the pool quickly.
const defaultLease = 60 * time.Second

// Typed coordinator errors; the HTTP layer maps them to status codes.
var (
	// ErrNotCoordinator reports a shard claim/report against a job that runs
	// on the local engine.
	ErrNotCoordinator = errors.New("service: job does not use remote workers")
	// ErrJobNotRunning reports a shard claim/report against a job that has
	// already reached a terminal state.
	ErrJobNotRunning = errors.New("service: job is not running")
)

// Claim is the coordinator's answer to a successful shard claim: everything
// a worker needs to reproduce the unit bit-exactly — the fully specified
// cell scenario, the trial range, the stream statistics configuration, and
// the sweep identity it must echo back implicitly by folding exactly these
// trials.
type Claim struct {
	// Cell and Shard name the claimed unit.
	Cell  int `json:"cell"`
	Shard int `json:"shard"`
	// TrialLo and TrialHi delimit the unit's half-open trial range.
	TrialLo int `json:"trial_lo"`
	TrialHi int `json:"trial_hi"`
	// Scenario is the cell's fully specified scenario.
	Scenario spec.Scenario `json:"scenario"`
	// Label is the cell's grid label (for worker logs).
	Label string `json:"label"`
	// Quantiles and ExactK are the stream configuration the accumulator must
	// be built with.
	Quantiles []float64 `json:"quantiles,omitempty"`
	ExactK    int       `json:"exact_k,omitempty"`
	// SpecHash identifies the sweep (workers may log or cross-check it).
	SpecHash string `json:"spec_hash"`
	// LeaseSeconds is how long the claim is held before the unit returns to
	// the pool.
	LeaseSeconds int `json:"lease_seconds"`
}

// Report is a worker's completed unit: the claimed identity plus the
// serialized accumulator (engine.TrialSummary encoding, base64 in JSON).
type Report struct {
	Cell    int    `json:"cell"`
	Shard   int    `json:"shard"`
	Summary []byte `json:"summary"`
}

// remoteJob looks up a running coordinator job; s.mu must be held.
func (s *Server) remoteJob(id string) (*job, error) {
	j, err := s.lookup(id)
	switch {
	case err != nil:
		return nil, err
	case j.mode != ModeCoordinator:
		return nil, fmt.Errorf("%w (%q)", ErrNotCoordinator, id)
	case j.state != Running:
		return nil, fmt.Errorf("%w (%q is %s)", ErrJobNotRunning, id, j.state)
	}
	return j, nil
}

// ClaimShard leases the lowest claimable unit of a coordinator job to a
// worker. A unit is claimable when never claimed, or when leased past its
// deadline — lazy lease expiry, which is how a dead worker's unit returns
// to the pool. ok is false when nothing is claimable right now (every
// remaining unit is actively leased, or the job is complete); workers poll
// the job status to tell the two apart.
func (s *Server) ClaimShard(id string) (Claim, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, err := s.remoteJob(id)
	if err != nil {
		return Claim{}, false, err
	}
	u, ok := j.ledger.Claim(j.lease)
	if !ok {
		return Claim{}, false, nil
	}
	if u.Reclaimed {
		mLeaseExpirations.Inc()
	}
	mShardClaims.Inc()
	return Claim{
		Cell: u.Cell, Shard: u.Shard, TrialLo: u.TrialLo, TrialHi: u.TrialHi,
		Scenario:     j.cells[u.Cell].Scenario,
		Label:        j.cells[u.Cell].Label,
		Quantiles:    s.cfg.Stream.Quantiles,
		ExactK:       s.cfg.Stream.ExactK,
		SpecHash:     j.specHash,
		LeaseSeconds: int(j.lease / time.Second),
	}, true, nil
}

// ReportShard records a worker's completed unit. The summary must decode
// and, per the ledger's validation, cover exactly the unit's trial range
// with the server's stream configuration; violations are rejected without
// touching the ledger. Reporting an already-done unit is an acknowledged
// no-op (the idempotency a re-leased unit needs). When the report completes
// a cell, the ledger merges and delivers it — the local path's semantics
// exactly — and once the last line is in, the job ends Done.
func (s *Server) ReportShard(id string, rep Report) (JobStatus, error) {
	s.mu.Lock()
	j, err := s.remoteJob(id)
	if err != nil {
		s.mu.Unlock()
		return JobStatus{}, err
	}
	l := j.ledger
	s.mu.Unlock()
	var sum engine.TrialSummary
	if err := sum.UnmarshalBinary(rep.Summary); err != nil {
		return JobStatus{}, fmt.Errorf("report for (%d, %d): %w", rep.Cell, rep.Shard, err)
	}
	// Unlocked: a completed cell's delivery appends its line under s.mu.
	fresh, _, err := l.Report(engine.ShardKey{Cell: rep.Cell, Shard: rep.Shard}, &sum)
	if errors.Is(err, engine.ErrBadUnit) {
		return JobStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err != nil:
		s.finish(j, Failed, err.Error())
	case !fresh:
		mDuplicateReports.Inc() // from a re-leased unit's first owner
	default:
		mShardReports.Inc()
		if len(j.results) == len(j.cells) { // every line delivered
			s.finish(j, Done, "")
		}
	}
	return j.status(), nil
}
