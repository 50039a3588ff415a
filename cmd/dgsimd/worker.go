// Worker mode (`dgsimd -worker`): instead of serving jobs, the process
// attaches to a coordinator's job and drains its (cell, shard) unit pool —
// claim, fold the unit's trial range through the engine's per-shard inner
// loop, report the serialized accumulator, repeat. Any number of workers may
// attach; each unit's accumulator is bit-identical to the one a local run
// would have produced, so the coordinator's merged output does not depend on
// how many workers ran or which of them died.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"dualgraph/internal/engine"
	"dualgraph/internal/service"
)

// errJobOver signals that the coordinator's job reached a terminal state:
// the worker's cue to exit cleanly.
var errJobOver = errors.New("job is terminal")

// runWorker is the worker-mode main loop. It returns nil when the job ends
// (in any terminal state) or when ctx is cancelled — an interrupted worker
// simply stops claiming, and its in-flight lease expires back into the pool.
func runWorker(ctx context.Context, logger *log.Logger, coordinator, jobID string, poll time.Duration) error {
	base := strings.TrimRight(coordinator, "/") + "/v1/jobs/" + jobID
	client := &http.Client{Timeout: 30 * time.Second}
	folded := 0
	for ctx.Err() == nil {
		claim, err := claimUnit(ctx, client, base)
		if errors.Is(err, errJobOver) {
			break
		}
		if err != nil {
			return err
		}
		if claim == nil {
			// Every remaining unit is leased elsewhere; the job status poll in
			// claimUnit said the job is still running, so check back shortly.
			select {
			case <-ctx.Done():
			case <-time.After(poll):
			}
			continue
		}
		blob, err := foldUnit(ctx, *claim)
		if err != nil {
			if ctx.Err() != nil {
				break // interrupted mid-fold; the lease returns the unit
			}
			return fmt.Errorf("unit (%d, %d): %w", claim.Cell, claim.Shard, err)
		}
		err = reportUnit(ctx, client, base, service.Report{Cell: claim.Cell, Shard: claim.Shard, Summary: blob})
		if errors.Is(err, errJobOver) {
			break
		}
		if err != nil {
			return err
		}
		folded++
		logger.Printf("folded (%d, %d) %s trials [%d, %d)", claim.Cell, claim.Shard, claim.Label, claim.TrialLo, claim.TrialHi)
	}
	logger.Printf("worker done: folded %d units of %s", folded, jobID)
	return nil
}

// claimUnit asks the coordinator for the next unit. nil with no error means
// nothing is claimable right now but the job is still running; errJobOver
// means the job ended.
func claimUnit(ctx context.Context, client *http.Client, base string) (*service.Claim, error) {
	var c service.Claim
	switch code, err := call(ctx, client, http.MethodPost, base+"/shards/claim", nil, &c); code {
	case http.StatusOK:
		if err != nil {
			return nil, fmt.Errorf("claim: %w", err)
		}
		return &c, nil
	case http.StatusNoContent:
		// All leased, or all done: the job status tells which.
		var st service.JobStatus
		if _, err := call(ctx, client, http.MethodGet, base, nil, &st); err != nil {
			return nil, fmt.Errorf("status: %w", err)
		}
		if st.State.Terminal() {
			return nil, errJobOver
		}
		return nil, nil
	case http.StatusConflict:
		return nil, errJobOver
	default:
		return nil, fmt.Errorf("claim: %w", err)
	}
}

// foldUnit reproduces the claimed unit bit-exactly: build the scenario, run
// its trial range through engine.FoldShardContext with the claim's stream
// configuration, and serialize the accumulator.
func foldUnit(ctx context.Context, c service.Claim) ([]byte, error) {
	b, err := c.Scenario.Build()
	if err != nil {
		return nil, err
	}
	sum, err := engine.FoldShardContext(ctx, b.Trial, c.TrialLo, c.TrialHi,
		engine.StreamConfig{Quantiles: c.Quantiles, ExactK: c.ExactK})
	if err != nil {
		return nil, err
	}
	return sum.MarshalBinary()
}

// reportUnit delivers a folded unit; a 409 means the job ended while we were
// folding (errJobOver), which is a clean exit, not a failure.
func reportUnit(ctx context.Context, client *http.Client, base string, rep service.Report) error {
	code, err := call(ctx, client, http.MethodPost, base+"/shards/report", rep, nil)
	if code == http.StatusConflict {
		return errJobOver
	}
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}

// call sends one API request, JSON-encoding body when it is non-nil, and
// decodes a 200 response into out when it is non-nil. Any other status is
// returned with an error carrying the server's {"error": ...} body when
// present, else the bare status.
func call(ctx context.Context, client *http.Client, method, url string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s (%s)", e.Error, resp.Status)
		}
		return resp.StatusCode, errors.New(resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode: %w", err)
		}
	}
	return resp.StatusCode, nil
}
