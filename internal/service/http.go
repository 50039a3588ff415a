// HTTP front end: the versioned v1 job API.
//
//	POST   /v1/jobs              submit a JobRequest envelope  → 201 JobStatus
//	GET    /v1/jobs              list jobs                     → 200 [JobStatus]
//	GET    /v1/jobs/{id}         job status                    → 200 JobStatus
//	DELETE /v1/jobs/{id}         cancel (idempotent)           → 200 JobStatus
//	GET    /v1/jobs/{id}/results stream per-cell results       → 200 ndjson/SSE
//	GET    /v1/healthz           liveness + drain state        → 200/503
//	GET    /metrics              Prometheus text exposition    → 200
//
// Results stream as JSON lines (application/x-ndjson), one CellLine per
// finished cell in cell order, terminated by a {"done":true,...} line with
// the job's final state; with `Accept: text/event-stream` the same payloads
// go out as SSE `cell` and `done` events. `?from=K` resumes mid-stream.
// Errors are {"error":"..."} JSON; typed spec/service errors map to 400
// (invalid spec or version), 404 (unknown job), 429 (queue full), and 503
// (draining).
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dualgraph/internal/metrics"
)

// maxRequestBody bounds POST bodies (a sweep envelope is small; 4 MiB is
// generous even for very wide hand-written grids).
const maxRequestBody = 4 << 20

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("POST /v1/jobs/{id}/shards/claim", s.handleClaim)
	mux.HandleFunc("POST /v1/jobs/{id}/shards/report", s.handleReport)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.Handle("GET /metrics", metrics.Handler())
	return mux
}

// writeJSON writes one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError maps typed errors to status codes and renders them as
// {"error":"..."} JSON. Anything untyped — invalid specs and versions,
// unknown names, refused shard reports — is the caller's fault: 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrUnknownJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotCoordinator), errors.Is(err, ErrJobNotRunning):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("decode job request: %w", err))
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// doneLine terminates a results stream: the job's final state once every
// cell line has been delivered.
type doneLine struct {
	Done           bool   `json:"done"`
	State          State  `json:"state"`
	Cells          int    `json:"cells"`
	CellsCompleted int    `json:"cells_completed"`
	Error          string `json:"error,omitempty"`
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from := 0
	if f := r.URL.Query().Get("from"); f != "" {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			writeError(w, fmt.Errorf("bad from value %q: want a non-negative integer", f))
			return
		}
		from = v
	}
	// Existence check before committing to a streaming response, so unknown
	// jobs get a clean 404.
	if _, err := s.Get(id); err != nil {
		writeError(w, err)
		return
	}

	sse := r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}

	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	emit := func(event string, v any) error {
		if sse {
			if _, err := fmt.Fprintf(w, "event: %s\ndata: ", event); err != nil {
				return err
			}
			if err := enc.Encode(v); err != nil { // Encode appends the \n
				return err
			}
			if _, err := fmt.Fprint(w, "\n"); err != nil {
				return err
			}
		} else if err := enc.Encode(v); err != nil {
			return err
		}
		flush()
		return nil
	}

	st, err := s.StreamResults(r.Context(), id, from, func(line CellLine) error {
		return emit("cell", line)
	})
	if err != nil {
		// Mid-stream failure (client gone, request context ended): the
		// response is already committed, nothing useful can be written.
		return
	}
	_ = emit("done", doneLine{
		Done:           true,
		State:          st.State,
		Cells:          st.Cells,
		CellsCompleted: st.CellsCompleted,
		Error:          st.Error,
	})
}

// handleClaim leases the next claimable (cell, shard) unit of a coordinator
// job to the calling worker: 200 with a Claim body, or 204 when nothing is
// claimable right now (poll the job status to distinguish "all leased" from
// "job finished"). Non-coordinator jobs get 409.
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	claim, ok, err := s.ClaimShard(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, claim)
}

// handleReport accepts a worker's completed unit: 200 with the job's status
// snapshot (also for idempotent duplicates), 400 for summaries that do not
// decode or that the ledger refuses, 409 once the job is no longer running.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var rep Report
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		writeError(w, fmt.Errorf("decode shard report: %w", err))
		return
	}
	st, err := s.ReportShard(r.PathValue("id"), rep)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// healthBody is the /v1/healthz response: liveness plus a small operational
// snapshot. The 200/503 split (ok/draining) is the machine-readable signal;
// the body is for humans and dashboards.
type healthBody struct {
	Status        string  `json:"status"`
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	body := healthBody{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	for _, j := range s.jobs {
		switch j.state {
		case Queued:
			body.Queued++
		case Running:
			body.Running++
		}
	}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	writeJSON(w, http.StatusOK, body)
}
