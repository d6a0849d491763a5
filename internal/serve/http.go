package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Admission errors. Handlers map them onto status codes; embedding
// programs that call Submit directly can test with errors.Is.
var (
	// ErrQueueFull means the bounded admission queue is at capacity;
	// HTTP clients get 429 with Retry-After.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining means the server is shutting down and admission is
	// closed; HTTP clients get 503.
	ErrDraining = errors.New("serve: draining, not accepting jobs")
)

// BadRequestError marks a validation failure (HTTP 400).
type BadRequestError struct{ Err error }

func (e *BadRequestError) Error() string { return e.Err.Error() }
func (e *BadRequestError) Unwrap() error { return e.Err }

// errorBody is the JSON error document every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a JobSpec, get {"id": ...} (202)
//	GET    /v1/jobs/{id}        job status, result inline when done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events NDJSON event stream until terminal
//	GET    /v1/experiments      registered experiment ids
//	GET    /healthz             liveness: 200 while the process serves
//	GET    /readyz              readiness: 200 accepting / 503 draining
//	GET    /metrics             JSON dump, or Prometheus text exposition
//	                            via ?format=prometheus or Accept
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// DecodeJobSpec parses one job-spec document, rejecting unknown fields.
// It is exactly the decoder the submit endpoint runs, factored out so
// the fuzz harness exercises the same code path the API does.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError emits the uniform JSON error document.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxSubmitBytes bounds a POST /v1/jobs body. A cell spec carrying a
// full sim.Config is about 1 KiB of JSON, so 1 MiB holds about a
// thousand of them; experiment jobs send only ids.
const maxSubmitBytes = 1 << 20

// handleSubmit admits a job or rejects it with the admission-control
// status codes: 400 malformed, 413 body over maxSubmitBytes, 429 queue
// full (with Retry-After), 503 draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := DecodeJobSpec(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		var bad *BadRequestError
		switch {
		case errors.As(err, &bad):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		ID string `json:"id"`
	}{ID: j.ID()})
}

// handleStatus returns a job's status document; the result rides along
// once the job is done.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleCancel requests cancellation and returns the (possibly already
// terminal) status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvents streams the job's event log as NDJSON: everything
// recorded so far immediately, then live events until the job reaches a
// terminal state or the client disconnects. Each line is one Event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	start := time.Now()
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	sent := 0
	for {
		evs, wake, terminal := j.eventsSince(next)
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		next += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if sent == 0 && next > 0 {
			// First flushed line: the stream's time to first byte.
			s.mStreamTTFB.Observe(uint64(time.Since(start).Microseconds()))
		}
		sent = next
		if terminal {
			// finish appends the final event and the terminal state in
			// one critical section, so this snapshot is complete.
			return
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

// handleExperiments lists the experiment registry.
func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Experiments())
}

// handleHealthz reports liveness: 200 whenever the process is serving
// at all — including while draining, when in-flight jobs are still
// finishing and status queries must keep working. Orchestrators that
// restart on failed liveness must not kill a draining daemon; gate
// traffic with /readyz instead.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// handleReadyz reports readiness for new work: 200 while admission is
// open, 503 once drain begins — the signal load balancers use to stop
// routing submissions at a daemon that will 503 them anyway.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ready"})
}

// handleMetrics serves the registry in the caller's preferred encoding:
// the JSON dump by default, or the Prometheus text exposition when
// ?format=prometheus is given or the Accept header asks for text/plain
// or OpenMetrics. The explicit query parameter wins over Accept.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.reg.WriteDump(w) //nolint:errcheck // client gone; nothing to do
}

// wantsPrometheus decides the /metrics encoding. Browsers and curl send
// Accept: */* which stays JSON, so existing tooling is unchanged;
// Prometheus scrapers send an explicit text/plain (or OpenMetrics)
// preference.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}
