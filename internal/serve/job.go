package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/sim"
)

// JobSpec is the body of POST /v1/jobs. Exactly one of Cells or
// Experiments must be set: a batch of individual simulation cells, or a
// list of registered experiment ids ("all" expands to every id).
type JobSpec struct {
	Cells       []CellSpec `json:"cells,omitempty"`
	Experiments []string   `json:"experiments,omitempty"`
	// Scale is the workload scale, "paper" (default) or "small".
	Scale string `json:"scale,omitempty"`
	// TimeoutMS caps the job's run time; 0 uses the server default.
	// Admission rejects values below 0 or above maxTimeoutMS, the
	// largest count of milliseconds a time.Duration holds.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// maxTimeoutMS is the largest TimeoutMS that converts to a
// time.Duration without overflow (about 292 years).
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// CellSpec names one simulation cell. The zero-config shortcuts cover
// the common sweep axes; Config, when set, overrides them with a full
// machine description.
type CellSpec struct {
	Workload string `json:"workload"`
	// Scale overrides the job's scale for this cell.
	Scale string `json:"scale,omitempty"`
	// TLB is the CPU TLB entry count (0 = the default 96).
	TLB int `json:"tlb,omitempty"`
	// MTLB enables a memory-controller TLB with this many entries.
	MTLB int `json:"mtlb,omitempty"`
	// Ways is the MTLB associativity (0 = the default 2).
	Ways int `json:"ways,omitempty"`
	// Scheme selects the MMC translation backend for MTLB-fitted cells
	// ("" = the paper's MTLB); unknown names are rejected at admission.
	Scheme string `json:"scheme,omitempty"`
	// Config, when non-nil, is the complete machine configuration and
	// the shortcuts above are ignored.
	Config *sim.Config `json:"config,omitempty"`
}

// cell resolves the spec into an executable cell. defScheme is the
// server's default translation backend, applied when a shortcut spec
// leaves Scheme unset; a full Config is taken verbatim.
func (cs CellSpec) cell(def exp.Scale, defScheme string) (exp.Cell, error) {
	s := def
	if cs.Scale != "" {
		var err error
		if s, err = exp.ParseScale(cs.Scale); err != nil {
			return exp.Cell{}, err
		}
	}
	if !exp.HasWorkload(cs.Workload) {
		return exp.Cell{}, fmt.Errorf("unknown workload %q", cs.Workload)
	}
	var cfg sim.Config
	if cs.Config != nil {
		cfg = *cs.Config
		if cfg.DRAMBytes == 0 {
			return exp.Cell{}, fmt.Errorf("cell config for %q has zero DRAM", cs.Workload)
		}
		if !core.HasScheme(cfg.Scheme) {
			return exp.Cell{}, fmt.Errorf("cell config for %q: %w", cs.Workload, schemeError(cfg.Scheme))
		}
	} else {
		cfg = sim.Default()
		if cs.TLB > 0 {
			cfg = cfg.WithTLB(cs.TLB)
		}
		if cs.MTLB > 0 {
			ways := cs.Ways
			if ways <= 0 {
				ways = 2
			}
			cfg = cfg.WithMTLB(core.MTLBConfig{Entries: cs.MTLB, Ways: ways})
		}
		scheme := cs.Scheme
		if scheme == "" {
			scheme = defScheme
		}
		if !core.HasScheme(scheme) {
			return exp.Cell{}, schemeError(scheme)
		}
		cfg = cfg.WithScheme(scheme)
	}
	return exp.NewCell(cfg, cs.Workload, s), nil
}

// schemeError builds the admission error for an unregistered scheme,
// reusing the registry's canonical message so flags and the API agree.
func schemeError(scheme string) error {
	_, err := core.NewTranslator(scheme, core.MTLBConfig{}, core.TranslatorDeps{})
	return err
}

// JobState is a job's lifecycle position.
type JobState string

// Job states. Queued and running are live; the rest are terminal.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress tracks a job's per-cell completion.
type Progress struct {
	CellsTotal int `json:"cells_total"`
	CellsDone  int `json:"cells_done"`
	// CacheHits counts cells served from the daemon's result cache
	// instead of simulated for this job.
	CacheHits int `json:"cache_hits"`
}

// JobStatus is the GET /v1/jobs/{id} document.
type JobStatus struct {
	ID       string     `json:"id"`
	State    JobState   `json:"state"`
	Error    string     `json:"error,omitempty"`
	Spec     JobSpec    `json:"spec"`
	Progress Progress   `json:"progress"`
	Result   *JobResult `json:"result,omitempty"`
}

// JobResult is a completed job's payload.
type JobResult struct {
	Cells       []CellResult        `json:"cells,omitempty"`
	Experiments []ExperimentResult  `json:"experiments,omitempty"`
	Manifest    *runner.RunManifest `json:"manifest,omitempty"`
}

// CellResult pairs one requested cell with its measurements.
type CellResult struct {
	Key      string     `json:"key"`
	Label    string     `json:"label"`
	Workload string     `json:"workload"`
	Result   sim.Result `json:"result"`
}

// ExperimentResult carries one experiment's rendered tables. Text and
// CSV are the exact strings local mtlbexp would print, so a client can
// reproduce local output byte for byte.
type ExperimentResult struct {
	ID     string          `json:"id"`
	Tables []RenderedTable `json:"tables"`
}

// RenderedTable is one table in both output encodings.
type RenderedTable struct {
	Text string `json:"text"`
	CSV  string `json:"csv"`
}

// Event is one NDJSON line of GET /v1/jobs/{id}/events.
type Event struct {
	// Type is queued, started, cell, done, failed or canceled.
	Type  string `json:"type"`
	JobID string `json:"job_id"`

	// Cell completions.
	Key      string `json:"key,omitempty"`
	Label    string `json:"label,omitempty"`
	Workload string `json:"workload,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	WallNS   int64  `json:"wall_ns,omitempty"`

	CellsDone  int `json:"cells_done,omitempty"`
	CellsTotal int `json:"cells_total,omitempty"`

	Error string `json:"error,omitempty"`
}

// Job is one admitted request moving through the queue and worker pool.
type Job struct {
	id        string
	spec      JobSpec
	submitted time.Time // admission instant, for queue-wait telemetry

	mu       sync.Mutex
	state    JobState
	err      error
	result   *JobResult
	progress Progress
	events   []Event
	wake     chan struct{} // closed and replaced on every event append
	cancel   context.CancelFunc
	done     chan struct{} // closed on entering a terminal state
}

// newJob returns a queued job with its admission event recorded.
func newJob(id string, spec JobSpec) *Job {
	j := &Job{
		id:        id,
		spec:      spec,
		submitted: time.Now(),
		state:     StateQueued,
		wake:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	j.append(Event{Type: "queued", JobID: id})
	return j
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// append records an event and wakes streaming subscribers. Callers must
// not hold j.mu.
func (j *Job) append(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
	j.mu.Unlock()
}

// eventsSince returns a copy of the events from index i on, the channel
// that signals the next append, and whether the job is terminal.
func (j *Job) eventsSince(i int) (evs []Event, wake <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.events) {
		evs = append(evs, j.events[i:]...)
	}
	return evs, j.wake, j.state.Terminal()
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		State:    j.state,
		Spec:     j.spec,
		Progress: j.progress,
		Result:   j.result,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setCancel installs the running job's cancel function.
func (j *Job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
}

// Cancel requests cancellation of a running job; queued cells are
// dropped, in-flight simulations complete, and the job finishes in
// state canceled. Canceling a queued job takes effect when an executor
// picks it up. No-op on a terminal job.
func (j *Job) Cancel() {
	j.mu.Lock()
	canceled := j.cancel
	if !j.state.Terminal() {
		j.err = context.Canceled
	}
	j.mu.Unlock()
	if canceled != nil {
		canceled()
	}
}

// canceledEarly reports whether Cancel arrived before the job ran.
func (j *Job) canceledEarly() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err != nil && j.state == StateQueued
}

// start moves the job to running.
func (j *Job) start(total int) {
	j.mu.Lock()
	j.state = StateRunning
	j.progress.CellsTotal = total
	j.mu.Unlock()
	j.append(Event{Type: "started", JobID: j.id, CellsTotal: total})
}

// cellDone records one distinct cell completion.
func (j *Job) cellDone(ev runner.CellEvent) {
	j.mu.Lock()
	j.progress.CellsDone++
	if ev.Cached {
		j.progress.CacheHits++
	}
	done, total := j.progress.CellsDone, j.progress.CellsTotal
	j.mu.Unlock()
	j.append(Event{
		Type: "cell", JobID: j.id,
		Key: ev.Key, Label: ev.Label, Workload: ev.Workload,
		Cached: ev.Cached, WallNS: ev.WallNS,
		CellsDone: done, CellsTotal: total,
	})
}

// finish moves the job to a terminal state and emits the final event.
// The state change and the event append happen under one lock section,
// so a streamer never observes a terminal state without its final
// event.
func (j *Job) finish(res *JobResult, err error) {
	state := terminalState(err)
	ev := Event{JobID: j.id, Type: string(state)}
	if err != nil {
		ev.Error = err.Error()
	}
	j.mu.Lock()
	j.state = state
	if err == nil {
		j.result = res
	} else {
		j.err = err
	}
	ev.CellsDone = j.progress.CellsDone
	ev.CellsTotal = j.progress.CellsTotal
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
	j.mu.Unlock()
	close(j.done)
}

// terminalState is the state a job ends in when its run returns err.
func terminalState(err error) JobState {
	switch {
	case err == nil:
		return StateDone
	case isCancellation(err):
		return StateCanceled
	default:
		return StateFailed
	}
}

// isCancellation reports whether err stems from a canceled or expired
// job context rather than a simulation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
