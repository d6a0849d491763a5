// Package serve is the simulation daemon behind cmd/mtlbd: a long-lived
// service that accepts simulation jobs over HTTP — single cells, whole
// registered experiments, and batch sweeps — schedules them on a
// bounded worker pool layered over internal/exp/runner, and answers
// repeated configurations from a process-lifetime LRU result cache.
//
// The request path is queue → executor → per-job runner.Pool → shared
// semaphore + ResultCache. Admission control is a bounded queue: when
// it is full, POST /v1/jobs returns 429 with Retry-After instead of
// letting work pile up unboundedly. Every job runs under a deadline
// whose cancellation drops its queued cells and releases its worker
// slots; a panicking simulation fails that one job, never the process.
// Drain stops admission, lets every admitted job finish, and leaves the
// status and metrics endpoints serving until the listener closes.
package serve

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"shadowtlb/internal/core"
	"shadowtlb/internal/exp"
	"shadowtlb/internal/exp/runner"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/resultstore"
)

// Config sizes the daemon.
type Config struct {
	// Workers bounds simultaneous cell simulations across every job
	// (0 = GOMAXPROCS).
	Workers int
	// JobWorkers bounds simultaneously executing jobs (0 = 4).
	JobWorkers int
	// QueueCap bounds admitted-but-not-started jobs; a full queue
	// rejects with 429 (0 = 64).
	QueueCap int
	// CacheEntries caps the LRU result cache (0 = 4096).
	CacheEntries int
	// DefaultTimeout is the per-job deadline when the spec has none
	// (0 = 5 minutes).
	DefaultTimeout time.Duration
	// RetainJobs caps terminal job records kept for status queries
	// (0 = 1024). Live jobs are never evicted.
	RetainJobs int
	// DefaultScheme is the translation backend applied to shortcut cell
	// specs that leave scheme unset ("" = the paper's MTLB). It must be
	// a registered scheme; New panics otherwise (a deployment error
	// callers like mtlbd surface before binding a listener).
	DefaultScheme string
	// StoreDir, when set, attaches a persistent result store rooted
	// there as a second cache tier: memory misses consult it before
	// simulating, simulated results are written through, and a daemon
	// restart serves repeat configurations from disk. New panics when
	// the directory cannot be opened (a deployment error, like a bad
	// scheme). Empty keeps the daemon memory-only.
	StoreDir string
	// StoreMaxBytes bounds the persistent store's on-disk size
	// (0 = resultstore.DefaultMaxBytes). Ignored without StoreDir.
	StoreMaxBytes int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.JobWorkers <= 0 {
		c.JobWorkers = 4
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Minute
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 1024
	}
	return c
}

// Server is the daemon: admission queue, job executors, shared worker
// semaphore and result cache, and the HTTP API over them.
type Server struct {
	cfg   Config
	sem   chan struct{}
	cache *ResultCache
	queue chan *Job

	reg         *obs.Registry
	mSubmit     *obs.AtomicCounter
	mRejected   *obs.AtomicCounter
	mDone       *obs.AtomicCounter
	mFailed     *obs.AtomicCounter
	mCanceled   *obs.AtomicCounter
	mCellWall   *obs.AtomicHistogram
	mJobWall    *obs.AtomicHistogram
	mAdmitWait  *obs.AtomicHistogram
	mStreamTTFB *obs.AtomicHistogram
	// mCellScheme holds one wall-time histogram per translation backend
	// ("none" included), pre-registered so the Prometheus family is
	// complete from the first scrape.
	mCellScheme map[string]*obs.AtomicHistogram
	inflight    atomic.Int64

	wg       sync.WaitGroup // job executors
	admitMu  sync.RWMutex
	draining bool

	jobsMu sync.Mutex
	jobs   map[string]*Job
	order  []string // creation order, for retention eviction
	nextID uint64

	// extCache, when set, replaces the plain result cache on job pools
	// (see SetCacheWrapper); nil means jobs use s.cache directly.
	extCache runner.ExternalCache

	// testExec, when set by tests in this package, replaces real job
	// execution with a deterministic stand-in.
	testExec func(ctx context.Context, j *Job) (*JobResult, error)
}

// New assembles a server. Call Start to launch its executors.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if !core.HasScheme(cfg.DefaultScheme) {
		panic(fmt.Sprintf("serve: %v", schemeError(cfg.DefaultScheme)))
	}
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, poolWorkers(cfg.Workers)),
		cache: NewResultCache(cfg.CacheEntries),
		queue: make(chan *Job, cfg.QueueCap),
		reg:   obs.NewRegistry(),
		jobs:  make(map[string]*Job),
	}
	if cfg.StoreDir != "" {
		st, err := resultstore.Open(cfg.StoreDir, resultstore.Options{MaxBytes: cfg.StoreMaxBytes})
		if err != nil {
			panic(fmt.Sprintf("serve: %v", err))
		}
		s.cache.SetStore(st)
	}
	s.mSubmit = s.reg.AtomicCounter("serve.jobs_submitted")
	s.mRejected = s.reg.AtomicCounter("serve.jobs_rejected")
	s.mDone = s.reg.AtomicCounter("serve.jobs_done")
	s.mFailed = s.reg.AtomicCounter("serve.jobs_failed")
	s.mCanceled = s.reg.AtomicCounter("serve.jobs_canceled")
	s.reg.CounterFunc("serve.cache_hits", func() uint64 { h, _ := s.cache.Stats(); return h })
	s.reg.CounterFunc("serve.cache_misses", func() uint64 { _, m := s.cache.Stats(); return m })
	s.reg.GaugeFunc("serve.cache_entries", func() float64 { return float64(s.cache.Len()) })
	s.reg.GaugeFunc("serve.queue_depth", func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("serve.jobs_inflight", func() float64 { return float64(s.inflight.Load()) })
	s.reg.GaugeFunc("serve.workers", func() float64 { return float64(cap(s.sem)) })
	s.mCellWall = s.reg.AtomicHistogram("serve.cell_wall_us")
	s.mJobWall = s.reg.AtomicHistogram("serve.job_wall_us")
	s.mAdmitWait = s.reg.AtomicHistogram("serve.admission_wait_us")
	s.mStreamTTFB = s.reg.AtomicHistogram("serve.stream_ttfb_us")
	s.mCellScheme = make(map[string]*obs.AtomicHistogram)
	for _, scheme := range append(core.SchemeNames(), "none") {
		s.mCellScheme[scheme] = s.reg.AtomicHistogramL("serve.cell_wall_by_scheme_us",
			obs.Label{Key: "scheme", Value: scheme})
	}
	s.reg.CounterFuncL("serve.cache_outcome",
		func() uint64 { st, _, _, _ := s.cache.Counters(); return st },
		obs.Label{Key: "outcome", Value: "hit"})
	s.reg.CounterFuncL("serve.cache_outcome",
		func() uint64 { _, co, _, _ := s.cache.Counters(); return co },
		obs.Label{Key: "outcome", Value: "coalesced"})
	s.reg.CounterFuncL("serve.cache_outcome",
		func() uint64 { _, _, dk, _ := s.cache.Counters(); return dk },
		obs.Label{Key: "outcome", Value: "disk"})
	s.reg.CounterFuncL("serve.cache_outcome",
		func() uint64 { _, _, _, led := s.cache.Counters(); return led },
		obs.Label{Key: "outcome", Value: "miss"})
	s.reg.SetHelp("serve.jobs_submitted", "jobs accepted by admission")
	s.reg.SetHelp("serve.jobs_rejected", "jobs rejected by the full admission queue")
	s.reg.SetHelp("serve.cache_hits", "cell results served without simulating (stored, coalesced or read from the disk store)")
	s.reg.SetHelp("serve.cache_misses", "cell results that led a simulation")
	s.reg.SetHelp("serve.cache_outcome", "cache lookups by outcome: stored hit, coalesced onto an in-flight simulation, served from the persistent disk store, or miss")
	s.reg.SetHelp("serve.queue_depth", "jobs admitted but not yet picked up by an executor")
	s.reg.SetHelp("serve.cell_wall_us", "per-cell wall time across all schemes (µs)")
	s.reg.SetHelp("serve.cell_wall_by_scheme_us", "per-cell wall time by translation backend (µs)")
	s.reg.SetHelp("serve.job_wall_us", "per-job wall time, pickup to terminal state (µs)")
	s.reg.SetHelp("serve.admission_wait_us", "queue wait, admission to executor pickup (µs)")
	s.reg.SetHelp("serve.stream_ttfb_us", "event-stream time to first byte (µs)")
	return s
}

// poolWorkers mirrors runner.New's GOMAXPROCS default without exporting
// it.
func poolWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runner.New(0).Workers()
}

// Start launches the job executors.
func (s *Server) Start() {
	for i := 0; i < s.cfg.JobWorkers; i++ {
		s.wg.Add(1)
		go s.executor()
	}
}

// Workers returns the simulation concurrency bound.
func (s *Server) Workers() int { return cap(s.sem) }

// SetCacheWrapper interposes wrap's return value between job pools and
// the server's result cache — the fault-injection harness wraps the
// cache with panics, stalls and evictions this way. The wrapper is
// built once, so its counters span all jobs. Call before Start.
func (s *Server) SetCacheWrapper(wrap func(runner.ExternalCache) runner.ExternalCache) {
	s.extCache = wrap(s.cache)
}

// Cache exposes the shared result cache, whose counters tests read.
func (s *Server) Cache() *ResultCache { return s.cache }

// Registry exposes the server metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Draining reports whether admission has been closed.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// Drain closes admission — new submissions get 503 — and waits until
// every admitted job has reached a terminal state or ctx expires.
// In-flight and queued jobs run to completion; this is the SIGTERM
// path, so results already promised to clients are never dropped.
// Drain is idempotent; concurrent calls all wait.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.admitMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Submit validates and admits a job. It returns the queued job, or
// ErrDraining when admission is closed, or ErrQueueFull when the
// bounded queue is at capacity.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := s.validate(spec); err != nil {
		return nil, &BadRequestError{Err: err}
	}
	s.admitMu.RLock()
	if s.draining {
		s.admitMu.RUnlock()
		return nil, ErrDraining
	}
	j := newJob(s.newID(), spec)
	select {
	case s.queue <- j:
		s.admitMu.RUnlock()
		s.mSubmit.Inc()
		s.register(j)
		return j, nil
	default:
		s.admitMu.RUnlock()
		s.mRejected.Inc()
		return nil, ErrQueueFull
	}
}

// Job looks up a job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// newID mints a job id.
func (s *Server) newID() string {
	n := atomic.AddUint64(&s.nextID, 1)
	return fmt.Sprintf("job-%06d", n)
}

// register adds the job to the status index, evicting the oldest
// terminal records past the retention cap.
func (s *Server) register(j *Job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.order) > s.cfg.RetainJobs {
		evicted := false
		for i, id := range s.order {
			if old, ok := s.jobs[id]; ok && old.State().Terminal() {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			break // everything retained is still live
		}
	}
}

// validate rejects malformed specs at admission, before any queue slot
// or simulation time is committed.
func (s *Server) validate(spec JobSpec) error {
	hasCells, hasExps := len(spec.Cells) > 0, len(spec.Experiments) > 0
	if hasCells == hasExps {
		return fmt.Errorf("exactly one of cells or experiments must be set")
	}
	if spec.TimeoutMS < 0 || spec.TimeoutMS > maxTimeoutMS {
		return fmt.Errorf("timeout_ms %d out of range [0, %d]", spec.TimeoutMS, maxTimeoutMS)
	}
	scale, err := jobScale(spec)
	if err != nil {
		return err
	}
	for i, cs := range spec.Cells {
		if _, err := cs.cell(scale, s.cfg.DefaultScheme); err != nil {
			return fmt.Errorf("cells[%d]: %w", i, err)
		}
	}
	if _, err := resolveExperiments(spec.Experiments); err != nil {
		return err
	}
	return nil
}

// jobScale parses the spec's scale, defaulting to paper like mtlbexp.
func jobScale(spec JobSpec) (exp.Scale, error) {
	if spec.Scale == "" {
		return exp.Paper, nil
	}
	return exp.ParseScale(spec.Scale)
}

// resolveExperiments expands ids ("all" included) into descriptors.
func resolveExperiments(ids []string) ([]exp.Descriptor, error) {
	var descs []exp.Descriptor
	for _, id := range ids {
		if id == "all" {
			descs = append(descs, exp.Descriptors()...)
			continue
		}
		d, ok := exp.Lookup(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		descs = append(descs, d)
	}
	return descs, nil
}

// executor drains the job queue until Drain closes it.
func (s *Server) executor() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one job under its deadline, isolating any panic to
// this job.
func (s *Server) runJob(j *Job) {
	s.inflight.Add(1)
	start := time.Now()
	s.mAdmitWait.Observe(uint64(start.Sub(j.submitted).Microseconds()))
	// end publishes the job's metrics before its terminal state: a
	// client woken by Done may read /metrics at once, and must find the
	// job counted there.
	end := func(res *JobResult, err error) {
		switch terminalState(err) {
		case StateDone:
			s.mDone.Inc()
		case StateCanceled:
			s.mCanceled.Inc()
		default:
			s.mFailed.Inc()
		}
		s.mJobWall.Observe(uint64(time.Since(start).Microseconds()))
		s.inflight.Add(-1)
		j.finish(res, err)
	}

	if j.canceledEarly() {
		end(nil, context.Canceled)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	j.setCancel(cancel)
	defer cancel()

	end(s.execute(ctx, j))
}

// execute runs the job's cells or experiments on a fresh pool layered
// over the server-wide semaphore and result cache. A panic anywhere in
// the job — a misconfigured bespoke experiment, a bad cell config that
// slipped past validation — becomes this job's error.
func (s *Server) execute(ctx context.Context, j *Job) (res *JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if s.testExec != nil {
		return s.testExec(ctx, j)
	}

	scale, err := jobScale(j.spec)
	if err != nil {
		return nil, err
	}
	pool := runner.NewShared(s.sem)
	if s.extCache != nil {
		pool.UseCache(s.extCache)
	} else {
		pool.UseCache(s.cache)
	}
	pool.SetCellHook(func(ev runner.CellEvent) {
		wallUS := uint64(ev.WallNS) / 1000
		s.mCellWall.Observe(wallUS)
		if h := s.mCellScheme[ev.Scheme]; h != nil {
			h.Observe(wallUS)
		}
		j.cellDone(ev)
	})
	if len(j.spec.Cells) > 0 {
		return s.runCells(ctx, pool, j, scale)
	}
	return s.runExperiments(ctx, pool, j, scale)
}

// runCells executes a batch-sweep job: every distinct cell once, then
// one result per requested spec entry, in request order.
func (s *Server) runCells(ctx context.Context, pool *runner.Pool, j *Job, scale exp.Scale) (*JobResult, error) {
	cells := make([]exp.Cell, len(j.spec.Cells))
	distinct := make(map[string]struct{})
	for i, cs := range j.spec.Cells {
		c, err := cs.cell(scale, s.cfg.DefaultScheme)
		if err != nil {
			return nil, err // unreachable after validate; defensive
		}
		cells[i] = c
		distinct[c.Key()] = struct{}{}
	}
	j.start(len(distinct))
	if err := pool.WarmCtx(ctx, cells); err != nil {
		return nil, err
	}
	out := &JobResult{Cells: make([]CellResult, len(cells))}
	for i, c := range cells {
		r, err := pool.ResultCtx(ctx, c) // memoized after the warm
		if err != nil {
			return nil, err
		}
		out.Cells[i] = CellResult{Key: c.Key(), Label: r.Label, Workload: r.Workload, Result: r}
	}
	return out, nil
}

// runExperiments executes an experiment job and renders its tables in
// both encodings, plus the run manifest.
func (s *Server) runExperiments(ctx context.Context, pool *runner.Pool, j *Job, scale exp.Scale) (*JobResult, error) {
	descs, err := resolveExperiments(j.spec.Experiments)
	if err != nil {
		return nil, err
	}
	distinct := make(map[string]struct{})
	for _, d := range descs {
		if d.Cells != nil {
			for _, c := range d.Cells(scale) {
				distinct[c.Key()] = struct{}{}
			}
		}
	}
	j.start(len(distinct))
	outs, err := pool.RunExperimentsCtx(ctx, descs, scale)
	if err != nil {
		return nil, err
	}
	res := &JobResult{Experiments: make([]ExperimentResult, len(outs))}
	ids := make([]string, len(descs))
	for i, d := range descs {
		ids[i] = d.ID
	}
	for i, out := range outs {
		er := ExperimentResult{ID: out.ID}
		for _, t := range out.Tables {
			er.Tables = append(er.Tables, RenderedTable{Text: t.String(), CSV: t.CSV()})
		}
		res.Experiments[i] = er
	}
	m := pool.Manifest(ids, scale)
	res.Manifest = &m
	return res, nil
}

// ExperimentInfo is one GET /v1/experiments row.
type ExperimentInfo struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	Scaled bool   `json:"scaled"`
}

// Experiments lists the registry in registration order.
func Experiments() []ExperimentInfo {
	ds := exp.Descriptors()
	out := make([]ExperimentInfo, len(ds))
	for i, d := range ds {
		out[i] = ExperimentInfo{ID: d.ID, Title: d.Title, Scaled: d.Scaled}
	}
	return out
}
