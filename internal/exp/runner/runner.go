// Package runner executes experiment cells on a worker pool with a
// memoizing result cache. The pool is the production Runner for
// internal/exp: it bounds concurrent simulations at a configurable
// width, deduplicates cells by canonical key — so base systems shared by
// several experiments (Figure 3, the §3.4 sweep, the reach comparison,
// the ablations) are simulated exactly once per invocation — and stays
// deterministic because every simulation runs on a fresh, fully
// isolated system from a seeded workload.
//
// Pools are context-aware: ResultCtx, WarmCtx and RunExperimentsCtx
// drop queued cells when the context is canceled (a simulation already
// running completes; the machine has no preemption point). Several
// pools can share one worker budget through NewShared, and an
// ExternalCache lets results outlive any single pool — both are how the
// mtlbd daemon (internal/serve) layers per-job pools over one
// server-wide semaphore and one process-lifetime result cache.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"shadowtlb/internal/exp"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/stats"
)

// ExternalCache shares simulation results beyond one pool's lifetime.
// Do returns the cached result for key when present; otherwise it
// executes simulate, stores the result, and returns it. Implementations
// must be safe for concurrent use, may block to coalesce concurrent
// misses on a single execution, and must honor ctx while blocked. The
// bool reports whether the result was served without running simulate.
type ExternalCache interface {
	Do(ctx context.Context, key string, simulate func() sim.Result) (sim.Result, bool, error)
}

// CellEvent describes one distinct cell's completion within a pool, for
// progress streaming: the daemon's NDJSON job-event feed is built from
// these. The hook fires once per distinct key, when its result becomes
// available to waiters.
type CellEvent struct {
	Key      string // canonical cell key
	Name     string // short filesystem-safe handle (see manifest.go)
	Label    string // configuration label
	Workload string
	Scale    string
	Scheme   string // translation backend ("none" on conventional systems)
	Cached   bool   // served by the external cache, not simulated here
	WallNS   int64  // host time from slot acquisition to completion
}

// Pool is a concurrent, memoizing exp.Runner.
type Pool struct {
	sem     chan struct{} // bounds in-flight simulations; may be shared
	obsOpts *obs.Options  // per-cell observability; nil when off
	cache   ExternalCache // cross-pool result cache; nil when absent
	hook    func(CellEvent)

	mu        sync.Mutex
	cells     map[string]*entry
	requested int
	simulated int
	cacheHits int
}

// entry is one cell's slot: the first requester simulates and closes
// done; later requesters for the same key wait on it.
type entry struct {
	done chan struct{}
	res  sim.Result
	err  error // owner abandoned the cell before simulating (canceled)

	// Run-manifest bookkeeping (see manifest.go).
	cell     exp.Cell // the first requester's cell
	wall     time.Duration
	requests int
	cached   bool     // res came from the external cache
	obs      *obs.Obs // per-cell session, nil when observability is off
}

// New returns a pool running at most workers simulations at once.
// workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return NewShared(make(chan struct{}, workers))
}

// NewShared returns a pool that bounds its in-flight simulations with
// sem, which may be shared with other pools so one worker budget covers
// them all. The mtlbd daemon runs one pool per job over a server-wide
// semaphore; jobs then contend for simulation slots, not goroutines.
func NewShared(sem chan struct{}) *Pool {
	return &Pool{sem: sem, cells: make(map[string]*entry)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

// EnableObs makes every subsequently simulated cell carry its own
// observability session with the given options. Call before any Result;
// cells already simulated stay unobserved.
func (p *Pool) EnableObs(o obs.Options) {
	p.obsOpts = &o
}

// UseCache attaches a cross-pool result cache, consulted before any
// cell is simulated and updated after. Call before any Result.
func (p *Pool) UseCache(c ExternalCache) { p.cache = c }

// SetCellHook installs a callback fired once per distinct completed
// cell, from the goroutine that owned the cell. Call before any Result.
// The hook must not call back into the pool.
func (p *Pool) SetCellHook(fn func(CellEvent)) { p.hook = fn }

// Result returns the cell's result, simulating it on the calling
// goroutine if this is the first request for its key, or waiting for the
// in-flight simulation otherwise.
func (p *Pool) Result(c exp.Cell) sim.Result {
	r, err := p.ResultCtx(context.Background(), c)
	if err != nil {
		// The background context never cancels, so the only way here is
		// a simulation failure (e.g. a panicking cell), which without a
		// supervising server is a programming error.
		panic(err)
	}
	return r
}

// ResultCtx returns the cell's result, simulating it on the calling
// goroutine if this is the first request for its key, or waiting for the
// in-flight simulation otherwise. Cancellation drops the cell while it
// is queued for a worker slot or while this caller waits on another
// goroutine's simulation; a simulation that has already started always
// runs to completion. A panicking simulation is isolated into an error
// rather than taking down the process.
func (p *Pool) ResultCtx(ctx context.Context, c exp.Cell) (sim.Result, error) {
	key := c.Key()
	p.mu.Lock()
	p.requested++
	p.mu.Unlock()
	for {
		p.mu.Lock()
		if e, ok := p.cells[key]; ok {
			e.requests++
			p.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				return sim.Result{}, ctx.Err()
			}
			if e.err != nil {
				// The owner abandoned the cell before simulating (its
				// context canceled); retry, possibly as the new owner.
				continue
			}
			return e.res, nil
		}
		e := &entry{done: make(chan struct{}), cell: c, requests: 1}
		if p.obsOpts != nil {
			e.obs = obs.New(*p.obsOpts)
		}
		p.cells[key] = e
		p.mu.Unlock()
		return p.runCell(ctx, key, e)
	}
}

// runCell executes a cell as its entry's owner: it acquires a worker
// slot, consults the external cache when one is attached, publishes the
// result and fires the completion hook. On failure the entry is
// withdrawn so a later request can retry.
func (p *Pool) runCell(ctx context.Context, key string, e *entry) (sim.Result, error) {
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		p.abandon(key, e, ctx.Err())
		return sim.Result{}, ctx.Err()
	}
	start := time.Now()
	res, cached, err := p.simulate(ctx, key, e)
	<-p.sem
	if err != nil {
		p.abandon(key, e, err)
		return sim.Result{}, err
	}
	e.res = res
	e.cached = cached
	e.wall = time.Since(start)
	p.mu.Lock()
	if cached {
		p.cacheHits++
	} else {
		p.simulated++
	}
	p.mu.Unlock()
	close(e.done)
	if p.hook != nil {
		p.hook(CellEvent{
			Key:      key,
			Name:     cellName(e.cell),
			Label:    res.Label,
			Workload: res.Workload,
			Scale:    e.cell.Scale.String(),
			Scheme:   e.cell.SchemeLabel(),
			Cached:   cached,
			WallNS:   e.wall.Nanoseconds(),
		})
	}
	return res, nil
}

// simulate runs the cell — through the external cache when one is
// attached — converting a panic into an error so one bad cell fails its
// requesters instead of the process.
func (p *Pool) simulate(ctx context.Context, key string, e *entry) (res sim.Result, cached bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: cell %s panicked: %v\n%s", key, r, debug.Stack())
		}
	}()
	run := func() sim.Result { return e.cell.SimulateObserved(e.obs) }
	if p.cache != nil {
		return p.cache.Do(ctx, key, run)
	}
	return run(), false, nil
}

// abandon withdraws a failed entry so its key can be retried, and wakes
// any waiters with the error.
func (p *Pool) abandon(key string, e *entry, err error) {
	p.mu.Lock()
	delete(p.cells, key)
	p.mu.Unlock()
	e.err = err
	close(e.done)
}

// Warm simulates every distinct cell in the batch, up to the pool's
// worker bound at a time, and returns when all are complete.
func (p *Pool) Warm(cells []exp.Cell) {
	if err := p.WarmCtx(context.Background(), cells); err != nil {
		panic(err) // only a panicking cell can fail under Background
	}
}

// WarmCtx simulates every distinct cell in the batch, up to the pool's
// worker bound at a time, and returns when all are complete or the
// context is canceled. The first error (cancellation or an isolated
// cell panic) is returned after every in-flight cell has settled.
func (p *Pool) WarmCtx(ctx context.Context, cells []exp.Cell) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for _, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.ResultCtx(ctx, c); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Stats reports the pool's cache effectiveness.
type Stats struct {
	Requested int // cell results asked for
	Simulated int // distinct cells actually simulated here
	CacheHits int // distinct cells served by the external cache
}

// Stats returns the counters so far.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Requested: p.requested, Simulated: p.simulated, CacheHits: p.cacheHits}
}

// Output is one experiment's rendered tables.
type Output struct {
	ID     string
	Tables []*stats.Table
}

// RunExperiments executes the given experiments at the given scale; see
// RunExperimentsCtx.
func (p *Pool) RunExperiments(descs []exp.Descriptor, s exp.Scale) []Output {
	outs, err := p.RunExperimentsCtx(context.Background(), descs, s)
	if err != nil {
		panic(err) // only a panicking cell can fail under Background
	}
	return outs
}

// RunExperimentsCtx executes the given experiments at the given scale:
// every declared cell across all of them is prewarmed through the pool
// (deduplicated, in parallel), then each reduce runs and the outputs are
// returned in the experiments' order. Reduces run concurrently — they
// only read pool results or drive private systems — but the returned
// slice order, and therefore any printed output, is deterministic.
// Cancellation drops cells still queued during the warm phase and
// returns the context's error; reduces over fully warmed cells are
// brief and always complete.
func (p *Pool) RunExperimentsCtx(ctx context.Context, descs []exp.Descriptor, s exp.Scale) ([]Output, error) {
	var cells []exp.Cell
	for _, d := range descs {
		if d.Cells != nil {
			cells = append(cells, d.Cells(s)...)
		}
	}
	if err := p.WarmCtx(ctx, cells); err != nil {
		return nil, err
	}

	outs := make([]Output, len(descs))
	if p.Workers() == 1 {
		// A single-worker pool means the caller asked for serial
		// execution; honor that for the reduces too.
		for i, d := range descs {
			outs[i] = Output{ID: d.ID, Tables: d.Tables(p, s)}
		}
		return outs, ctx.Err()
	}
	var wg sync.WaitGroup
	for i, d := range descs {
		wg.Add(1)
		go func(i int, d exp.Descriptor) {
			defer wg.Done()
			outs[i] = Output{ID: d.ID, Tables: d.Tables(p, s)}
		}(i, d)
	}
	wg.Wait()
	return outs, ctx.Err()
}
