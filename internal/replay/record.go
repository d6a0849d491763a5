package replay

import (
	"shadowtlb/internal/arch"
	"shadowtlb/internal/sim"
	"shadowtlb/internal/trace"
	"shadowtlb/internal/workload"
)

// Capture is an execution environment that compiles the reference
// stream into a Program while passing every operation through to the
// wrapped environment. Wrapping a live simulation's CPU captures a
// replayable program in one run, with no trace file and no intermediate
// record slice — refs land directly in the columnar chunks.
type Capture struct {
	Env workload.Env
	b   *builder
	st  workload.Streamer // Env's batch path, nil when unsupported
}

var _ workload.Env = (*Capture)(nil)
var _ workload.Streamer = (*Capture)(nil)

// NewCapture returns a capture wrapping env.
func NewCapture(env workload.Env) *Capture {
	st, _ := env.(workload.Streamer)
	return &Capture{Env: env, b: newBuilder(), st: st}
}

// Program seals and returns the captured program. Call once, after the
// workload completes.
func (c *Capture) Program() *Program { return c.b.finish() }

// Load records and forwards a load.
func (c *Capture) Load(va arch.VAddr, size int) uint64 {
	c.b.ref(va, size, false)
	return c.Env.Load(va, size)
}

// Store records and forwards a store. Values are not captured: replay
// timing is value-independent and replayed stores write a placeholder.
func (c *Capture) Store(va arch.VAddr, size int, val uint64) {
	c.b.ref(va, size, true)
	c.Env.Store(va, size, val)
}

// Step records and forwards an instruction batch.
func (c *Capture) Step(n int) {
	if n <= 0 {
		return
	}
	c.b.step(uint64(n))
	c.Env.Step(n)
}

// Stream records and forwards a reference batch.
func (c *Capture) Stream(refs []workload.Ref) {
	for i := range refs {
		r := &refs[i]
		c.b.ref(r.VA, int(r.Size), r.Store)
		if r.Step > 0 {
			c.b.step(uint64(r.Step))
		}
	}
	if c.st != nil {
		c.st.Stream(refs)
		return
	}
	workload.Deliver(c.Env, refs)
}

// Sbrk records and forwards a heap extension.
func (c *Capture) Sbrk(n uint64) arch.VAddr {
	c.b.control(opSbrk, n, 0)
	return c.Env.Sbrk(n)
}

// Remap records and forwards a superpage request.
func (c *Capture) Remap(base arch.VAddr, size uint64) bool {
	c.b.control(opRemap, uint64(base), size)
	return c.Env.Remap(base, size)
}

// AllocRegion records and forwards a region reservation.
func (c *Capture) AllocRegion(name string, size uint64) arch.VAddr {
	c.b.control(opAllocRegion, size, 0)
	return c.Env.AllocRegion(name, size)
}

// AllocAligned records and forwards an aligned reservation.
func (c *Capture) AllocAligned(name string, size, align, offset uint64) arch.VAddr {
	c.b.control(opAllocAligned, size, align<<32|offset)
	return c.Env.AllocAligned(name, size, align, offset)
}

// capturedWorkload interposes a Capture between a workload and its
// environment.
type capturedWorkload struct {
	inner workload.Workload
	cap   *Capture
}

func (c *capturedWorkload) Name() string         { return c.inner.Name() }
func (c *capturedWorkload) SbrkSuperpages() bool { return c.inner.SbrkSuperpages() }
func (c *capturedWorkload) Run(env workload.Env) {
	c.cap = NewCapture(env)
	c.inner.Run(c.cap)
}

// Record runs w live on a fresh system assembled from cfg, capturing
// the reference stream as it executes, and returns the live run's
// result together with the compiled program. The capture is
// non-perturbing — the live result equals an uncaptured run's — and the
// program replays to bit-identical counters on any configuration.
func Record(cfg sim.Config, w workload.Workload) (sim.Result, *Program) {
	cw := &capturedWorkload{inner: w}
	res := sim.RunOn(cfg, cw)
	p := cw.cap.Program()
	p.SbrkSuper = w.SbrkSuperpages()
	p.Workload = w.Name()
	return res, p
}

// TraceRecording wraps w so that running it writes every operation to
// tw as trace records while passing each through to the environment
// unchanged; the caller owns flushing the writer, which it opens with
// w's sbrk mode. This is the mtlbtrace -record path.
func TraceRecording(w workload.Workload, tw *trace.Writer) workload.Workload {
	return &recordedWorkload{inner: w, w: tw}
}

// recordedWorkload interposes the trace encoder between a workload
// and its environment.
type recordedWorkload struct {
	inner workload.Workload
	w     *trace.Writer
}

func (r *recordedWorkload) Name() string         { return r.inner.Name() }
func (r *recordedWorkload) SbrkSuperpages() bool { return r.inner.SbrkSuperpages() }
func (r *recordedWorkload) Run(env workload.Env) {
	r.inner.Run(&trace.Recorder{Env: env, W: r.w})
}
