package main

import (
	"math/rand/v2"
	"time"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/workload"
)

// sampleEvery is the mean number of reference calls per timed one. A
// clock read costs about as much as a cached load, so timing every call
// would double the env time; one in 64, at a random interval so no loop
// period aliases with it, costs a few percent.
const sampleEvery = 64

// Reference-call kinds the shim samples. Units are references, except
// for Step, whose unit is the call.
const (
	kindLoad = iota
	kindStore
	kindStep
	kindStream
	kindCols
	nKinds
)

// Control-call kinds, timed on every call.
const (
	ctrlRemap = iota
	ctrlSbrk
	ctrlAlloc
	nCtrl
)

// callStat accumulates one call kind: all units issued, and the time and
// units of the calls that were timed.
type callStat struct {
	units, sampledUnits uint64
	sampledNS           float64 // net of the timer's own cost
}

// estimateNS scales the sampled time up to every unit issued.
func (c callStat) estimateNS() float64 {
	if c.sampledUnits == 0 {
		return 0
	}
	return c.sampledNS * float64(c.units) / float64(c.sampledUnits)
}

// ctrlStat accumulates one control-call kind, timed on every call.
type ctrlStat struct {
	calls uint64
	ns    int64
}

// envShim sits between a workload and the machine it runs on, the way
// replay.Capture does. It forwards every call unchanged, times a
// sample of the reference calls and every control call, and records a
// bounded sample of the reference stream for the layer drivers. It
// keeps the Streamer and ColStreamer paths so the engines under it run
// their fast paths.
type envShim struct {
	env workload.Env
	st  workload.Streamer    // env's batch path, nil when absent
	cs  workload.ColStreamer // env's column path, nil when absent

	rng  *rand.Rand
	left int // reference calls until the next timed one

	calls [nKinds]callStat
	ctrl  [nCtrl]ctrlStat
	rec   streamRec
}

var (
	_ workload.Env         = (*envShim)(nil)
	_ workload.Streamer    = (*envShim)(nil)
	_ workload.ColStreamer = (*envShim)(nil)
)

func newEnvShim(seed uint64) *envShim {
	s := &envShim{rng: rand.New(rand.NewPCG(seed, 0x5eed)), rec: newStreamRec()}
	s.left = s.gap()
	return s
}

// attach points the shim at the environment the engine handed in.
func (s *envShim) attach(env workload.Env) {
	s.env = env
	s.st, _ = env.(workload.Streamer)
	s.cs, _ = env.(workload.ColStreamer)
}

// gap draws the distance to the next timed call: uniform on
// [1, 2*sampleEvery-1], mean sampleEvery.
func (s *envShim) gap() int { return 1 + s.rng.IntN(2*sampleEvery-1) }

// timed reports whether this call is one of the sampled ones.
func (s *envShim) timed() bool {
	s.left--
	if s.left > 0 {
		return false
	}
	s.left = s.gap()
	return true
}

func (s *envShim) sampled(kind int, units uint64, start time.Time) {
	d := time.Since(start)
	// The clock's own cost is measured again here, right after the call,
	// where caches and predictors are as the call left them; a
	// calibration loop reads it lower than it is in place.
	t := time.Now()
	clock := time.Since(t)
	c := &s.calls[kind]
	c.sampledNS += float64((d - clock).Nanoseconds())
	c.sampledUnits += units
}

func (s *envShim) control(kind int, start time.Time) {
	s.ctrl[kind].calls++
	s.ctrl[kind].ns += time.Since(start).Nanoseconds()
}

// Load forwards a load.
func (s *envShim) Load(va arch.VAddr, size int) uint64 {
	s.rec.add(va, false)
	s.calls[kindLoad].units++
	if !s.timed() {
		return s.env.Load(va, size)
	}
	start := time.Now()
	v := s.env.Load(va, size)
	s.sampled(kindLoad, 1, start)
	return v
}

// Store forwards a store.
func (s *envShim) Store(va arch.VAddr, size int, val uint64) {
	s.rec.add(va, true)
	s.calls[kindStore].units++
	if !s.timed() {
		s.env.Store(va, size, val)
		return
	}
	start := time.Now()
	s.env.Store(va, size, val)
	s.sampled(kindStore, 1, start)
}

// Step forwards an instruction batch.
func (s *envShim) Step(n int) {
	s.calls[kindStep].units++
	if !s.timed() {
		s.env.Step(n)
		return
	}
	start := time.Now()
	s.env.Step(n)
	s.sampled(kindStep, 1, start)
}

// Stream forwards a reference batch.
func (s *envShim) Stream(refs []workload.Ref) {
	for i := range refs {
		s.rec.add(refs[i].VA, refs[i].Store)
	}
	n := uint64(len(refs))
	s.calls[kindStream].units += n
	if !s.timed() {
		s.stream(refs)
		return
	}
	start := time.Now()
	s.stream(refs)
	s.sampled(kindStream, n, start)
}

func (s *envShim) stream(refs []workload.Ref) {
	if s.st != nil {
		s.st.Stream(refs)
		return
	}
	workload.Deliver(s.env, refs)
}

// StreamCols forwards a column run. Every call is timed: a run carries
// up to 64K references, so the clock's cost per reference is small.
func (s *envShim) StreamCols(cols workload.RefCols) {
	for i := range cols.VPN {
		bit := cols.Bit0 + i
		va := arch.VAddr(uint64(cols.VPN[i])<<arch.PageShift | uint64(cols.Off[i]))
		s.rec.add(va, cols.Store[bit>>6]&(1<<(bit&63)) != 0)
	}
	n := uint64(cols.Len())
	s.calls[kindCols].units += n
	start := time.Now()
	if s.cs != nil {
		s.cs.StreamCols(cols)
	} else {
		workload.DeliverCols(s.env, cols)
	}
	s.sampled(kindCols, n, start)
}

// Sbrk forwards a heap extension.
func (s *envShim) Sbrk(n uint64) arch.VAddr {
	start := time.Now()
	va := s.env.Sbrk(n)
	s.control(ctrlSbrk, start)
	return va
}

// Remap forwards a superpage request.
func (s *envShim) Remap(base arch.VAddr, size uint64) bool {
	start := time.Now()
	ok := s.env.Remap(base, size)
	s.control(ctrlRemap, start)
	return ok
}

// AllocRegion forwards a region reservation.
func (s *envShim) AllocRegion(name string, size uint64) arch.VAddr {
	start := time.Now()
	va := s.env.AllocRegion(name, size)
	s.control(ctrlAlloc, start)
	return va
}

// AllocAligned forwards an aligned reservation.
func (s *envShim) AllocAligned(name string, size, align, offset uint64) arch.VAddr {
	start := time.Now()
	va := s.env.AllocAligned(name, size, align, offset)
	s.control(ctrlAlloc, start)
	return va
}

// refs returns the references issued through the shim.
func (s *envShim) refs() uint64 {
	return s.calls[kindLoad].units + s.calls[kindStore].units +
		s.calls[kindStream].units + s.calls[kindCols].units
}

// envNS estimates the host time spent below the shim: sampled
// reference calls scaled up, plus every control call.
func (s *envShim) envNS() float64 {
	var t float64
	for _, c := range s.calls {
		t += c.estimateNS()
	}
	for _, c := range s.ctrl {
		t += float64(c.ns)
	}
	return t
}

// streamRec keeps a bounded, evenly spread sample of a reference
// stream: whole windows of consecutive references (so the sample keeps
// the stream's locality), one window in every `every`. When the buffer
// fills, every other kept window is dropped and `every` doubles, so any
// stream length fits in the same memory.
type streamRec struct {
	refs  []uint64 // va | storeBit
	every int      // keep window w when w % every == 0
	win   int      // index of the current window
	left  int      // references left in the current window
	keep  bool     // whether the current window is kept
}

const (
	recWindow  = 4096
	recWindows = 256 // buffer capacity in windows: 1M references, 8 MB
	storeBit   = 1 << 63
)

func newStreamRec() streamRec {
	return streamRec{
		refs:  make([]uint64, 0, recWindow*recWindows),
		every: 1,
		win:   -1,
	}
}

func (r *streamRec) add(va arch.VAddr, store bool) {
	if r.left == 0 {
		r.win++
		r.left = recWindow
		r.keep = r.win%r.every == 0
		if r.keep && len(r.refs) == cap(r.refs) {
			r.thin()
		}
	}
	r.left--
	if !r.keep {
		return
	}
	x := uint64(va)
	if store {
		x |= storeBit
	}
	r.refs = append(r.refs, x)
}

// thin drops every other kept window and halves the sampling rate. The
// k-th kept window is window k*every, so the even k are exactly the
// windows the doubled rate keeps — including, consistently, the
// current one.
func (r *streamRec) thin() {
	kept := r.refs[:0]
	for lo := 0; lo < len(r.refs); lo += 2 * recWindow {
		kept = append(kept, r.refs[lo:min(lo+recWindow, len(r.refs))]...)
	}
	r.refs = kept
	r.every *= 2
	r.keep = r.win%r.every == 0
}

// shimmed interposes an envShim between a workload and its machine and
// times the whole run.
type shimmed struct {
	workload.Workload
	shim *envShim
	wall time.Duration
}

func (w *shimmed) Run(env workload.Env) {
	w.shim.attach(env)
	start := time.Now()
	w.Workload.Run(w.shim)
	w.wall = time.Since(start)
}
