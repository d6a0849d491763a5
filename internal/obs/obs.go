// Package obs is the simulator's observability layer: a metrics
// registry (counters, gauges, log2-bucket histograms) the machine's
// devices register into, a cycle-interval sampler that turns the
// registry into a time series, and a timeline that records spans and
// instants in the simulated-cycle domain for Chrome trace-event /
// Perfetto export.
//
// The layer is designed to cost nothing when it is off. Every hot-path
// entry point — Counter.Add, Histogram.Observe, Timeline.Span,
// Sampler.MaybeSample, and the Obs accessors — is safe to call on a nil
// receiver and does no work and no allocation there, so instrumented
// code holds plain (possibly nil) pointers and never branches on an
// "enabled" flag of its own. TestDisabledPathAllocatesNothing pins the
// zero-allocation property.
//
// One Obs observes one simulated System for one run. Neither the
// registry nor the timeline is safe for concurrent use; the parallel
// experiment runner gives every cell its own Obs.
package obs

// Options selects which observability features a session collects.
type Options struct {
	// SampleEvery is the simulated-cycle interval between time-series
	// samples; 0 disables sampling.
	SampleEvery uint64
	// Timeline enables span/instant collection for trace export. The
	// timeline holds at most DefaultMaxTimelineEvents (a long run at
	// paper scale can produce one span per TLB miss); events past the
	// cap are counted as dropped, never silently ignored.
	Timeline bool
}

// Obs is one observability session. A nil *Obs is the disabled session:
// its accessors return nil, and every method on those nil components is
// a no-op.
type Obs struct {
	reg *Registry
	tl  *Timeline
	smp *Sampler
}

// New builds a session with the requested features. The registry always
// exists so devices can register unconditionally.
func New(o Options) *Obs {
	s := &Obs{reg: NewRegistry()}
	if o.Timeline {
		s.tl = NewTimeline(DefaultMaxTimelineEvents)
	}
	if o.SampleEvery > 0 {
		s.smp = NewSampler(s.reg, o.SampleEvery)
	}
	return s
}

// Registry returns the session's metrics registry, or nil when o is nil.
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Timeline returns the session's timeline, or nil when o is nil or the
// timeline was not enabled.
func (o *Obs) Timeline() *Timeline {
	if o == nil {
		return nil
	}
	return o.tl
}

// Sampler returns the session's sampler, or nil when o is nil or
// sampling was not enabled.
func (o *Obs) Sampler() *Sampler {
	if o == nil {
		return nil
	}
	return o.smp
}
