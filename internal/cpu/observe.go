package cpu

import "shadowtlb/internal/obs"

// Observe attaches an observability session to the processor. The CPU
// registers the run's cycle breakdown and instruction counters, keeps
// the sampler so every cycle charge — Charge, and instr's inline
// accounting — can drive cycle-interval snapshots, and keeps the
// timeline so each software TLB miss becomes a span. With no session
// the fields stay nil and the hot path pays one nil check per charge.
func (c *CPU) Observe(o *obs.Obs) {
	r := o.Registry()
	r.CounterFunc("cycles.user", func() uint64 { return uint64(c.Breakdown.User) })
	r.CounterFunc("cycles.tlbmiss", func() uint64 { return uint64(c.Breakdown.TLBMiss) })
	r.CounterFunc("cycles.memory", func() uint64 { return uint64(c.Breakdown.Memory) })
	r.CounterFunc("cycles.kernel", func() uint64 { return uint64(c.Breakdown.Kernel) })
	r.GaugeFunc("cycles.tlbmiss_fraction", func() float64 { return c.Breakdown.TLBFraction() })
	r.CounterFunc("cpu.instructions", func() uint64 { return c.Instructions })
	r.CounterFunc("cpu.loads", func() uint64 { return c.Loads })
	r.CounterFunc("cpu.stores", func() uint64 { return c.Stores })
	c.smp = o.Sampler()
	c.tl = o.Timeline()
	c.missHist = r.Histogram("cpu.tlbmiss_handler_cycles")
}
