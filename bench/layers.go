package main

import (
	"time"

	"shadowtlb/internal/arch"
	"shadowtlb/internal/cache"
	"shadowtlb/internal/cpu"
	"shadowtlb/internal/obs"
)

// layerCost is what the layer drivers measured: host nanoseconds and
// calls per layer, over refs recorded references.
type layerCost struct {
	refs int

	lookupNS, missNS, insertNS, hptNS, cacheNS, mmcNS, xlateNS, memNS int64
	misses, events                                                    int
}

func (a *layerCost) add(b layerCost) {
	a.refs += b.refs
	a.lookupNS += b.lookupNS
	a.missNS += b.missNS
	a.insertNS += b.insertNS
	a.hptNS += b.hptNS
	a.cacheNS += b.cacheNS
	a.mmcNS += b.mmcNS
	a.xlateNS += b.xlateNS
	a.memNS += b.memNS
	a.misses += b.misses
	a.events += b.events
}

// timerOverheadNS is what timing an empty region reads: the clock's own
// cost, which every individually timed call carries on top of the call.
// It is ~40 ns on a virtualised clock, as much as a TLB refill, so the
// per-miss timings are corrected by it.
func timerOverheadNS() float64 {
	var batches []float64
	for range 5 {
		const n = 4096
		var total time.Duration
		for range n {
			t := time.Now()
			total += time.Since(t)
		}
		batches = append(batches, float64(total.Nanoseconds())/n)
	}
	return median(batches)
}

// dramSink keeps the driver's DRAM reads observable so the compiler
// cannot drop them.
var dramSink uint64

// driveLayers re-enacts the CPU's slow path for a recorded reference
// stream on a machine that has finished its run, one timed loop per
// layer, and returns the cost of each. Every call goes through the
// layer's public API, so the numbers are what the CPU itself pays per
// call with the machine in its warm, end-of-run state. The machine is
// left modified and must not be used for anything else afterwards.
func driveLayers(c *cpu.CPU, stream []uint64, timerNS float64, tr *obs.Tracer, parent obs.SpanContext) layerCost {
	v := c.VM
	n := len(stream)
	lc := layerCost{refs: n}
	if n == 0 {
		return lc
	}
	kind := func(x uint64) arch.AccessKind {
		if x&storeBit != 0 {
			return arch.Write
		}
		return arch.Read
	}
	va := func(x uint64) arch.VAddr { return arch.VAddr(x &^ storeBit) }
	timed := func(name string, loop func()) int64 {
		start := time.Now()
		loop()
		d := time.Since(start)
		tr.RecordSpan(name, parent, start, d)
		return d.Nanoseconds()
	}

	// Processor TLB lookup; on a miss the kernel handler and the refill
	// are timed call by call and taken out of the lookup's share, each
	// net of one timer reading (a third reading per miss stays in the
	// loop and is taken off the lookups). The TLB starts cold, so even a
	// stream the final TLB covers whole (superpages, small runs) pays
	// some misses and the handler is always measured; on a stream that
	// thrashes the TLB the cold start adds at most one miss per entry.
	c.TLB.PurgeAll()
	pa := make([]arch.PAddr, n)
	ok := make([]bool, n)
	loop := timed("tlb.lookup", func() {
		for i, x := range stream {
			a := va(x)
			e := c.TLB.Lookup(uint64(a))
			if e == nil {
				t0 := time.Now()
				res, err := v.HandleTLBMiss(a, kind(x))
				t1 := time.Now()
				lc.missNS += t1.Sub(t0).Nanoseconds()
				lc.misses++
				if err != nil {
					continue
				}
				c.TLB.Insert(res.Entry)
				lc.insertNS += time.Since(t1).Nanoseconds()
				if e = c.TLB.Probe(uint64(a)); e == nil {
					continue
				}
			}
			pa[i], ok[i] = arch.PAddr(e.Translate(uint64(a))), true
		}
	})
	timer := int64(timerNS * float64(lc.misses))
	lc.lookupNS = loop - lc.missNS - lc.insertNS - timer
	lc.missNS -= timer
	lc.insertNS -= timer

	lc.hptNS = timed("ptable.lookup", func() {
		for _, x := range stream {
			v.HPT.Lookup(va(x))
		}
	})

	events := make([]cache.Event, 0, n/4)
	lc.cacheNS = timed("cache.access", func() {
		for i, x := range stream {
			if ok[i] {
				res := v.Cache.Access(va(x), pa[i], kind(x))
				events = append(events, res.Events[:res.NEvents]...)
			}
		}
	})
	lc.events = len(events)

	// A shadow fault is an answer like any other here; only its cost
	// matters.
	lc.mmcNS = timed("mmc.event", func() {
		for _, ev := range events {
			_, _ = v.MMC.HandleEvent(ev)
		}
	})

	ra := make([]arch.PAddr, n)
	lc.xlateNS = timed("vm.translate_data", func() {
		for i := range stream {
			if ok[i] {
				r, err := v.TranslateData(pa[i])
				ra[i], ok[i] = r, err == nil
			}
		}
	})

	var sum uint64
	lc.memNS = timed("mem.access", func() {
		for i, x := range stream {
			switch {
			case !ok[i]:
			case x&storeBit != 0:
				v.Dram.WriteU64(ra[i], uint64(i))
			default:
				sum += v.Dram.ReadU64(ra[i])
			}
		}
	})
	dramSink += sum
	return lc
}

// metrics turns the measured costs into the per-layer metrics: ns per
// call, and calls per recorded reference where a layer is not called
// once per reference.
func (lc layerCost) metrics() map[string]float64 {
	refs := float64(lc.refs)
	misses := float64(lc.misses)
	return map[string]float64{
		"tlb.lookup_ns":        ratio(float64(lc.lookupNS), refs),
		"tlb.insert_ns":        ratio(float64(lc.insertNS), misses),
		"vm.miss_ns":           ratio(float64(lc.missNS), misses),
		"vm.misses_per_ref":    ratio(misses, refs),
		"ptable.lookup_ns":     ratio(float64(lc.hptNS), refs),
		"cache.access_ns":      ratio(float64(lc.cacheNS), refs),
		"cache.events_per_ref": ratio(float64(lc.events), refs),
		"mmc.event_ns":         ratio(float64(lc.mmcNS), float64(lc.events)),
		"vm.translate_data_ns": ratio(float64(lc.xlateNS), refs),
		"mem.access_ns":        ratio(float64(lc.memNS), refs),
	}
}

// slowPathNSPerRef is what one reference costs if it takes every layer
// of the slow path at the measured prices and call rates. The hashed
// table walk happens inside the miss handler, so it is not added again.
func (lc layerCost) slowPathNSPerRef() float64 {
	m := lc.metrics()
	return m["tlb.lookup_ns"] +
		m["vm.misses_per_ref"]*(m["vm.miss_ns"]+m["tlb.insert_ns"]) +
		m["cache.access_ns"] +
		m["cache.events_per_ref"]*m["mmc.event_ns"] +
		m["vm.translate_data_ns"] +
		m["mem.access_ns"]
}
