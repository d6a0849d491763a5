package obs

import "sync/atomic"

// The simulation-side instruments (Counter, Histogram) are deliberately
// unsynchronized: each simulated system is single-threaded and the hot
// path cannot afford atomics. The daemon in internal/serve, by
// contrast, updates its metrics from many request and worker goroutines
// at once, so it uses the atomic variants below. Both register into the
// same Registry and render identically in dumps.

// AtomicCounter is a monotonically increasing event count safe for
// concurrent use. A nil *AtomicCounter absorbs updates for free, like
// the unsynchronized Counter.
type AtomicCounter struct {
	n atomic.Uint64
}

// Add adds d to the counter. No-op on a nil receiver.
func (c *AtomicCounter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Inc adds one to the counter. No-op on a nil receiver.
func (c *AtomicCounter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *AtomicCounter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// AtomicHistogram counts observations in the same fixed log2 buckets as
// Histogram, safely from many goroutines. Snapshots taken while writers
// are active are per-field consistent, which is all a metrics dump
// needs.
type AtomicHistogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	n      atomic.Uint64
}

// Observe records one value. No-op on a nil receiver.
func (h *AtomicHistogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations; 0 on a nil receiver.
func (h *AtomicHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Mean returns the mean observed value, or 0 with no observations.
func (h *AtomicHistogram) Mean() float64 {
	if h == nil || h.n.Load() == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(h.n.Load())
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *AtomicHistogram) Buckets() []HistBucket {
	if h == nil {
		return nil
	}
	var counts [histBuckets]uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	return bucketize(&counts)
}

// AtomicCounter registers and returns a concurrency-safe counter.
// Returns nil (a valid no-op counter) on a nil registry.
func (r *Registry) AtomicCounter(name string) *AtomicCounter {
	if r == nil {
		return nil
	}
	c := &AtomicCounter{}
	r.add(metric{name: name, kind: kindCounter, counterFn: c.Value})
	return c
}

// AtomicHistogram registers and returns a concurrency-safe histogram.
// Returns nil (a valid no-op histogram) on a nil registry.
func (r *Registry) AtomicHistogram(name string) *AtomicHistogram {
	if r == nil {
		return nil
	}
	h := &AtomicHistogram{}
	r.add(metric{name: name, kind: kindHist, ahist: h})
	return h
}

// AtomicHistogramL registers and returns one labeled series of a
// concurrency-safe histogram family — e.g. per-scheme cell wall time.
// Returns nil on a nil registry.
func (r *Registry) AtomicHistogramL(name string, labels ...Label) *AtomicHistogram {
	if r == nil {
		return nil
	}
	h := &AtomicHistogram{}
	r.add(metric{name: name, labels: labels, kind: kindHist, ahist: h})
	return h
}
