package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
)

// Counter is a monotonically increasing event count maintained by
// instrumented code. A nil *Counter absorbs updates for free, so hot
// paths keep a counter pointer that is simply nil when observability is
// off.
type Counter struct {
	n uint64
}

// Add adds d to the counter. No-op on a nil receiver.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n += d
	}
}

// Inc adds one to the counter. No-op on a nil receiver.
func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n
}

// histBuckets is the fixed log2 bucket count shared by Histogram and
// AtomicHistogram: one bucket per possible bit length, plus zero.
const histBuckets = 65

// bucketIndex maps a value to its log2 bucket: bucket i holds values
// whose bit length is i, i.e. [2^(i-1), 2^i); bucket 0 holds value 0.
func bucketIndex(v uint64) int { return bits.Len64(v) }

// Histogram counts observations in fixed log2 buckets. The bucket
// layout is fixed so merging and rendering need no configuration.
type Histogram struct {
	counts [histBuckets]uint64
	sum    uint64
	n      uint64
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)]++
	h.sum += v
	h.n++
}

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Mean returns the mean observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// HistBucket is one non-empty histogram bucket, for dumps.
type HistBucket struct {
	// Lo and Hi bound the bucket's value range [Lo, Hi].
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// Buckets returns the non-empty buckets in ascending value order.
func (h *Histogram) Buckets() []HistBucket {
	if h == nil {
		return nil
	}
	return bucketize(&h.counts)
}

// bucketize renders a bucket-count array as the non-empty buckets in
// ascending value order.
func bucketize(counts *[histBuckets]uint64) []HistBucket {
	var out []HistBucket
	for i, n := range counts {
		if n == 0 {
			continue
		}
		b := HistBucket{Count: n}
		if i > 0 {
			b.Lo = 1 << (i - 1)
			b.Hi = 1<<i - 1
		}
		out = append(out, b)
	}
	return out
}

// metricKind distinguishes how a metric samples and renders.
type metricKind int

const (
	kindCounter metricKind = iota // cumulative; time series shows interval deltas
	kindGauge                     // point-in-time; time series shows sampled values
	kindHist                      // distribution; excluded from the time series
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one metric dimension, e.g. {scheme, coalesced}. Labeled
// metrics form a family: several series share one name and type and
// differ only in label values, exactly the Prometheus data model.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// metric is one registered metric (one series: a name plus, for
// labeled series, its label values).
type metric struct {
	name      string
	labels    []Label
	kind      metricKind
	counter   *Counter
	counterFn func() uint64
	gaugeFn   func() float64
	hist      *Histogram
	ahist     *AtomicHistogram
}

// id renders the series identity used for duplicate detection.
func (m *metric) id() string {
	if len(m.labels) == 0 {
		return m.name
	}
	id := m.name + "{"
	for i, l := range m.labels {
		if i > 0 {
			id += ","
		}
		id += l.Key + "=" + l.Value
	}
	return id + "}"
}

// value reads the metric's current scalar value (counters and gauges).
func (m *metric) value() float64 {
	switch {
	case m.counter != nil:
		return float64(m.counter.Value())
	case m.counterFn != nil:
		return float64(m.counterFn())
	case m.gaugeFn != nil:
		return m.gaugeFn()
	default:
		return 0
	}
}

// Registry holds one run's metrics in registration order. A nil
// *Registry hands out nil instruments, whose methods are no-ops, so a
// device's RegisterMetrics/Observe wiring needs no enabled check.
type Registry struct {
	metrics []metric
	byName  map[string]int
	help    map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// add registers a metric; duplicate series (name + labels) are a
// wiring bug.
func (r *Registry) add(m metric) {
	id := m.id()
	if _, dup := r.byName[id]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", id))
	}
	r.byName[id] = len(r.metrics)
	r.metrics = append(r.metrics, m)
}

// SetHelp attaches exposition help text to a metric family name; the
// Prometheus encoder emits it as the family's # HELP line. No-op on a
// nil registry.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	if r.help == nil {
		r.help = make(map[string]string)
	}
	r.help[name] = help
}

// Counter registers and returns a live counter. Returns nil (a valid
// no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(metric{name: name, kind: kindCounter, counter: c})
	return c
}

// CounterFunc registers a cumulative counter read from fn at sample
// time, the idiom for device statistics that already exist as fields.
// No-op on a nil registry.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.add(metric{name: name, kind: kindCounter, counterFn: fn})
}

// CounterFuncL registers a labeled series of a cumulative counter
// family. No-op on a nil registry.
func (r *Registry) CounterFuncL(name string, fn func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	r.add(metric{name: name, labels: labels, kind: kindCounter, counterFn: fn})
}

// GaugeFunc registers a point-in-time value read from fn at sample time.
// No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(metric{name: name, kind: kindGauge, gaugeFn: fn})
}

// Histogram registers and returns a live histogram. Returns nil (a
// valid no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := &Histogram{}
	r.add(metric{name: name, kind: kindHist, hist: h})
	return h
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.metrics)
}

// DumpMetric is one metric's final state, for the end-of-run JSON dump.
type DumpMetric struct {
	Name    string       `json:"name"`
	Labels  []Label      `json:"labels,omitempty"`
	Kind    string       `json:"kind"`
	Value   float64      `json:"value"`
	Count   uint64       `json:"count,omitempty"`   // histograms
	Mean    float64      `json:"mean,omitempty"`    // histograms
	Buckets []HistBucket `json:"buckets,omitempty"` // histograms
}

// Dump returns every metric's current state in registration order.
func (r *Registry) Dump() []DumpMetric {
	if r == nil {
		return nil
	}
	out := make([]DumpMetric, 0, len(r.metrics))
	for i := range r.metrics {
		m := &r.metrics[i]
		d := DumpMetric{Name: m.name, Labels: m.labels, Kind: m.kind.String()}
		if m.kind == kindHist {
			if m.ahist != nil {
				d.Count = m.ahist.Count()
				d.Mean = m.ahist.Mean()
				d.Buckets = m.ahist.Buckets()
			} else {
				d.Count = m.hist.Count()
				d.Mean = m.hist.Mean()
				d.Buckets = m.hist.Buckets()
			}
			d.Value = float64(d.Count)
		} else {
			d.Value = m.value()
		}
		out = append(out, d)
	}
	return out
}

// WriteDump writes the registry's final state as indented JSON.
func (r *Registry) WriteDump(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Dump())
}
