package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Sampler snapshots a registry's counters and gauges every N simulated
// cycles, building an in-memory time series. Histograms are excluded
// (they render in the registry dump). Column layout is frozen at the
// first sample, so all registration must precede the run — which the
// machine assembly guarantees.
type Sampler struct {
	reg   *Registry
	every uint64
	next  uint64

	cols  []string     // column names, set at first sample
	kinds []metricKind // parallel to cols
	rows  []sampleRow
}

// sampleRow is one snapshot.
type sampleRow struct {
	Cycle  uint64
	Values []float64 // parallel to cols; cumulative for counters
}

// NewSampler returns a sampler over reg with the given cycle interval.
func NewSampler(reg *Registry, every uint64) *Sampler {
	if every == 0 {
		panic("obs: zero sample interval")
	}
	return &Sampler{reg: reg, every: every, next: every}
}

// MaybeSample takes a snapshot if cycle has reached the next sample
// boundary. One snapshot is taken per crossing even when a single
// charge advances the clock across several boundaries (e.g. kernel
// boot), so rows are spaced at least `every` cycles apart. No-op on a
// nil receiver, so the CPU's charge path calls it unconditionally.
func (s *Sampler) MaybeSample(cycle uint64) {
	if s == nil || cycle < s.next {
		return
	}
	s.sample(cycle)
	s.next = cycle - cycle%s.every + s.every
}

// Final takes a closing snapshot at the run's last cycle, ensuring the
// series covers the full run even if the tail never crossed a boundary.
// No-op on a nil receiver.
func (s *Sampler) Final(cycle uint64) {
	if s == nil {
		return
	}
	if n := len(s.rows); n > 0 && s.rows[n-1].Cycle >= cycle {
		return
	}
	s.sample(cycle)
}

// sample appends one snapshot row.
func (s *Sampler) sample(cycle uint64) {
	if s.cols == nil {
		for i := range s.reg.metrics {
			m := &s.reg.metrics[i]
			if m.kind == kindHist {
				continue
			}
			// Labeled series render as name{k=v,...} so columns stay
			// unique; unlabeled metrics keep their bare name.
			s.cols = append(s.cols, m.id())
			s.kinds = append(s.kinds, m.kind)
		}
	}
	vals := make([]float64, 0, len(s.cols))
	for i := range s.reg.metrics {
		m := &s.reg.metrics[i]
		if m.kind == kindHist {
			continue
		}
		vals = append(vals, m.value())
	}
	s.rows = append(s.rows, sampleRow{Cycle: cycle, Values: vals})
}

// Rows returns the number of samples taken.
func (s *Sampler) Rows() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// WriteCSV renders the time series: one row per sample, first column
// the sample's cycle. Counter columns show the delta accumulated since
// the previous sample (the per-interval event count); gauge columns
// show the sampled value.
func (s *Sampler) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("cycle")
	for _, c := range s.cols {
		sb.WriteByte(',')
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	prev := make([]float64, len(s.cols))
	for _, row := range s.rows {
		fmt.Fprintf(&sb, "%d", row.Cycle)
		for i, v := range row.Values {
			out := v
			if s.kinds[i] == kindCounter {
				out = v - prev[i]
				prev[i] = v
			}
			fmt.Fprintf(&sb, ",%g", out)
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// seriesDoc is the JSON shape of a time series.
type seriesDoc struct {
	Interval uint64      `json:"interval_cycles"`
	Columns  []string    `json:"columns"`
	Kinds    []string    `json:"kinds"`
	Cycles   []uint64    `json:"cycles"`
	Values   [][]float64 `json:"values"` // cumulative, row per sample
}

// WriteJSON renders the time series as JSON with cumulative values
// (consumers can difference counters themselves; kinds labels each
// column counter or gauge).
func (s *Sampler) WriteJSON(w io.Writer) error {
	doc := seriesDoc{Interval: s.every, Columns: s.cols}
	for _, k := range s.kinds {
		doc.Kinds = append(doc.Kinds, k.String())
	}
	for _, row := range s.rows {
		doc.Cycles = append(doc.Cycles, row.Cycle)
		doc.Values = append(doc.Values, row.Values)
	}
	return json.NewEncoder(w).Encode(doc)
}
