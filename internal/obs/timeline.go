package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// DefaultMaxTimelineEvents bounds in-memory timeline growth: it is the
// fixed cap of every session's timeline (~48 bytes/event, so ~100 MB
// at the cap).
const DefaultMaxTimelineEvents = 2_000_000

// Event is one timeline entry in the simulated-cycle domain: a span of
// Dur cycles starting at Begin, or an instant (Dur 0, Instant true).
// Events on one track never overlap; concurrent activities belong on
// separate tracks.
type Event struct {
	Track   string `json:"track"`
	Name    string `json:"name"`
	Begin   uint64 `json:"begin"`
	Dur     uint64 `json:"dur"`
	Instant bool   `json:"instant,omitempty"`
}

// Timeline collects events against a simulated-cycle clock.
type Timeline struct {
	// Now reads the current simulated cycle; the machine assembly wires
	// it to the CPU's cycle count. A nil Now reads as cycle 0.
	Now func() uint64

	max     int
	events  []Event
	dropped uint64
}

// NewTimeline returns an empty timeline holding at most maxEvents
// (0 selects DefaultMaxTimelineEvents).
func NewTimeline(maxEvents int) *Timeline {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxTimelineEvents
	}
	return &Timeline{max: maxEvents}
}

// now reads the clock.
func (t *Timeline) now() uint64 {
	if t.Now == nil {
		return 0
	}
	return t.Now()
}

// add appends an event, honoring the cap. No-op on a nil receiver.
func (t *Timeline) add(e Event) {
	if t == nil {
		return
	}
	if len(t.events) >= t.max {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Span records a span of dur cycles starting now. No-op on a nil
// receiver.
func (t *Timeline) Span(track, name string, dur uint64) {
	if t == nil {
		return
	}
	t.add(Event{Track: track, Name: name, Begin: t.now(), Dur: dur})
}

// SpanAt records a span with an explicit begin cycle, for callers that
// account several adjacent spans before the clock advances. No-op on a
// nil receiver.
func (t *Timeline) SpanAt(track, name string, begin, dur uint64) {
	if t == nil {
		return
	}
	t.add(Event{Track: track, Name: name, Begin: begin, Dur: dur})
}

// Instant records a point event at the current cycle. No-op on a nil
// receiver.
func (t *Timeline) Instant(track, name string) {
	if t == nil {
		return
	}
	t.add(Event{Track: track, Name: name, Begin: t.now(), Instant: true})
}

// Events returns the recorded events in recording order.
func (t *Timeline) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped reports events discarded after the cap was reached.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Process groups one simulated machine's events for trace export; the
// experiment runner exports one Process per cell.
type Process struct {
	Pid     int
	Name    string
	Events  []Event
	Dropped uint64
}

// traceEvent is one Chrome trace-event / Perfetto JSON object. The
// timestamp unit is nominally microseconds; we write simulated CPU
// cycles directly, so one displayed "µs" is one cycle.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`    // instant scope
	Args  map[string]any `json:"args,omitempty"` // metadata payload
}

// traceDoc is the JSON object format of a trace file.
type traceDoc struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteTrace renders the processes as Chrome trace-event JSON loadable
// by Perfetto and chrome://tracing. Within each process, every distinct
// track becomes a named thread; spans are "X" complete events and
// instants are thread-scoped "i" events, all timestamped in simulated
// CPU cycles.
func WriteTrace(w io.Writer, procs []Process) error {
	var dropped uint64
	var evs []traceEvent
	for _, p := range procs {
		dropped += p.Dropped
		evs = append(evs, traceEvent{
			Name: "process_name", Phase: "M", Pid: p.Pid,
			Args: map[string]any{"name": p.Name},
		})
		// Assign tids by first appearance so track order is stable.
		tids := map[string]int{}
		var order []string
		for _, e := range p.Events {
			if _, ok := tids[e.Track]; !ok {
				tids[e.Track] = len(tids) + 1
				order = append(order, e.Track)
			}
		}
		sort.Strings(order)
		for i, track := range order {
			evs = append(evs, traceEvent{
				Name: "thread_name", Phase: "M", Pid: p.Pid, Tid: tids[track],
				Args: map[string]any{"name": track},
			}, traceEvent{
				Name: "thread_sort_index", Phase: "M", Pid: p.Pid, Tid: tids[track],
				Args: map[string]any{"sort_index": i},
			})
		}
		for _, e := range p.Events {
			te := traceEvent{Name: e.Name, TS: e.Begin, Pid: p.Pid, Tid: tids[e.Track]}
			if e.Instant {
				te.Phase = "i"
				te.Scope = "t"
			} else {
				te.Phase = "X"
				dur := e.Dur
				te.Dur = &dur
			}
			evs = append(evs, te)
		}
	}
	doc := traceDoc{
		TraceEvents:     evs,
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"clock":          "simulated CPU cycles (240 MHz); 1 ts unit = 1 cycle",
			"dropped_events": dropped,
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
