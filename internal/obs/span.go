package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the in-process wall-clock tracer: spans with a trace
// identity (trace ID + parent span ID) that nest into a tree. The
// benchmark's traced repetition (bench -trace 1) records one span per
// layer and per runner phase with it, and mtlbchaos -trace records one
// span per chaos run with each injected fault as a span event. It
// complements the simulated-cycle Timeline: the Timeline answers
// "where do the machine's cycles go inside one simulation", the Tracer
// answers "where does the host's wall time go".
//
// Like the rest of the package, tracing costs nothing when it is off:
// a nil *Tracer hands out nil *Spans, and every Span method is a no-op
// with zero allocations on a nil receiver, so instrumented paths hold
// plain pointers and never branch on an enabled flag.

// TraceID identifies one trace, a tree of spans (16 bytes, rendered as
// 32 hex digits).
type TraceID [16]byte

// isZero reports whether the ID is unset.
func (t TraceID) isZero() bool { return t == TraceID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace (8 bytes, 16 hex digits).
type SpanID [8]byte

// isZero reports whether the ID is unset.
func (s SpanID) isZero() bool { return s == SpanID{} }

func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the identity of a span: enough for a child to attach
// to it.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// idState seeds span/trace ID generation once per process from the OS
// entropy pool, then advances with a splitmix64 walk — cheap, unique
// within the process, and free of math/rand's global lock.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// nextID draws the next 64 ID bits.
func nextID() uint64 {
	x := idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1 // all-zero IDs mean "unset"
	}
	return x
}

// newTraceID mints a fresh trace ID.
func newTraceID() (t TraceID) {
	binary.BigEndian.PutUint64(t[:8], nextID())
	binary.BigEndian.PutUint64(t[8:], nextID())
	return t
}

// newSpanID mints a fresh span ID.
func newSpanID() (s SpanID) {
	binary.BigEndian.PutUint64(s[:], nextID())
	return s
}

// SpanEvent is a point-in-time annotation within a span — the chaos
// harness marks each injected fault as one, so a trace of a chaos run
// shows exactly where plans fired.
type SpanEvent struct {
	Name string `json:"name"`
	// AtUS is the event time in Unix microseconds.
	AtUS  int64             `json:"at_us"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// SpanRecord is one completed span as exported: a JSON-lines trace
// file holds one of these per line.
type SpanRecord struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Service string `json:"service,omitempty"`
	Name    string `json:"name"`
	// StartUS is the span start in Unix microseconds; DurUS its
	// monotonic-clock duration in microseconds.
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []SpanEvent       `json:"events,omitempty"`
}

// DefaultMaxSpans bounds in-memory span retention per tracer when the
// caller does not choose a cap.
const DefaultMaxSpans = 100_000

// Tracer collects completed spans, optionally streaming each one as a
// JSON line to a live sink the moment it ends. It is safe for
// concurrent use; a nil *Tracer is the disabled facility.
type Tracer struct {
	service string

	mu      sync.Mutex
	sink    io.Writer
	spans   []SpanRecord
	max     int
	dropped uint64
}

// NewTracer returns a tracer stamping spans with the given service
// name. sink, when non-nil, receives each completed span as one JSON
// line immediately (the live trace file); completed spans are also
// retained in memory (up to maxSpans; 0 selects DefaultMaxSpans) for
// Perfetto export.
func NewTracer(service string, sink io.Writer, maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Tracer{service: service, sink: sink, max: maxSpans}
}

// Span is one in-progress operation. A nil *Span absorbs attributes,
// events and End for free, so instrumented code never checks whether
// tracing is on.
type Span struct {
	t      *Tracer
	ctx    SpanContext
	parent SpanID
	name   string
	start  time.Time
	attrs  map[string]string
	events []SpanEvent
	mu     sync.Mutex
	ended  bool
}

// StartSpan begins a span under parent. A zero parent starts a new
// trace; a parent with a trace but no span ID attaches a root span to
// that trace. Returns nil — the free disabled span — on a nil tracer.
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, name: name, start: time.Now(), parent: parent.Span}
	s.ctx.Trace = parent.Trace
	if s.ctx.Trace.isZero() {
		s.ctx.Trace = newTraceID()
	}
	s.ctx.Span = newSpanID()
	return s
}

// Context returns the span's propagable identity; zero on a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr attaches a string attribute. No-op on a nil receiver.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[k] = v
	s.mu.Unlock()
}

// Event records a point-in-time annotation at now. attrs are key,
// value pairs; a trailing odd key is ignored. No-op on a nil receiver.
func (s *Span) Event(name string, attrs ...string) {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: name, AtUS: time.Now().UnixMicro()}
	if len(attrs) >= 2 {
		ev.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			ev.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// End completes the span and hands it to the tracer. Safe to call more
// than once (later calls are ignored); no-op on a nil receiver.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		Trace:   s.ctx.Trace.String(),
		Span:    s.ctx.Span.String(),
		Service: s.t.service,
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   time.Since(s.start).Microseconds(),
		Attrs:   s.attrs,
		Events:  s.events,
	}
	if !s.parent.isZero() {
		rec.Parent = s.parent.String()
	}
	s.mu.Unlock()
	s.t.record(rec)
}

// RecordSpan retroactively records a completed span — the idiom for
// operations whose duration is already measured (the runner's cell
// hook fires after a cell completes, with its wall time in hand).
// attrs are key, value pairs. It returns the recorded span's context so
// children can still attach; zero on a nil tracer.
func (t *Tracer) RecordSpan(name string, parent SpanContext, start time.Time, dur time.Duration, attrs ...string) SpanContext {
	if t == nil {
		return SpanContext{}
	}
	ctx := SpanContext{Trace: parent.Trace, Span: newSpanID()}
	if ctx.Trace.isZero() {
		ctx.Trace = newTraceID()
	}
	rec := SpanRecord{
		Trace:   ctx.Trace.String(),
		Span:    ctx.Span.String(),
		Service: t.service,
		Name:    name,
		StartUS: start.UnixMicro(),
		DurUS:   dur.Microseconds(),
	}
	if !parent.Span.isZero() {
		rec.Parent = parent.Span.String()
	}
	if len(attrs) >= 2 {
		rec.Attrs = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			rec.Attrs[attrs[i]] = attrs[i+1]
		}
	}
	t.record(rec)
	return ctx
}

// record retains the span and streams it to the live sink.
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < t.max {
		t.spans = append(t.spans, rec)
	} else {
		t.dropped++
	}
	if t.sink != nil {
		if buf, err := json.Marshal(rec); err == nil {
			buf = append(buf, '\n')
			t.sink.Write(buf) //nolint:errcheck // sink failures must not fail requests
		}
	}
}

// Spans returns a copy of the retained spans in completion order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord(nil), t.spans...)
}

// Dropped reports spans discarded past the retention cap (the live
// sink, when set, still received them).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WriteJSONL writes the retained spans as JSON lines — the same format
// the live sink receives.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, rec := range t.Spans() {
		buf, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpansJSONL parses a JSON-lines trace file back into records —
// the inverse of WriteJSONL, for tools (and tests) that inspect trace
// files.
func ReadSpansJSONL(r io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	dec := json.NewDecoder(r)
	for {
		var rec SpanRecord
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, rec)
	}
}

// WriteSpanTrace renders completed spans as a Chrome trace-event /
// Perfetto file, reusing the simulated-cycle timeline writer: each
// trace becomes one Perfetto process and each service within it one
// track, with timestamps in microseconds since the earliest span.
// Span events become instants on the same track.
func WriteSpanTrace(w io.Writer, spans []SpanRecord) error {
	if len(spans) == 0 {
		return WriteTrace(w, nil)
	}
	base := spans[0].StartUS
	for _, s := range spans {
		if s.StartUS < base {
			base = s.StartUS
		}
	}
	byTrace := make(map[string][]SpanRecord)
	var order []string
	for _, s := range spans {
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	sort.Strings(order)
	procs := make([]Process, 0, len(order))
	for i, id := range order {
		p := Process{Pid: i + 1, Name: "trace " + id}
		for _, s := range byTrace[id] {
			track := s.Service
			if track == "" {
				track = "spans"
			}
			p.Events = append(p.Events, Event{
				Track: track,
				Name:  s.Name,
				Begin: uint64(s.StartUS - base),
				Dur:   uint64(s.DurUS),
			})
			for _, ev := range s.Events {
				p.Events = append(p.Events, Event{
					Track:   track + " events",
					Name:    ev.Name,
					Begin:   uint64(ev.AtUS - base),
					Instant: true,
				})
			}
		}
		procs = append(procs, p)
	}
	return WriteTrace(w, procs)
}
