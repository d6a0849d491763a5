package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeAndJSONLExport(t *testing.T) {
	var sink bytes.Buffer
	tr := NewTracer("svc", &sink, 0)

	root := tr.StartSpan("job", SpanContext{})
	root.SetAttr("id", "job-000001")
	child := tr.StartSpan("admission", root.Context())
	child.Event("fault", "kind", "shootdown")
	child.End()
	cellCtx := tr.RecordSpan("cell", root.Context(), time.Now().Add(-time.Millisecond), time.Millisecond,
		"scheme", "mtlb", "cached", "false")
	if cellCtx.Trace != root.Context().Trace {
		t.Errorf("RecordSpan trace %s, want %s", cellCtx.Trace, root.Context().Trace)
	}
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rootRec := byName["job"]
	if rootRec.Parent != "" {
		t.Errorf("root has parent %q", rootRec.Parent)
	}
	if rootRec.Attrs["id"] != "job-000001" {
		t.Errorf("root attrs = %v", rootRec.Attrs)
	}
	for _, name := range []string{"admission", "cell"} {
		rec := byName[name]
		if rec.Trace != rootRec.Trace {
			t.Errorf("%s trace %s, want %s", name, rec.Trace, rootRec.Trace)
		}
		if rec.Parent != rootRec.Span {
			t.Errorf("%s parent %s, want %s", name, rec.Parent, rootRec.Span)
		}
		if rec.Service != "svc" {
			t.Errorf("%s service %q", name, rec.Service)
		}
	}
	if evs := byName["admission"].Events; len(evs) != 1 || evs[0].Name != "fault" || evs[0].Attrs["kind"] != "shootdown" {
		t.Errorf("admission events = %+v", byName["admission"].Events)
	}
	if byName["cell"].Attrs["scheme"] != "mtlb" {
		t.Errorf("cell attrs = %v", byName["cell"].Attrs)
	}

	// The live sink received the same records, one JSON line each, in
	// completion order.
	live, err := ReadSpansJSONL(&sink)
	if err != nil {
		t.Fatalf("reading live sink: %v", err)
	}
	if len(live) != 3 {
		t.Fatalf("live sink holds %d spans, want 3", len(live))
	}
	if live[0].Name != "admission" || live[2].Name != "job" {
		t.Errorf("live order = %s, %s, %s", live[0].Name, live[1].Name, live[2].Name)
	}

	// And the retained spans export identically through WriteJSONL.
	var dump bytes.Buffer
	if err := tr.WriteJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	reread, err := ReadSpansJSONL(&dump)
	if err != nil || len(reread) != 3 {
		t.Fatalf("WriteJSONL round trip: %d spans, err %v", len(reread), err)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	tr := NewTracer("svc", nil, 0)
	s := tr.StartSpan("once", SpanContext{})
	s.End()
	s.End()
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestTracerRetentionCap(t *testing.T) {
	tr := NewTracer("svc", nil, 2)
	for i := 0; i < 5; i++ {
		tr.StartSpan("s", SpanContext{}).End()
	}
	if n := len(tr.Spans()); n != 2 {
		t.Errorf("retained %d spans, want 2", n)
	}
	if d := tr.Dropped(); d != 3 {
		t.Errorf("dropped %d, want 3", d)
	}
}

func TestWriteSpanTracePerfetto(t *testing.T) {
	tr := NewTracer("mtlbd", nil, 0)
	root := tr.StartSpan("job", SpanContext{})
	child := tr.StartSpan("cell", root.Context())
	child.Event("fault")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteSpanTrace(&buf, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"job"`, `"cell"`, `"mtlbd"`, `"ph":"X"`, `"ph":"i"`} {
		if !strings.Contains(out, want) {
			t.Errorf("Perfetto export missing %s", want)
		}
	}
}

// TestDisabledTracingAllocatesNothing: with tracing off (a nil tracer),
// an instrumented path costs zero allocations — spans, attributes,
// events and retroactive records alike.
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.StartSpan("op", SpanContext{})
		s.SetAttr("k", "v")
		s.Event("ev", "k", "v")
		_ = s.Context()
		tr.RecordSpan("cell", s.Context(), time.Time{}, 0, "k", "v")
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}
