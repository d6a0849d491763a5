package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"shadowtlb/internal/obs"
)

// spansByName indexes a tracer's records, failing on duplicates so
// assertions stay unambiguous.
func spansByName(t *testing.T, tr *obs.Tracer) map[string][]obs.SpanRecord {
	t.Helper()
	out := make(map[string][]obs.SpanRecord)
	for _, s := range tr.Spans() {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// TestJobTraceTree pins the tentpole acceptance path: a traced
// submission produces one trace covering submit → admission → run →
// per-cell, with the caller's traceparent adopted as the root and
// cache-hit cells marked as such on a repeat job.
func TestJobTraceTree(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	tr := obs.NewTracer("mtlbd", nil, 0)
	s.SetTracer(tr)

	parent := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	body := strings.NewReader(`{"cells":[{"workload":"stride","tlb":64,"mtlb":128}],"scale":"small"}`)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parent.TraceParent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		ID    string `json:"id"`
		Trace string `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if accepted.Trace != parent.Trace.String() {
		t.Fatalf("accepted trace %q, want caller's %q", accepted.Trace, parent.Trace)
	}
	st := waitTerminal(t, s, ts, accepted.ID)
	if st.State != StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	if st.Trace != parent.Trace.String() {
		t.Errorf("status trace %q, want %q", st.Trace, parent.Trace)
	}

	spans := spansByName(t, tr)
	job := spans["job"]
	if len(job) != 1 {
		t.Fatalf("got %d job spans, want 1", len(job))
	}
	if job[0].Trace != parent.Trace.String() || job[0].Parent != parent.Span.String() {
		t.Errorf("job span trace=%s parent=%s, want trace=%s parent=%s",
			job[0].Trace, job[0].Parent, parent.Trace, parent.Span)
	}
	if job[0].Attrs["state"] != "done" {
		t.Errorf("job span state attr = %q", job[0].Attrs["state"])
	}
	for _, name := range []string{"admission", "run"} {
		got := spans[name]
		if len(got) != 1 {
			t.Fatalf("got %d %s spans, want 1", len(got), name)
		}
		if got[0].Parent != job[0].Span {
			t.Errorf("%s span parent %s, want job span %s", name, got[0].Parent, job[0].Span)
		}
	}
	cells := spans["cell"]
	if len(cells) != 1 {
		t.Fatalf("got %d cell spans, want 1", len(cells))
	}
	if cells[0].Parent != spans["run"][0].Span {
		t.Errorf("cell span parent %s, want run span %s", cells[0].Parent, spans["run"][0].Span)
	}
	if cells[0].Attrs["scheme"] != "mtlb" || cells[0].Attrs["cached"] != "false" {
		t.Errorf("first-run cell attrs = %v", cells[0].Attrs)
	}

	// The identical job again: its cell is a cache hit, visible in the
	// second trace.
	id2 := submitOK(t, ts, JobSpec{Cells: []CellSpec{{Workload: "stride", TLB: 64, MTLB: 128}}, Scale: "small"})
	if st := waitTerminal(t, s, ts, id2); st.State != StateDone {
		t.Fatalf("repeat job state %s: %s", st.State, st.Error)
	}
	cells = spansByName(t, tr)["cell"]
	if len(cells) != 2 {
		t.Fatalf("got %d cell spans after repeat, want 2", len(cells))
	}
	if cells[1].Attrs["cached"] != "true" {
		t.Errorf("repeat cell attrs = %v, want cached=true", cells[1].Attrs)
	}
}

// TestJobSpanEndsBeforeTerminalState: a job's span is recorded before
// its terminal state and final event become visible, so a client that
// sees the job finish and then reads the trace finds the job span,
// with its state attribute.
func TestJobSpanEndsBeforeTerminalState(t *testing.T) {
	for _, err := range []error{nil, context.Canceled, errors.New("boom")} {
		probe := &stateProbe{}
		tr := obs.NewTracer("mtlbd", probe, 0)
		j := newJob("j", JobSpec{})
		j.span = tr.StartSpan("job", obs.SpanContext{})
		probe.j = j
		j.start(1)
		j.finish(&JobResult{}, err)
		if len(probe.states) != 1 || probe.states[0].Terminal() {
			t.Errorf("err %v: job states seen as the span ended: %v, want one non-terminal", err, probe.states)
		}
		if spans := tr.Spans(); len(spans) != 1 || spans[0].Attrs["state"] != string(j.State()) {
			t.Errorf("err %v: spans %+v, want one with state %s", err, spans, j.State())
		}
	}
}

// stateProbe is a span sink that notes the job's state as each span is
// recorded.
type stateProbe struct {
	j      *Job
	states []JobState
}

func (p *stateProbe) Write(b []byte) (int, error) {
	p.states = append(p.states, p.j.State())
	return len(b), nil
}

// TestUntracedServerOmitsTraceFields: with no tracer the API surface is
// byte-identical to the pre-telemetry daemon — no trace key anywhere.
func TestUntracedServerOmitsTraceFields(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	id := submitOK(t, ts, cheapSpec(64))
	waitTerminal(t, s, ts, id)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(raw), `"trace"`) {
		t.Errorf("untraced status document leaks a trace field:\n%s", raw)
	}
	if len(s.Tracer().Spans()) != 0 {
		t.Errorf("nil tracer recorded spans")
	}
}

// TestMetricsContentNegotiation: the default stays JSON (curl and the
// existing tools), the Prometheus form is opt-in via query parameter or
// an explicit Accept, and the exposition passes its own linter with the
// scheme-labeled histogram family present.
func TestMetricsContentNegotiation(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	id := submitOK(t, ts, JobSpec{Cells: []CellSpec{{Workload: "stride", TLB: 64, MTLB: 128}}, Scale: "small"})
	waitTerminal(t, s, ts, id)

	get := func(path, accept string) (string, string) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw), resp.Header.Get("Content-Type")
	}

	// Default (and curl's */*) stays the JSON dump.
	body, ct := get("/metrics", "*/*")
	if ct != "application/json" {
		t.Errorf("default /metrics content type %q", ct)
	}
	var dump []obs.DumpMetric
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("default /metrics is not the JSON dump: %v", err)
	}

	for _, req := range []struct{ path, accept string }{
		{"/metrics?format=prometheus", ""},
		{"/metrics", "text/plain"},
		{"/metrics", "application/openmetrics-text;version=1.0.0"},
	} {
		body, ct := get(req.path, req.accept)
		if !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s accept=%q: content type %q", req.path, req.accept, ct)
		}
		if errs := obs.LintPrometheus(strings.NewReader(body)); len(errs) != 0 {
			t.Fatalf("%s: exposition fails lint: %v\n%s", req.path, errs[0], body)
		}
		for _, want := range []string{
			"# TYPE serve_cell_wall_by_scheme_us histogram",
			`serve_cell_wall_by_scheme_us_count{scheme="mtlb"} 1`,
			"serve_jobs_submitted 1",
			`serve_cache_outcome{outcome="miss"} 1`,
			`serve_cache_outcome{outcome="disk"} 0`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s missing %q", req.path, want)
			}
		}
	}

	// The explicit format parameter beats Accept.
	if body, _ := get("/metrics?format=json", "text/plain"); !json.Valid([]byte(body)) {
		t.Errorf("format=json with text Accept did not return JSON")
	}
}

// TestHealthzReadyzSplit: liveness and readiness agree while serving;
// the drain test covers their divergence.
func TestHealthzReadyzSplit(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestStreamTelemetry: consuming an event stream records a TTFB sample
// and, when tracing, a stream span parented under the job.
func TestStreamTelemetry(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	tr := obs.NewTracer("mtlbd", nil, 0)
	s.SetTracer(tr)

	id := submitOK(t, ts, cheapSpec(64))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // consuming to terminal
	resp.Body.Close()

	spans := spansByName(t, tr)
	stream := spans["stream"]
	if len(stream) != 1 {
		t.Fatalf("got %d stream spans, want 1", len(stream))
	}
	if job := spans["job"]; len(job) != 1 || stream[0].Parent != job[0].Span {
		t.Errorf("stream span parent %q not the job span", stream[0].Parent)
	}
	if stream[0].Attrs["ttfb_us"] == "" {
		t.Errorf("stream span has no ttfb_us attr: %v", stream[0].Attrs)
	}

	var buf strings.Builder
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serve_stream_ttfb_us_count 1") {
		t.Errorf("stream TTFB histogram not observed:\n%s", buf.String())
	}
}
