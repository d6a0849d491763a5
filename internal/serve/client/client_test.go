package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"shadowtlb/internal/obs"
	"shadowtlb/internal/serve"
)

// startDaemon stands up a real traced serve.Server behind httptest.
func startDaemon(t *testing.T) (*serve.Server, *obs.Tracer, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Config{Workers: 2})
	tr := obs.NewTracer("mtlbd", nil, 0)
	s.SetTracer(tr)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, tr, ts
}

// TestTraceContextRoundTrip is the cross-process propagation check: a
// traced client Run produces client-side submit/wait spans and
// daemon-side job spans in ONE trace, with the daemon's job span
// parented under the client's root.
func TestTraceContextRoundTrip(t *testing.T) {
	_, daemonTr, ts := startDaemon(t)

	clientTr := obs.NewTracer("mtlbexp", nil, 0)
	root := clientTr.StartSpan("invocation", obs.SpanContext{})
	c := New(ts.URL, nil)
	c.SetTracer(clientTr, root.Context())

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := serve.JobSpec{Cells: []serve.CellSpec{{Workload: "stride", TLB: 64}}, Scale: "small"}
	st, err := c.Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	root.End()

	traceID := root.Context().Trace.String()
	if st.Trace != traceID {
		t.Errorf("daemon reported trace %q, want the client's %q", st.Trace, traceID)
	}

	// Client side: invocation, submit, wait — all one trace.
	clientNames := map[string]obs.SpanRecord{}
	for _, s := range clientTr.Spans() {
		if s.Trace != traceID {
			t.Errorf("client span %q in trace %s, want %s", s.Name, s.Trace, traceID)
		}
		clientNames[s.Name] = s
	}
	for _, name := range []string{"invocation", "submit", "wait"} {
		if _, ok := clientNames[name]; !ok {
			t.Errorf("client recorded no %q span", name)
		}
	}

	// Daemon side: the job span joined the same trace, parented under
	// the client's submit span, with the full tree beneath it.
	daemonNames := map[string]obs.SpanRecord{}
	for _, s := range daemonTr.Spans() {
		daemonNames[s.Name] = s
	}
	job, ok := daemonNames["job"]
	if !ok {
		t.Fatal("daemon recorded no job span")
	}
	if job.Trace != traceID {
		t.Errorf("daemon job span in trace %s, want %s", job.Trace, traceID)
	}
	if job.Parent != clientNames["submit"].Span {
		t.Errorf("job span parent %s, want client submit span %s",
			job.Parent, clientNames["submit"].Span)
	}
	for _, name := range []string{"admission", "run", "cell"} {
		s, ok := daemonNames[name]
		if !ok {
			t.Errorf("daemon recorded no %q span", name)
			continue
		}
		if s.Trace != traceID {
			t.Errorf("daemon %s span in trace %s, want %s", name, s.Trace, traceID)
		}
	}
}

// TestRelayOnlyTraceParent: SetTraceParent propagates an upstream
// context without a client-side tracer, and the untraced client sends
// no header at all.
func TestRelayOnlyTraceParent(t *testing.T) {
	_, daemonTr, ts := startDaemon(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := serve.JobSpec{Cells: []serve.CellSpec{{Workload: "stride", TLB: 96}}, Scale: "small"}

	upstream := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	c := New(ts.URL, nil)
	c.SetTraceParent(upstream.TraceParent())
	st, err := c.Run(ctx, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace != upstream.Trace.String() {
		t.Errorf("relayed trace %q, want %q", st.Trace, upstream.Trace)
	}

	// Garbage input clears the context; the daemon mints a fresh trace.
	c2 := New(ts.URL, nil)
	c2.SetTraceParent("not-a-traceparent")
	st2, err := c2.Run(ctx, serve.JobSpec{Cells: []serve.CellSpec{{Workload: "stride", TLB: 128}}, Scale: "small"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Trace == "" || st2.Trace == upstream.Trace.String() {
		t.Errorf("fresh trace %q, want a new non-empty id", st2.Trace)
	}
	if len(daemonTr.Spans()) == 0 {
		t.Error("daemon recorded no spans")
	}
}

// TestRequestObserver: OnRequest sees every non-stream API call with
// route shapes, statuses and durations — the hook mtlbload's latency
// percentiles hang off.
func TestRequestObserver(t *testing.T) {
	_, _, ts := startDaemon(t)
	c := New(ts.URL, nil)
	var infos []RequestInfo
	c.OnRequest(func(ri RequestInfo) { infos = append(infos, ri) })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Readyz(ctx); err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(ctx, serve.JobSpec{Cells: []serve.CellSpec{{Workload: "stride", TLB: 64}}, Scale: "small"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(ctx, id); err != nil {
		t.Fatal(err)
	}

	want := []struct{ method, path string }{
		{"GET", "/readyz"},
		{"POST", "/v1/jobs"},
		{"GET", "/v1/jobs/{id}"},
	}
	if len(infos) != len(want) {
		t.Fatalf("observer saw %d requests, want %d: %+v", len(infos), len(want), infos)
	}
	for i, w := range want {
		ri := infos[i]
		if ri.Method != w.method || ri.Path != w.path {
			t.Errorf("request %d: %s %s, want %s %s", i, ri.Method, ri.Path, w.method, w.path)
		}
		if ri.Status < 200 || ri.Status > 299 {
			t.Errorf("request %d: status %d", i, ri.Status)
		}
		if ri.Dur <= 0 {
			t.Errorf("request %d: non-positive duration", i)
		}
	}
}

// stubDaemon is a scripted submit endpoint: the first rejections
// submissions get 429 with the given Retry-After header, then accepts.
type stubDaemon struct {
	mu         sync.Mutex
	attempts   int
	rejections int
	retryAfter string
}

func (s *stubDaemon) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.attempts++
		n := s.attempts
		s.mu.Unlock()
		if n <= s.rejections {
			if s.retryAfter != "" {
				w.Header().Set("Retry-After", s.retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"serve: job queue full"}`)) //nolint:errcheck
			return
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"job-000042"}`)) //nolint:errcheck
	})
	return mux
}

func (s *stubDaemon) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts
}

// TestSubmitRetriesOn429 pins the backoff satellite: with a RetryPolicy
// installed, Submit absorbs 429s, waits, and eventually returns the
// accepted id — the caller never sees the rejections.
func TestSubmitRetriesOn429(t *testing.T) {
	stub := &stubDaemon{rejections: 2, retryAfter: "1"}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	c := New(ts.URL, nil)
	var retries []time.Duration
	c.SetRetry(RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond, // cap beats the 1s Retry-After; tests stay fast
		Jitter:      -1,
		OnRetry:     func(_ int, d time.Duration) { retries = append(retries, d) },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id, err := c.Submit(ctx, serve.JobSpec{Experiments: []string{"fig3"}})
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000042" {
		t.Fatalf("id = %q", id)
	}
	if stub.count() != 3 {
		t.Fatalf("daemon saw %d attempts, want 3", stub.count())
	}
	if len(retries) != 2 {
		t.Fatalf("OnRetry fired %d times, want 2: %v", len(retries), retries)
	}
	for i, d := range retries {
		if d > 5*time.Millisecond {
			t.Errorf("retry %d waited %v, above the cap", i, d)
		}
	}
}

// TestSubmitRetryExhaustion: a persistently full queue surfaces the
// final 429 after exactly MaxAttempts tries.
func TestSubmitRetryExhaustion(t *testing.T) {
	stub := &stubDaemon{rejections: 1 << 30}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	c := New(ts.URL, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: -1})
	_, err := c.Submit(context.Background(), serve.JobSpec{Experiments: []string{"fig3"}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want a 429 StatusError", err)
	}
	if stub.count() != 3 {
		t.Fatalf("daemon saw %d attempts, want 3", stub.count())
	}
}

// TestSubmitDoesNotRetryOtherErrors: only 429 is retryable; a draining
// daemon's 503 (or a 400) surfaces immediately.
func TestSubmitDoesNotRetryOtherErrors(t *testing.T) {
	var attempts int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts++
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error":"serve: draining, not accepting jobs"}`)) //nolint:errcheck
	}))
	defer ts.Close()

	c := New(ts.URL, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: -1})
	_, err := c.Submit(context.Background(), serve.JobSpec{Experiments: []string{"fig3"}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want a 503 StatusError", err)
	}
	if attempts != 1 {
		t.Fatalf("daemon saw %d attempts, want 1", attempts)
	}
}

// TestSubmitRetryHonorsContext: cancellation interrupts the backoff
// wait instead of sleeping it out.
func TestSubmitRetryHonorsContext(t *testing.T) {
	stub := &stubDaemon{rejections: 1 << 30, retryAfter: "30"}
	ts := httptest.NewServer(stub.handler())
	defer ts.Close()

	c := New(ts.URL, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 5, MaxDelay: time.Minute, Jitter: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Submit(ctx, serve.JobSpec{Experiments: []string{"fig3"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Submit slept through the Retry-After instead of honoring the context")
	}
}

// TestRetryDelayCurve pins the backoff shape: exponential growth from
// BaseDelay, floored by Retry-After, capped at MaxDelay.
func TestRetryDelayCurve(t *testing.T) {
	p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: -1}
	cases := []struct {
		attempt    int
		retryAfter time.Duration
		want       time.Duration
	}{
		{1, 0, 100 * time.Millisecond},
		{2, 0, 200 * time.Millisecond},
		{3, 0, 400 * time.Millisecond},
		{5, 0, time.Second},                                 // curve capped
		{1, 300 * time.Millisecond, 300 * time.Millisecond}, // Retry-After floor
		{1, time.Minute, time.Second},                       // hint capped too
		{80, 0, time.Second},                                // shift overflow clamps to cap
	}
	for _, tc := range cases {
		if got := p.delay(tc.attempt, tc.retryAfter); got != tc.want {
			t.Errorf("delay(%d, %v) = %v, want %v", tc.attempt, tc.retryAfter, got, tc.want)
		}
	}
}

// TestEndpointsAgainstDaemon drives every read and control call of the
// client against one real daemon, in order: liveness, readiness, the
// experiment registry, a job run to done, its status and a no-op
// cancel, the metrics dump (which counts the cached cell), typed
// errors for an unknown job, and finally readiness while draining.
func TestEndpointsAgainstDaemon(t *testing.T) {
	s, _, ts := startDaemon(t)
	c := New(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var done serve.JobStatus

	t.Run("healthz", func(t *testing.T) {
		if err := c.Healthz(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("readyz", func(t *testing.T) {
		if err := c.Readyz(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("experiments", func(t *testing.T) {
		got, err := c.Experiments(ctx)
		if err != nil {
			t.Fatal(err)
		}
		want := serve.Experiments()
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("listed %d experiments, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("experiment %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
	t.Run("run", func(t *testing.T) {
		var types []string
		st, err := c.Run(ctx, serve.JobSpec{Cells: []serve.CellSpec{{Workload: "stride", TLB: 64}}, Scale: "small"},
			func(ev serve.Event) { types = append(types, ev.Type) })
		if err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone || st.Result == nil || len(st.Result.Cells) != 1 {
			t.Fatalf("job %s (%s): result %+v", st.State, st.Error, st.Result)
		}
		if len(types) == 0 || types[len(types)-1] != "done" {
			t.Errorf("event stream %v, want it to end with done", types)
		}
		done = st
	})
	if done.ID == "" {
		t.Fatal("no finished job to inspect")
	}
	t.Run("status", func(t *testing.T) {
		st, err := c.Status(ctx, done.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone || st.Result == nil || st.Result.Cells[0].Result != done.Result.Cells[0].Result {
			t.Errorf("status %s disagrees with the finished run", st.State)
		}
	})
	t.Run("cancel finished job", func(t *testing.T) {
		if err := c.Cancel(ctx, done.ID); err != nil {
			t.Fatal(err)
		}
		st, err := c.Status(ctx, done.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone {
			t.Errorf("canceling a done job moved it to %s", st.State)
		}
	})
	t.Run("metrics", func(t *testing.T) {
		raw, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var dump []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal(raw, &dump); err != nil {
			t.Fatal(err)
		}
		got := map[string]float64{}
		for _, m := range dump {
			got[m.Name] = m.Value
		}
		for name, want := range map[string]float64{
			"serve.jobs_done":     1,
			"serve.cache_entries": 1,
			"serve.cache_misses":  1,
		} {
			if got[name] != want {
				t.Errorf("%s = %v, want %v", name, got[name], want)
			}
		}
	})
	t.Run("unknown job", func(t *testing.T) {
		var se *StatusError
		if _, err := c.Status(ctx, "no-such-job"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("Status(unknown) = %v, want HTTP 404", err)
		}
		if err := c.Cancel(ctx, "no-such-job"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("Cancel(unknown) = %v, want HTTP 404", err)
		}
		if _, err := c.Wait(ctx, "no-such-job", nil); !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("Wait(unknown) = %v, want HTTP 404", err)
		}
	})
	t.Run("readyz while draining", func(t *testing.T) {
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		var se *StatusError
		if err := c.Readyz(ctx); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			t.Errorf("Readyz while draining = %v, want HTTP 503", err)
		}
		if err := c.Healthz(ctx); err != nil {
			t.Errorf("Healthz while draining = %v, want 200", err)
		}
	})
}
