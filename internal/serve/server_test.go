package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"shadowtlb/internal/core"
	"shadowtlb/internal/obs"
	"shadowtlb/internal/sim"
)

// startServer builds a started server plus its httptest front end.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain on cleanup: %v", err)
		}
	})
	return s, ts
}

// postJob submits a spec and returns the response.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// submitOK submits a spec and returns the accepted job id.
func submitOK(t *testing.T, ts *httptest.Server, spec JobSpec) string {
	t.Helper()
	resp := postJob(t, ts, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

// getStatus fetches a job status document.
func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s: HTTP %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal blocks on the job's done channel — closed strictly after
// the terminal state is published — then snapshots the status over HTTP.
// Event-driven, so it stays reliable under -race -count=5 load where
// poll loops flake.
func waitTerminal(t *testing.T, s *Server, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never reached a terminal state", id)
	}
	return getStatus(t, ts, id)
}

// cheapSpec is a fast real simulation job.
func cheapSpec(tlb int) JobSpec {
	return JobSpec{Cells: []CellSpec{{Workload: "stride", TLB: tlb}}, Scale: "small"}
}

func TestJobLifecycleAndEvents(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 2})
	id := submitOK(t, ts, JobSpec{
		Cells: []CellSpec{
			{Workload: "stride", TLB: 64},
			{Workload: "stride", TLB: 64}, // duplicate: one distinct cell
			{Workload: "stride", TLB: 128},
		},
		Scale: "small",
	})

	// Stream events to the end; the server closes the stream at the
	// terminal event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var types []string
	var cellEvents []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		if ev.JobID != id {
			t.Errorf("event for wrong job: %+v", ev)
		}
		types = append(types, ev.Type)
		if ev.Type == "cell" {
			cellEvents = append(cellEvents, ev)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(types) < 3 || types[0] != "queued" || types[1] != "started" || types[len(types)-1] != "done" {
		t.Fatalf("event sequence %v", types)
	}
	if len(cellEvents) != 2 {
		t.Fatalf("%d cell events for 2 distinct cells", len(cellEvents))
	}

	st := waitTerminal(t, s, ts, id)
	if st.State != StateDone {
		t.Fatalf("state %s: %s", st.State, st.Error)
	}
	if st.Progress.CellsTotal != 2 || st.Progress.CellsDone != 2 {
		t.Errorf("progress %+v", st.Progress)
	}
	if len(st.Result.Cells) != 3 {
		t.Fatalf("%d cell results for 3 requested cells", len(st.Result.Cells))
	}
	if st.Result.Cells[0].Result != st.Result.Cells[1].Result {
		t.Error("duplicate cells returned different results")
	}
	if st.Result.Cells[0].Key == st.Result.Cells[2].Key {
		t.Error("distinct cells share a key")
	}

	// Canceling a finished job changes nothing: it answers 200 with the
	// job still done.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Errorf("cancel of a done job: HTTP %d, want 200", cr.StatusCode)
	}
	if st := getStatus(t, ts, id); st.State != StateDone {
		t.Errorf("canceling a done job moved it to %s", st.State)
	}
}

func TestExperimentJobRendersTables(t *testing.T) {
	s, ts := startServer(t, Config{})
	id := submitOK(t, ts, JobSpec{Experiments: []string{"tlbtime"}, Scale: "small"})
	st := waitTerminal(t, s, ts, id)
	if st.State != StateDone {
		t.Fatalf("state %s: %s", st.State, st.Error)
	}
	if len(st.Result.Experiments) != 1 || st.Result.Experiments[0].ID != "tlbtime" {
		t.Fatalf("experiments %+v", st.Result.Experiments)
	}
	tbl := st.Result.Experiments[0].Tables
	if len(tbl) == 0 || tbl[0].Text == "" || tbl[0].CSV == "" {
		t.Fatalf("empty rendered tables: %+v", tbl)
	}
	if st.Result.Manifest == nil || len(st.Result.Manifest.Cells) == 0 {
		t.Error("missing run manifest")
	}
}

func TestValidationRejects(t *testing.T) {
	_, ts := startServer(t, Config{})
	// Each refusal is 400 with the JSON error document.
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"neither cells nor experiments", JobSpec{}},
		{"both cells and experiments", JobSpec{Cells: []CellSpec{{Workload: "stride"}}, Experiments: []string{"fig3"}}},
		{"unknown workload", JobSpec{Cells: []CellSpec{{Workload: "no-such-workload"}}}},
		{"unknown cell scale", JobSpec{Cells: []CellSpec{{Workload: "stride", Scale: "huge"}}}},
		{"unknown experiment", JobSpec{Experiments: []string{"no-such-experiment"}}},
		{"unknown job scale", JobSpec{Experiments: []string{"fig3"}, Scale: "huge"}},
		// timeout_ms must be a non-negative count of milliseconds that a
		// time.Duration holds; larger values would wrap negative.
		{"negative timeout", JobSpec{Experiments: []string{"fig3"}, Scale: "small", TimeoutMS: -1}},
		{"timeout one past the bound", JobSpec{Experiments: []string{"fig3"}, Scale: "small", TimeoutMS: maxTimeoutMS + 1}},
		{"timeout 2^62 ms", JobSpec{Experiments: []string{"fig3"}, Scale: "small", TimeoutMS: 1 << 62}},
		{"timeout MaxInt64 ms", JobSpec{Experiments: []string{"fig3"}, Scale: "small", TimeoutMS: math.MaxInt64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJob(t, ts, tc.spec)
			var doc struct {
				Error string `json:"error"`
			}
			err := json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400", resp.StatusCode)
			}
			if err != nil || doc.Error == "" {
				t.Errorf("no JSON error document (%v)", err)
			}
		})
	}
	// Malformed JSON and unknown fields are 400. A body one byte over
	// maxSubmitBytes is 413 and one at the bound is admitted; the padding
	// sits inside the braces, so the decoder must read to the bound.
	pad := func(n int, fields string) string {
		return "{" + strings.Repeat(" ", n-1-len(fields)) + fields
	}
	const cheap = `"cells":[{"workload":"stride","tlb":64}],"scale":"small"}`
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"truncated body", "{", http.StatusBadRequest},
		{"unknown field", `{"cels": []}`, http.StatusBadRequest},
		{"body over the bound", pad(maxSubmitBytes+1, cheap), http.StatusRequestEntityTooLarge},
		{"body at the bound", pad(maxSubmitBytes, cheap), http.StatusAccepted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("HTTP %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.want != http.StatusAccepted && (err != nil || doc.Error == "") {
				t.Errorf("no JSON error document (%v)", err)
			}
		})
	}
}

// TestLargestTimeoutRunsToDone: the largest admitted timeout_ms becomes
// a deadline centuries away, so the job runs to done instead of wrapping
// into an instant cancel.
func TestLargestTimeoutRunsToDone(t *testing.T) {
	s, ts := startServer(t, Config{})
	spec := cheapSpec(64)
	spec.TimeoutMS = maxTimeoutMS
	if st := waitTerminal(t, s, ts, submitOK(t, ts, spec)); st.State != StateDone {
		t.Fatalf("job with timeout_ms %d: state %s (%s)", spec.TimeoutMS, st.State, st.Error)
	}
}

// TestSchemeAdmission covers the translation-scheme field end to end:
// unknown schemes are 400s whose body names the registered set (both in
// the shortcut spec and inside a full Config), and a job using a
// registered non-default backend runs to completion and reports that
// scheme in its result.
func TestSchemeAdmission(t *testing.T) {
	s, ts := startServer(t, Config{})

	fullCfg := sim.Default().WithMTLB(core.DefaultMTLBConfig()).WithScheme("bogus")
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"shortcut field", JobSpec{Cells: []CellSpec{{Workload: "stride", MTLB: 128, Scheme: "bogus"}}, Scale: "small"}},
		{"full config", JobSpec{Cells: []CellSpec{{Workload: "stride", Config: &fullCfg}}, Scale: "small"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJob(t, ts, tc.spec)
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400", resp.StatusCode)
			}
			for _, want := range append([]string{"bogus"}, core.SchemeNames()...) {
				if !strings.Contains(string(body), want) {
					t.Errorf("400 body %q does not name %q", body, want)
				}
			}
		})
	}

	id := submitOK(t, ts, JobSpec{
		Cells: []CellSpec{{Workload: "stride", TLB: 64, MTLB: 128, Scheme: core.SchemeCoalesced}},
		Scale: "small",
	})
	st := waitTerminal(t, s, ts, id)
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if got := st.Result.Cells[0].Result.Scheme; got != core.SchemeCoalesced {
		t.Errorf("result scheme = %q, want %q", got, core.SchemeCoalesced)
	}
}

func TestOverloadReturns429WithRetryAfter(t *testing.T) {
	const queueCap = 3
	s, ts := startServer(t, Config{QueueCap: queueCap, JobWorkers: 1})
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	s.testExec = func(ctx context.Context, j *Job) (*JobResult, error) {
		j.start(0)
		started <- struct{}{}
		select {
		case <-block:
			return &JobResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// The first job occupies the single executor — wait until it has
	// been dequeued, so the queue is observably empty before filling it.
	// Then queueCap more fill the queue exactly, and every submission
	// beyond that must bounce with 429 + Retry-After.
	var ids []string
	ids = append(ids, submitOK(t, ts, cheapSpec(64)))
	<-started
	for i := 0; i < queueCap; i++ {
		ids = append(ids, submitOK(t, ts, cheapSpec(64)))
	}
	for i := 0; i < 3; i++ {
		resp := postJob(t, ts, cheapSpec(64))
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("overflow submit %d: HTTP %d, want 429", i, resp.StatusCode)
			resp.Body.Close()
			continue
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Error("429 without Retry-After")
		}
		var doc struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || doc.Error == "" {
			t.Errorf("429 without JSON error: %v", err)
		}
		resp.Body.Close()
	}

	// Admitted jobs all complete once unblocked.
	close(block)
	for _, id := range ids {
		if st := waitTerminal(t, s, ts, id); st.State != StateDone {
			t.Errorf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	s, ts := startServer(t, Config{JobWorkers: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	s.testExec = func(ctx context.Context, j *Job) (*JobResult, error) {
		j.start(0)
		started <- struct{}{}
		<-release
		return &JobResult{}, nil
	}

	id := submitOK(t, ts, cheapSpec(64))
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()

	// Draining must become observable, then new submissions bounce with
	// 503 and readiness degrades — while liveness stays green so an
	// orchestrator does not kill the daemon mid-drain.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	resp := postJob(t, ts, cheapSpec(64))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: HTTP %d, want 503", rz.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: HTTP %d, want 200", hz.StatusCode)
	}

	// The in-flight job holds the drain open until released.
	select {
	case err := <-drained:
		t.Fatalf("drain returned with a job in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := getStatus(t, ts, id); st.State != StateDone {
		t.Errorf("in-flight job after drain: %s", st.State)
	}
}

// TestDrainFlushesTerminalEventToOpenStream pins the graceful-shutdown
// contract a streaming client depends on: a drain that begins while an
// NDJSON event stream is open mid-job must let the job finish and flush
// its terminal event down that same stream — not sever the connection —
// so `mtlbexp -server` against a SIGTERMed daemon sees a clean "done"
// line instead of an EOF mid-read.
func TestDrainFlushesTerminalEventToOpenStream(t *testing.T) {
	s, ts := startServer(t, Config{JobWorkers: 2})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testExec = func(ctx context.Context, j *Job) (*JobResult, error) {
		j.start(0)
		started <- struct{}{}
		<-release
		return &JobResult{}, nil
	}

	id := submitOK(t, ts, cheapSpec(64))
	<-started

	// Open the stream while the job is provably mid-execution.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text()
		}
		scanErr <- sc.Err()
		close(lines)
	}()
	// The stream replays at least the queued event before any terminal
	// one; consume until the job is visibly started on the wire.
	waitType := func(want string) {
		t.Helper()
		for line := range lines {
			var ev Event
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad event line %q: %v", line, err)
			}
			if ev.Type == want {
				return
			}
		}
		t.Fatalf("stream closed before %q event", want)
	}
	waitType("started")

	// Drain begins mid-stream, mid-job.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)

	// The open stream must end with the flushed terminal event.
	waitType("done")
	for range lines { // drain any trailing lines until close
	}
	if err := <-scanErr; err != nil {
		t.Fatalf("stream read after drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestCancelAndDeadlineReleaseWorkers(t *testing.T) {
	s, ts := startServer(t, Config{JobWorkers: 1, Workers: 2})
	baseline := runtime.NumGoroutine()

	// A held cancelable job.
	started := make(chan struct{}, 4)
	s.testExec = func(ctx context.Context, j *Job) (*JobResult, error) {
		j.start(0)
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	id := submitOK(t, ts, cheapSpec(64))
	<-started
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := waitTerminal(t, s, ts, id); st.State != StateCanceled {
		t.Fatalf("canceled job state %s", st.State)
	}

	// A deadline job.
	id2 := submitOK(t, ts, JobSpec{Cells: []CellSpec{{Workload: "stride"}}, Scale: "small", TimeoutMS: 20})
	if st := waitTerminal(t, s, ts, id2); st.State != StateCanceled {
		t.Fatalf("deadline job state %s (%s)", st.State, st.Error)
	}

	// The executor slot is free again: a real job completes.
	s.testExec = nil
	id3 := submitOK(t, ts, cheapSpec(64))
	if st := waitTerminal(t, s, ts, id3); st.State != StateDone {
		t.Fatalf("post-cancel job state %s (%s)", st.State, st.Error)
	}

	// No goroutines leaked from the canceled jobs (allow scheduler and
	// httptest slack).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+5 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d at start, %d after canceled jobs", baseline, runtime.NumGoroutine())
}

func TestCancelQueuedJob(t *testing.T) {
	s, ts := startServer(t, Config{JobWorkers: 1})
	release := make(chan struct{})
	s.testExec = func(ctx context.Context, j *Job) (*JobResult, error) {
		j.start(0)
		select {
		case <-release:
			return &JobResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	blocker := submitOK(t, ts, cheapSpec(64))
	queued := submitOK(t, ts, cheapSpec(96))

	j, ok := s.Job(queued)
	if !ok {
		t.Fatal("queued job not registered")
	}
	j.Cancel()
	close(release)
	if st := waitTerminal(t, s, ts, queued); st.State != StateCanceled {
		t.Errorf("queued-then-canceled job: %s", st.State)
	}
	if st := waitTerminal(t, s, ts, blocker); st.State != StateDone {
		t.Errorf("blocker job: %s (%s)", st.State, st.Error)
	}
}

func TestPanickingJobFailsAlone(t *testing.T) {
	s, ts := startServer(t, Config{JobWorkers: 1})
	s.testExec = func(ctx context.Context, j *Job) (*JobResult, error) {
		j.start(0)
		panic("deliberate test panic")
	}
	id := submitOK(t, ts, cheapSpec(64))
	st := waitTerminal(t, s, ts, id)
	if st.State != StateFailed || !strings.Contains(st.Error, "deliberate test panic") {
		t.Fatalf("panicking job: state %s, error %q", st.State, st.Error)
	}

	// The executor survived; the next job runs.
	s.testExec = nil
	id2 := submitOK(t, ts, cheapSpec(64))
	if st := waitTerminal(t, s, ts, id2); st.State != StateDone {
		t.Fatalf("job after panic: %s (%s)", st.State, st.Error)
	}
}

func TestExperimentsAndMetricsEndpoints(t *testing.T) {
	_, ts := startServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) == 0 {
		t.Fatal("no experiments listed")
	}
	ids := map[string]bool{}
	for _, in := range infos {
		ids[in.ID] = true
	}
	for _, want := range []string{"fig3", "fig4", "tlbtime", "reach"} {
		if !ids[want] {
			t.Errorf("experiment %s missing from listing", want)
		}
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var dump []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(mr.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	names := map[string]bool{}
	for _, m := range dump {
		names[m.Name] = true
	}
	for _, want := range []string{
		"serve.jobs_submitted", "serve.jobs_rejected", "serve.queue_depth",
		"serve.jobs_inflight", "serve.cache_hits", "serve.cache_misses",
		"serve.cell_wall_us", "serve.job_wall_us",
	} {
		if !names[want] {
			t.Errorf("metric %s missing from /metrics", want)
		}
	}
}

// TestMetricsPublishedBeforeDone: a client woken by a job's Done must
// find the job in the registry — counted as done, its wall time
// observed and no longer in flight.
func TestMetricsPublishedBeforeDone(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	id := submitOK(t, ts, cheapSpec(64))
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never reached a terminal state", id)
	}
	got := map[string]float64{}
	for _, m := range s.Registry().Dump() {
		got[m.Name] = m.Value
	}
	for name, want := range map[string]float64{
		"serve.job_wall_us":   1, // a histogram's value is its count
		"serve.jobs_done":     1,
		"serve.jobs_inflight": 0,
		"serve.cache_entries": 1,
	} {
		if got[name] != want {
			t.Errorf("%s = %v when Done closed, want %v", name, got[name], want)
		}
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := startServer(t, Config{})
	for _, r := range []struct{ name, method, path string }{
		{"status", http.MethodGet, "/v1/jobs/nope"},
		{"events", http.MethodGet, "/v1/jobs/nope/events"},
		{"cancel", http.MethodDelete, "/v1/jobs/nope"},
	} {
		t.Run(r.name, func(t *testing.T) {
			req, err := http.NewRequest(r.method, ts.URL+r.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: HTTP %d, want 404", r.method, r.path, resp.StatusCode)
			}
		})
	}
}

// TestStoreServesAfterRestart: a daemon started over the store
// directory a drained daemon left behind serves a repeat experiment job
// wholly from disk, with no simulation, and renders the same tables.
func TestStoreServesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	run := func() (*Server, *httptest.Server, JobStatus) {
		s, ts := startServer(t, Config{StoreDir: dir})
		st := waitTerminal(t, s, ts, submitOK(t, ts, JobSpec{Experiments: []string{"tlbtime"}, Scale: "small"}))
		if st.State != StateDone {
			t.Fatalf("job state %s: %s", st.State, st.Error)
		}
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return s, ts, st
	}
	_, _, first := run()
	s, ts, second := run()

	_, _, disk, misses := s.Cache().Counters()
	if misses != 0 || disk == 0 {
		t.Errorf("restarted daemon: %d misses and %d disk hits, want 0 and at least 1", misses, disk)
	}
	// serve.cache_hits counts every cell served without simulating,
	// disk-store reads included: here, exactly the disk hits.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var dump []obs.DumpMetric
	if err := json.NewDecoder(mr.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	hits := -1.0
	for _, m := range dump {
		if m.Name == "serve.cache_hits" {
			hits = m.Value
		}
	}
	if hits != float64(disk) {
		t.Errorf("restarted daemon's serve.cache_hits = %v, want its %d disk hits", hits, disk)
	}
	if p := second.Progress; p.CellsTotal == 0 || p.CacheHits != p.CellsTotal {
		t.Errorf("restarted daemon's progress %+v, want every cell a cache hit", p)
	}
	if !reflect.DeepEqual(first.Result.Experiments, second.Result.Experiments) {
		t.Errorf("tables differ across the restart:\n%+v\n%+v", first.Result.Experiments, second.Result.Experiments)
	}
}

func TestConcurrentClientsShareCache(t *testing.T) {
	clients := 64
	perClient := 2
	if testing.Short() {
		clients = 16
	}
	s, ts := startServer(t, Config{QueueCap: clients * perClient, JobWorkers: 4})

	// Overlapping traffic: 64 clients draw from 4 distinct cells.
	specs := []JobSpec{cheapSpec(64), cheapSpec(96), cheapSpec(128), cheapSpec(192)}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				id := submitOK(t, ts, specs[(i+k)%len(specs)])
				st := waitTerminal(t, s, ts, id)
				if st.State != StateDone {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: %s (%s)", id, st.State, st.Error))
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	if len(failures) > 0 {
		t.Fatalf("%d failed jobs under concurrency: %v", len(failures), failures)
	}

	hits, misses := s.Cache().Stats()
	if misses != uint64(len(specs)) {
		t.Errorf("distinct cells simulated %d times, want %d", misses, len(specs))
	}
	total := hits + misses
	if rate := float64(hits) / float64(total); rate <= 0.5 {
		t.Errorf("cache hit rate %.2f (hits %d / total %d), want > 0.5", rate, hits, total)
	}
}
