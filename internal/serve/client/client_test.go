package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"shadowtlb/internal/serve"
)

// startDaemon stands up a real serve.Server behind httptest.
func startDaemon(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Config{Workers: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ts
}

// call issues one plain HTTP request against the daemon, for the
// endpoints the client has no wrapper for, and returns the status code
// and body.
func call(ctx context.Context, t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestEndpointsAgainstDaemon drives the client and the daemon's other
// endpoints against one real daemon, in order: liveness, readiness, the
// experiment registry, a job run to done with its event stream, its
// status and a no-op cancel, the metrics dump (which counts the cached
// cell), a rejected submission, typed errors for an unknown job, and
// finally readiness and admission while draining.
func TestEndpointsAgainstDaemon(t *testing.T) {
	s, ts := startDaemon(t)
	c := New(ts.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var done serve.JobStatus

	t.Run("healthz", func(t *testing.T) {
		if code, body := call(ctx, t, http.MethodGet, ts.URL+"/healthz"); code != http.StatusOK {
			t.Fatalf("healthz: HTTP %d: %s", code, body)
		}
	})
	t.Run("readyz", func(t *testing.T) {
		if code, body := call(ctx, t, http.MethodGet, ts.URL+"/readyz"); code != http.StatusOK {
			t.Fatalf("readyz: HTTP %d: %s", code, body)
		}
	})
	t.Run("experiments", func(t *testing.T) {
		code, body := call(ctx, t, http.MethodGet, ts.URL+"/v1/experiments")
		if code != http.StatusOK {
			t.Fatalf("experiments: HTTP %d: %s", code, body)
		}
		var got []serve.ExperimentInfo
		if err := json.Unmarshal(body, &got); err != nil {
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
		if code, body := call(ctx, t, http.MethodDelete, ts.URL+"/v1/jobs/"+done.ID); code != http.StatusOK {
			t.Fatalf("cancel: HTTP %d: %s", code, body)
		}
		// Wait on the finished job returns at once, with the result intact.
		st, err := c.Wait(ctx, done.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != serve.StateDone || st.Result == nil || st.Result.Cells[0].Result != done.Result.Cells[0].Result {
			t.Errorf("canceling a done job moved it to %s", st.State)
		}
	})
	t.Run("metrics", func(t *testing.T) {
		code, body := call(ctx, t, http.MethodGet, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics: HTTP %d: %s", code, body)
		}
		var dump []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal(body, &dump); err != nil {
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
	t.Run("rejected submit", func(t *testing.T) {
		var se *StatusError
		_, err := c.Submit(ctx, serve.JobSpec{})
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Message, "exactly one") {
			t.Errorf("Submit(empty spec) = %v, want HTTP 400 carrying the daemon's message", err)
		}
	})
	t.Run("unknown job", func(t *testing.T) {
		var se *StatusError
		if _, err := c.Status(ctx, "no-such-job"); !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("Status(unknown) = %v, want HTTP 404", err)
		}
		if _, err := c.Wait(ctx, "no-such-job", nil); !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("Wait(unknown) = %v, want HTTP 404", err)
		}
	})
	t.Run("readyz while draining", func(t *testing.T) {
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		if code, _ := call(ctx, t, http.MethodGet, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
			t.Errorf("readyz while draining: HTTP %d, want 503", code)
		}
		if code, _ := call(ctx, t, http.MethodGet, ts.URL+"/healthz"); code != http.StatusOK {
			t.Errorf("healthz while draining: HTTP %d, want 200", code)
		}
		var se *StatusError
		if _, err := c.Submit(ctx, serve.JobSpec{Experiments: []string{"fig3"}, Scale: "small"}); !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			t.Errorf("Submit while draining = %v, want HTTP 503", err)
		}
	})
}

// TestSubmitSurfacesRejections: Submit sends one request and returns a
// refusal as a StatusError carrying the daemon's code and message: the
// JSON error document's text, or the trimmed body when the answer is
// not one.
func TestSubmitSurfacesRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		code int
		body string
		want string
	}{
		{"queue full", http.StatusTooManyRequests, `{"error":"serve: job queue full"}`, "serve: job queue full"},
		{"draining", http.StatusServiceUnavailable, `{"error":"serve: draining, not accepting jobs"}`, "serve: draining, not accepting jobs"},
		{"plain text body", http.StatusBadGateway, "upstream gone\n", "upstream gone"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var attempts atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				attempts.Add(1)
				w.WriteHeader(tc.code)
				io.WriteString(w, tc.body) //nolint:errcheck
			}))
			defer ts.Close()

			_, err := New(ts.URL, nil).Submit(context.Background(), serve.JobSpec{Experiments: []string{"fig3"}})
			var se *StatusError
			if !errors.As(err, &se) || se.Code != tc.code || se.Message != tc.want {
				t.Fatalf("err = %v, want HTTP %d with message %q", err, tc.code, tc.want)
			}
			if n := attempts.Load(); n != 1 {
				t.Errorf("daemon saw %d attempts, want 1", n)
			}
		})
	}
}

// TestWaitFallsBackToPolling: when the event stream fails, Wait polls
// the status document until the job is terminal and returns it.
func TestWaitFallsBackToPolling(t *testing.T) {
	var polls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		io.WriteString(w, `{"error":"stream unavailable"}`) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st := serve.JobStatus{ID: r.PathValue("id"), State: serve.StateRunning}
		if polls.Add(1) >= 2 {
			st.State = serve.StateDone
		}
		json.NewEncoder(w).Encode(st) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := New(ts.URL, nil).Wait(ctx, "job-000007", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-000007" || st.State != serve.StateDone {
		t.Errorf("Wait returned %s in state %s, want job-000007 done", st.ID, st.State)
	}
	if n := polls.Load(); n < 3 {
		t.Errorf("status read %d times, want two polls and the final read", n)
	}
}
