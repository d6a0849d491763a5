package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"shadowtlb/internal/obs"
	"shadowtlb/internal/serve"
)

// TestOnceAgainstLiveDaemon runs one -once poll against a real daemon
// that has completed a job, so the dashboard is exercised against the
// daemon's actual /metrics JSON shape, not a hand-written imitation.
func TestOnceAgainstLiveDaemon(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 2})
	srv.Start()
	defer srv.Drain(context.Background())

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	j, err := srv.Submit(serve.JobSpec{
		Cells: []serve.CellSpec{{Workload: "stride", TLB: 64, MTLB: 128}},
		Scale: "small",
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-j.Done()

	var out, errb strings.Builder
	if code := run(context.Background(), []string{"-once", ts.URL}, &out, &errb); code != 0 {
		t.Fatalf("run: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	got := out.String()
	if strings.Contains(got, "\x1b[2J") {
		t.Fatalf("-once must not clear the screen:\n%q", got)
	}
	for _, want := range []string{"DAEMON", "ready", "JOB-P50", "SCHEME", "mtlb"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// One job done, with a real wall-time histogram behind the percentile
	// column: the p50 cell must be a bound, not the empty "-" marker.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "127.0.0.1") && strings.Contains(line, "ready") {
			if !strings.Contains(line, "≤") {
				t.Fatalf("daemon row has no latency bound: %q", line)
			}
		}
	}
}

// TestOnceReportsDrainingAndDown covers the two unhappy states: a
// draining daemon renders DRAIN (readyz 503), an unreachable one
// renders DOWN and fails the -once exit code.
func TestOnceReportsDrainingAndDown(t *testing.T) {
	srv := serve.New(serve.Config{Workers: 1})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var out strings.Builder
	if code := run(context.Background(), []string{"-once", ts.URL}, &out, &out); code != 0 {
		t.Fatalf("draining daemon should still render: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "DRAIN") {
		t.Fatalf("expected DRAIN state:\n%s", out.String())
	}

	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // now refuses connections
	out.Reset()
	if code := run(context.Background(), []string{"-once", down.URL}, &out, &out); code != 1 {
		t.Fatalf("unreachable daemon should exit 1, got %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "DOWN") {
		t.Fatalf("expected DOWN row:\n%s", out.String())
	}
}

// TestCollectParsesLabeledFamilies feeds collect a canned dump and
// checks the labeled per-scheme family is routed to Schemes while
// unlabeled metrics land in Scalars/Hists.
func TestCollectParsesLabeledFamilies(t *testing.T) {
	dump := []obs.DumpMetric{
		{Name: "serve.jobs_done", Kind: "counter", Value: 7},
		{Name: "serve.job_wall_us", Kind: "histogram", Count: 2,
			Buckets: []obs.HistBucket{{Lo: 512, Hi: 1023, Count: 2}}},
		{Name: "serve.cell_wall_by_scheme_us", Kind: "histogram", Count: 3,
			Labels:  []obs.Label{{Key: "scheme", Value: "mtlb"}},
			Buckets: []obs.HistBucket{{Lo: 0, Hi: 0, Count: 3}}},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(dump) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	s := collect(context.Background(), &http.Client{Timeout: time.Second}, ts.URL)
	if s.Err != nil {
		t.Fatalf("collect: %v", s.Err)
	}
	if !s.Ready || s.Scalars["serve.jobs_done"] != 7 {
		t.Fatalf("scalar routing wrong: %+v", s)
	}
	if len(s.Hists["serve.job_wall_us"]) != 1 {
		t.Fatalf("histogram routing wrong: %+v", s.Hists)
	}
	if len(s.Schemes["mtlb"]) != 1 || s.Schemes["mtlb"][0].Count != 3 {
		t.Fatalf("scheme routing wrong: %+v", s.Schemes)
	}
}

func TestQuantile(t *testing.T) {
	bks := []obs.HistBucket{
		{Lo: 0, Hi: 0, Count: 10},
		{Lo: 1, Hi: 1, Count: 0},
		{Lo: 512, Hi: 1023, Count: 80},
		{Lo: 1024, Hi: 2047, Count: 10},
	}
	if got := quantile(bks, 0.50); got != 1023 {
		t.Fatalf("p50 = %d, want 1023", got)
	}
	if got := quantile(bks, 0.99); got != 2047 {
		t.Fatalf("p99 = %d, want 2047", got)
	}
	if got := quantile(bks, 0.0); got != 0 {
		t.Fatalf("p0 = %d, want 0 (first bucket's bound)", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty histogram should report 0, got %d", got)
	}
	// Unsorted buckets (as after a fleet merge) must not change the answer.
	shuffled := []obs.HistBucket{bks[2], bks[0], bks[3], bks[1]}
	if got := quantile(shuffled, 0.50); got != 1023 {
		t.Fatalf("p50 over shuffled buckets = %d, want 1023", got)
	}
}

func TestFmtUS(t *testing.T) {
	cases := map[uint64]string{
		0:         "-",
		511:       "≤511µs",
		1023:      "≤1ms",
		999_999:   "≤999ms",
		2_000_000: "≤2.0s",
	}
	for us, want := range cases {
		if got := fmtUS(us); got != want {
			t.Errorf("fmtUS(%d) = %q, want %q", us, got, want)
		}
	}
}
