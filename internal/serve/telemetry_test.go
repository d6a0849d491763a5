package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"shadowtlb/internal/obs"
)

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

// TestUntracedServerOmitsTraceFields: the daemon records no job spans,
// so its API documents are byte-identical to the pre-telemetry daemon:
// no trace key in the submit response, the status document or the
// event stream.
func TestUntracedServerOmitsTraceFields(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	resp := postJob(t, ts, cheapSpec(64))
	accepted, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(accepted, &out); err != nil || out.ID == "" {
		t.Fatalf("submit response %q: %v", accepted, err)
	}
	waitTerminal(t, s, ts, out.ID)
	docs := map[string][]byte{"submit response": accepted}
	for name, path := range map[string]string{
		"status document": "/v1/jobs/" + out.ID,
		"event stream":    "/v1/jobs/" + out.ID + "/events",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		docs[name], _ = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	for name, raw := range docs {
		if strings.Contains(string(raw), `"trace"`) {
			t.Errorf("%s carries a trace field:\n%s", name, raw)
		}
	}
}

// TestStreamTelemetry: consuming an event stream records a TTFB sample.
func TestStreamTelemetry(t *testing.T) {
	s, ts := startServer(t, Config{Workers: 1})
	id := submitOK(t, ts, cheapSpec(64))
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // consuming to terminal
	resp.Body.Close()

	var buf strings.Builder
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serve_stream_ttfb_us_count 1") {
		t.Errorf("stream TTFB histogram not observed:\n%s", buf.String())
	}
}
