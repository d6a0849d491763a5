package obs

import (
	"bytes"
	"strings"
	"testing"
)

// promFixture builds a registry exercising every exposition shape:
// counters, gauges, labeled families, histograms, and label values
// that need escaping.
func promFixture() *Registry {
	r := NewRegistry()
	c := r.AtomicCounter("serve.jobs_submitted")
	c.Add(7)
	r.SetHelp("serve.jobs_submitted", "jobs accepted by admission")
	r.GaugeFunc("serve.queue_depth", func() float64 { return 3 })
	for _, scheme := range []string{"mtlb", "coalesced"} {
		h := r.AtomicHistogramL("serve.cell_wall_us", Label{Key: "scheme", Value: scheme})
		h.Observe(0)
		h.Observe(1)
		h.Observe(5)
		h.Observe(1000)
	}
	r.SetHelp("serve.cell_wall_us", "per-cell wall time (µs)")
	r.CounterFuncL("serve.cache_outcome", func() uint64 { return 2 }, Label{Key: "outcome", Value: `we"ird\va` + "\n" + `lue`})
	h := r.AtomicHistogram("serve.job_wall_us")
	h.Observe(42)
	return r
}

func promText(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestPrometheusFormatLint runs the encoder's own output through the
// exposition linter: HELP/TYPE lines present and ordered, names and
// label escaping valid, histogram buckets cumulative and monotone with
// +Inf matching _count.
func TestPrometheusFormatLint(t *testing.T) {
	out := promText(t, promFixture())
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint found %d problems in:\n%s\nfirst: %v", len(errs), out, errs[0])
	}
}

func TestPrometheusRendering(t *testing.T) {
	out := promText(t, promFixture())
	for _, want := range []string{
		"# HELP serve_jobs_submitted jobs accepted by admission\n",
		"# TYPE serve_jobs_submitted counter\n",
		"serve_jobs_submitted 7\n",
		"# TYPE serve_queue_depth gauge\n",
		"serve_queue_depth 3\n",
		"# TYPE serve_cell_wall_us histogram\n",
		`serve_cell_wall_us_bucket{scheme="mtlb",le="0"} 1` + "\n",
		`serve_cell_wall_us_bucket{scheme="mtlb",le="1"} 2` + "\n",
		`serve_cell_wall_us_bucket{scheme="mtlb",le="7"} 3` + "\n",
		`serve_cell_wall_us_bucket{scheme="mtlb",le="+Inf"} 4` + "\n",
		`serve_cell_wall_us_sum{scheme="mtlb"} 1006` + "\n",
		`serve_cell_wall_us_count{scheme="mtlb"} 4` + "\n",
		`serve_cell_wall_us_count{scheme="coalesced"} 4` + "\n",
		`serve_cache_outcome{outcome="we\"ird\\va\nlue"} 2` + "\n",
		"serve_job_wall_us_sum 42\n",
		"serve_job_wall_us_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One HELP/TYPE header per family, not per labeled series.
	if n := strings.Count(out, "# TYPE serve_cell_wall_us "); n != 1 {
		t.Errorf("family header emitted %d times, want 1", n)
	}
}

func TestPrometheusHistogramMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.AtomicHistogram("wide")
	for i := 0; i < 64; i += 3 {
		h.Observe(1 << uint(i))
	}
	out := promText(t, r)
	if errs := LintPrometheus(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint: %v\n%s", errs, out)
	}
}

func TestLintCatchesBrokenExposition(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "some_counter 3\n",
		"TYPE before HELP":   "# TYPE x counter\nx 1\n",
		"non-monotone hist": "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="3"} 2` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 9\nh_count 5\n",
		"missing +Inf": "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\nh_sum 9\nh_count 5\n",
		"inf != count": "# HELP h h\n# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\nh_sum 9\nh_count 5\n",
		"bad label quoting": "# HELP c c\n# TYPE c counter\nc{x=unquoted} 1\n",
		"bad name":          "# HELP c c\n# TYPE c counter\n9bad 1\n",
	}
	for name, doc := range cases {
		if errs := LintPrometheus(strings.NewReader(doc)); len(errs) == 0 {
			t.Errorf("%s: lint accepted broken document:\n%s", name, doc)
		}
	}
}

func TestPromHistogramSumCount(t *testing.T) {
	// _sum for the 42 observation above: bucket bound math must not
	// disturb sum/count accounting.
	r := NewRegistry()
	h := r.AtomicHistogram("x")
	h.Observe(42)
	out := promText(t, r)
	for _, want := range []string{"x_sum 42\n", "x_count 1\n", `x_bucket{le="63"} 1` + "\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
