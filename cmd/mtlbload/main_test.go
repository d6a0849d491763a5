package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"shadowtlb/internal/serve"
)

// runLoad runs the command and decodes its JSON report from stdout.
func runLoad(t *testing.T, args ...string) (report, string) {
	t.Helper()
	var out, errb strings.Builder
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, errb.String())
	}
	dec := json.NewDecoder(strings.NewReader(out.String()))
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%v: report is not JSON (%v):\n%s", args, err, out.String())
	}
	return rep, errb.String()
}

// startDaemon serves a fresh daemon over httptest and drains it at the
// end of the test.
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

// TestLoadInProcessReport runs the overlapping job mix against the
// hosted daemon: every job finishes, repeated specs are served from the
// cache, and every API call is timed.
func TestLoadInProcessReport(t *testing.T) {
	const clients, perClient = 3, 4
	rep, _ := runLoad(t, "-clients", "3", "-n", "4", "-workers", "2")
	if rep.Jobs != clients*perClient || rep.Failed != 0 {
		t.Fatalf("jobs %d failed %d, want %d and 0", rep.Jobs, rep.Failed, clients*perClient)
	}
	if rep.Clients != clients || rep.PerClient != perClient || rep.Scale != "small" {
		t.Errorf("report echoes clients %d, n %d, scale %q", rep.Clients, rep.PerClient, rep.Scale)
	}
	// Client 0 and client 1 both ask for mix entry 0, so at least one
	// lookup is a stored or coalesced hit.
	if rep.CellsDone == 0 || rep.Cache.Hits == 0 || rep.Cache.Misses == 0 {
		t.Errorf("cells %d, cache hits %d, misses %d: want all non-zero",
			rep.CellsDone, rep.Cache.Hits, rep.Cache.Misses)
	}
	if rep.Cache.HitRate <= 0 || rep.Cache.HitRate >= 1 {
		t.Errorf("hit rate %v, want strictly between 0 and 1", rep.Cache.HitRate)
	}
	if rep.RequestMS.Count < rep.Jobs {
		t.Errorf("%d timed requests for %d jobs", rep.RequestMS.Count, rep.Jobs)
	}
	if rep.LatencyMS.P50 > rep.LatencyMS.P99 || rep.LatencyMS.P99 > rep.LatencyMS.Max {
		t.Errorf("latency percentiles out of order: %+v", rep.LatencyMS)
	}
	if rep.Restart != nil {
		t.Errorf("restart phase ran without -store: %+v", rep.Restart)
	}
}

// TestLoadRestartPhaseServesFromDisk: one client walks the whole mix,
// so the restart phase's fresh daemon finds every cell in the store and
// simulates nothing.
func TestLoadRestartPhaseServesFromDisk(t *testing.T) {
	n := len(jobMix("small"))
	rep, errs := runLoad(t, "-clients", "1", "-n", strconv.Itoa(n), "-workers", "2", "-store", t.TempDir())
	rr := rep.Restart
	if rr == nil {
		t.Fatalf("no restart phase in the report; stderr:\n%s", errs)
	}
	if rr.Jobs != n || rr.Misses != 0 || rr.DiskHits == 0 || rr.DiskHitRate != 1 {
		t.Errorf("restart phase %+v: want %d jobs, every cold lookup from disk", rr, n)
	}
	if !strings.Contains(errs, "restart phase: ") {
		t.Errorf("stderr lacks the restart summary:\n%s", errs)
	}
}

// TestLoadAgainstRemoteDaemon: with -server the cache figures come from
// the daemon's /metrics, and -store, which only a hosted daemon can
// use, is ignored with a warning.
func TestLoadAgainstRemoteDaemon(t *testing.T) {
	s, ts := startDaemon(t)
	rep, errs := runLoad(t, "-server", ts.URL, "-clients", "2", "-n", "2", "-store", t.TempDir())
	if rep.Server != ts.URL || rep.Jobs != 4 || rep.Failed != 0 {
		t.Fatalf("server %q jobs %d failed %d", rep.Server, rep.Jobs, rep.Failed)
	}
	hits, misses := s.Cache().Stats()
	if rep.Cache.Hits != hits || rep.Cache.Misses != misses || misses == 0 {
		t.Errorf("report cache %d/%d, daemon %d/%d", rep.Cache.Hits, rep.Cache.Misses, hits, misses)
	}
	if rep.Restart != nil || !strings.Contains(errs, "-store only applies to the in-process daemon") {
		t.Errorf("-store with -server: restart %+v, stderr:\n%s", rep.Restart, errs)
	}
}

// TestLoadRefusesDrainingDaemon: a draining daemon is alive but not
// ready, so the run stops before submitting anything.
func TestLoadRefusesDrainingDaemon(t *testing.T) {
	s, ts := startDaemon(t)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out, errb strings.Builder
	if code := run([]string{"-server", ts.URL, "-clients", "1", "-n", "1"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "daemon not ready") {
		t.Errorf("stderr does not say the daemon is not ready:\n%s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed a report:\n%s", out.String())
	}
}

func TestLoadBadFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"unknown flag", []string{"-cluster", "http://localhost:1"}},
		{"non-numeric clients", []string{"-clients", "many"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb strings.Builder
			if code := run(tc.args, &out, &errb); code != 2 {
				t.Errorf("exit %d, want 2; stderr:\n%s", code, errb.String())
			}
		})
	}
}

// TestPercentiles pins the nearest-rank reader: index p*(n-1) of the
// sorted sample, in milliseconds, with 1.0 the maximum.
func TestPercentiles(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		ds := make([]time.Duration, len(vs))
		for i, v := range vs {
			ds[i] = time.Duration(v) * time.Millisecond
		}
		return ds
	}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = 100 - i // reversed, so the reader must sort
	}
	for _, tc := range []struct {
		name string
		ds   []time.Duration
		want map[float64]float64
	}{
		{"empty", nil, map[float64]float64{0.5: 0, 1: 0}},
		{"single", ms(7), map[float64]float64{0: 7, 0.5: 7, 0.99: 7, 1: 7}},
		{"nearest rank", ms(hundred...), map[float64]float64{0: 1, 0.5: 50, 0.9: 90, 0.99: 99, 1: 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pct := percentiles(tc.ds)
			for p, want := range tc.want {
				if got := pct(p); got != want {
					t.Errorf("p%v = %v ms, want %v", p, got, want)
				}
			}
		})
	}
}
