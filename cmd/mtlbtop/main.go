// Command mtlbtop is a live terminal dashboard over one or more mtlbd
// daemons: it polls each daemon's /metrics JSON dump and /readyz on an
// interval and renders a fleet view — readiness, workers, queue depth,
// in-flight jobs, throughput since the previous sample, cache
// effectiveness, latency percentiles from the daemons' histograms, and
// per-scheme cell wall time.
//
//	mtlbtop                                   # localhost:8047, 2s refresh
//	mtlbtop http://a:8047 http://b:8047       # a fleet
//	mtlbtop -interval 5s
//	mtlbtop -once                             # one sample, plain text, exit
//
// It speaks only the daemon's JSON endpoints (no new dependencies); a
// Prometheus stack is the production answer, mtlbtop is the
// ssh-into-the-box one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"shadowtlb/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// snapshot is one daemon's state at one poll.
type snapshot struct {
	Base    string
	Err     error // unreachable or undecodable; the row renders the error
	Ready   bool
	At      time.Time
	Scalars map[string]float64          // unlabeled counter/gauge values by name
	Hists   map[string][]obs.HistBucket // histograms by name (unlabeled)
	// Schemes maps scheme label -> cell-wall histogram for the labeled
	// serve.cell_wall_by_scheme_us family.
	Schemes map[string][]obs.HistBucket
	// Outcomes maps outcome label -> count for the labeled
	// serve.cache_outcome family (hit, coalesced, disk, miss).
	Outcomes map[string]float64
}

// run polls and renders until the context is canceled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtlbtop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		interval = fs.Duration("interval", 2*time.Second, "poll interval")
		once     = fs.Bool("once", false, "print one sample without clearing the screen, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bases := fs.Args()
	if len(bases) == 0 {
		bases = []string{"http://localhost:8047"}
	}
	for i, b := range bases {
		bases[i] = strings.TrimRight(b, "/")
	}

	hc := &http.Client{Timeout: 10 * time.Second}
	var prev []snapshot
	for {
		cur := make([]snapshot, len(bases))
		for i, b := range bases {
			cur[i] = collect(ctx, hc, b)
		}
		if !*once {
			fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear screen, home cursor
		}
		render(stdout, cur, prev)
		if *once {
			for _, s := range cur {
				if s.Err != nil {
					return 1
				}
			}
			return 0
		}
		prev = cur
		select {
		case <-time.After(*interval):
		case <-ctx.Done():
			fmt.Fprintln(stdout, "mtlbtop: bye")
			return 0
		}
	}
}

// collect polls one daemon.
func collect(ctx context.Context, hc *http.Client, base string) snapshot {
	s := snapshot{Base: base, At: time.Now(),
		Scalars:  make(map[string]float64),
		Hists:    make(map[string][]obs.HistBucket),
		Schemes:  make(map[string][]obs.HistBucket),
		Outcomes: make(map[string]float64),
	}
	ready, err := probe(ctx, hc, base+"/readyz")
	if err != nil {
		s.Err = err
		return s
	}
	s.Ready = ready

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		s.Err = err
		return s
	}
	resp, err := hc.Do(req)
	if err != nil {
		s.Err = err
		return s
	}
	defer resp.Body.Close()
	var dump []obs.DumpMetric
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		s.Err = fmt.Errorf("decoding /metrics: %w", err)
		return s
	}
	for _, m := range dump {
		switch {
		case m.Name == "serve.cell_wall_by_scheme_us":
			for _, l := range m.Labels {
				if l.Key == "scheme" {
					s.Schemes[l.Value] = m.Buckets
				}
			}
		case m.Name == "serve.cache_outcome":
			for _, l := range m.Labels {
				if l.Key == "outcome" {
					s.Outcomes[l.Value] = m.Value
				}
			}
		case len(m.Labels) > 0:
			// Other labeled families are not rendered individually yet.
		case m.Kind == "histogram":
			s.Hists[m.Name] = m.Buckets
		default:
			s.Scalars[m.Name] = m.Value
		}
	}
	return s
}

// probe GETs a readiness URL: 200 = ready, 503 = alive but draining.
func probe(ctx context.Context, hc *http.Client, url string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// render draws the fleet view. prev, when non-empty and aligned with
// cur, supplies the previous poll for rate columns.
func render(w io.Writer, cur, prev []snapshot) {
	fmt.Fprintf(w, "mtlbtop  %s  (%d daemon", time.Now().Format("15:04:05"), len(cur))
	if len(cur) != 1 {
		fmt.Fprint(w, "s")
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-28s %-8s %7s %6s %8s %8s %8s %7s %9s %9s\n",
		"DAEMON", "STATE", "WORKERS", "QUEUE", "INFLIGHT", "DONE", "JOBS/S", "CACHE%", "JOB-P50", "JOB-P99")
	for i, s := range cur {
		if s.Err != nil {
			fmt.Fprintf(w, "%-28s %-8s %s\n", trimBase(s.Base), "DOWN", s.Err)
			continue
		}
		state := "ready"
		if !s.Ready {
			state = "DRAIN"
		}
		rate := ""
		if i < len(prev) && prev[i].Err == nil {
			dt := s.At.Sub(prev[i].At).Seconds()
			if dt > 0 {
				d := s.Scalars["serve.jobs_done"] - prev[i].Scalars["serve.jobs_done"]
				rate = fmt.Sprintf("%.1f", d/dt)
			}
		}
		fmt.Fprintf(w, "%-28s %-8s %7.0f %6.0f %8.0f %8.0f %8s %6.0f%% %9s %9s\n",
			trimBase(s.Base), state,
			s.Scalars["serve.workers"], s.Scalars["serve.queue_depth"],
			s.Scalars["serve.jobs_inflight"], s.Scalars["serve.jobs_done"],
			rate, 100*hitRate(s),
			fmtUS(quantile(s.Hists["serve.job_wall_us"], 0.50)),
			fmtUS(quantile(s.Hists["serve.job_wall_us"], 0.99)))
	}

	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-28s %10s %10s %11s %11s %11s\n",
		"", "SUBMITTED", "FAILED", "ADMIT-P95", "TTFB-P95", "CELL-P95")
	for _, s := range cur {
		if s.Err != nil {
			continue
		}
		fmt.Fprintf(w, "%-28s %10.0f %10.0f %11s %11s %11s\n",
			trimBase(s.Base),
			s.Scalars["serve.jobs_submitted"], s.Scalars["serve.jobs_failed"],
			fmtUS(quantile(s.Hists["serve.admission_wait_us"], 0.95)),
			fmtUS(quantile(s.Hists["serve.stream_ttfb_us"], 0.95)),
			fmtUS(quantile(s.Hists["serve.cell_wall_us"], 0.95)))
	}

	// Cache outcomes: memory hits, coalesced waits, persistent-store
	// (disk) hits, and misses that led a simulation.
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-28s %9s %10s %9s %9s\n",
		"", "CACHE-HIT", "COALESCED", "DISK-HIT", "MISS")
	for _, s := range cur {
		if s.Err != nil {
			continue
		}
		fmt.Fprintf(w, "%-28s %9.0f %10.0f %9.0f %9.0f\n",
			trimBase(s.Base),
			s.Outcomes["hit"], s.Outcomes["coalesced"],
			s.Outcomes["disk"], s.Outcomes["miss"])
	}

	// Per-scheme cell wall time, aggregated across the fleet.
	type schemeRow struct {
		count uint64
		p95   uint64
	}
	merged := make(map[string][]obs.HistBucket)
	for _, s := range cur {
		for scheme, bks := range s.Schemes {
			merged[scheme] = append(merged[scheme], bks...)
		}
	}
	rows := make(map[string]schemeRow)
	var names []string
	for scheme, bks := range merged {
		var n uint64
		for _, b := range bks {
			n += b.Count
		}
		if n == 0 {
			continue
		}
		rows[scheme] = schemeRow{count: n, p95: quantile(bks, 0.95)}
		names = append(names, scheme)
	}
	if len(names) > 0 {
		sort.Strings(names)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-16s %10s %11s\n", "SCHEME", "CELLS", "CELL-P95")
		for _, scheme := range names {
			r := rows[scheme]
			fmt.Fprintf(w, "%-16s %10d %11s\n", scheme, r.count, fmtUS(r.p95))
		}
	}
}

// trimBase shortens an endpoint for the table.
func trimBase(b string) string {
	b = strings.TrimPrefix(b, "http://")
	b = strings.TrimPrefix(b, "https://")
	if len(b) > 28 {
		b = b[:25] + "..."
	}
	return b
}

// hitRate computes the cache hit rate from a snapshot's counters.
func hitRate(s snapshot) float64 {
	h := s.Scalars["serve.cache_hits"]
	m := s.Scalars["serve.cache_misses"]
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// quantile estimates the p-th quantile of a dumped log2 histogram as
// the upper bound of the bucket holding the nearest rank. Buckets may
// arrive unmerged from several daemons; they are sorted by bound first.
func quantile(bks []obs.HistBucket, p float64) uint64 {
	if len(bks) == 0 {
		return 0
	}
	sorted := append([]obs.HistBucket(nil), bks...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Hi < sorted[b].Hi })
	var total uint64
	for _, b := range sorted {
		total += b.Count
	}
	if total == 0 {
		return 0
	}
	rank := uint64(p * float64(total-1))
	var cum uint64
	for _, b := range sorted {
		cum += b.Count
		if cum > rank {
			return b.Hi
		}
	}
	return sorted[len(sorted)-1].Hi
}

// fmtUS renders a microsecond bound human-readably.
func fmtUS(us uint64) string {
	switch {
	case us == 0:
		return "-"
	case us < 1000:
		return fmt.Sprintf("≤%dµs", us)
	case us < 1_000_000:
		return fmt.Sprintf("≤%dms", us/1000)
	default:
		return fmt.Sprintf("≤%.1fs", float64(us)/1e6)
	}
}
