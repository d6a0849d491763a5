// Command mtlbload is the load generator for the mtlbd daemon. It
// drives concurrent clients issuing a deterministic mix of overlapping
// single-cell jobs and experiment jobs, then reports throughput,
// end-to-end job latency percentiles, per-request HTTP latency
// percentiles (p50/p95/p99/max) and the daemon's cache hit rate as
// JSON. With -store it adds a restart phase: a fresh daemon over the
// same store directory replays the job mix and reports its disk hits.
//
//	mtlbload -clients 64 -n 4 -scale small -o BENCH_serve.json
//	mtlbload -server http://localhost:8047 -clients 16 -n 8
//
// Without -server it hosts an in-process daemon on a loopback listener,
// so the benchmark is hermetic while still exercising the full HTTP
// stack.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"shadowtlb/internal/serve"
	"shadowtlb/internal/serve/client"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jobMix is the deterministic request pool. Client i's request k picks
// entry (i*7+k)%len — many clients land on the same specs, which is the
// point: overlapping traffic exercises the shared cache and
// single-flight coalescing.
func jobMix(scale string) []serve.JobSpec {
	cell := func(w string, tlb, mtlb int) serve.JobSpec {
		return serve.JobSpec{Cells: []serve.CellSpec{{Workload: w, TLB: tlb, MTLB: mtlb}}, Scale: scale}
	}
	return []serve.JobSpec{
		cell("radix", 64, 0),
		cell("em3d", 64, 512),
		cell("radix", 64, 512),
		{Experiments: []string{"tlbtime"}, Scale: scale},
		cell("em3d", 64, 0),
		cell("radix", 128, 0),
		{Experiments: []string{"reach"}, Scale: scale},
		cell("em3d", 128, 0),
		cell("radix", 64, 512),
		cell("em3d", 64, 512),
	}
}

// report is the JSON document mtlbload emits.
type report struct {
	Server    string  `json:"server"`
	Clients   int     `json:"clients"`
	PerClient int     `json:"jobs_per_client"`
	Scale     string  `json:"scale"`
	Jobs      int     `json:"jobs"`
	Failed    int     `json:"failed"`
	Retries   int     `json:"retries_429"`
	WallS     float64 `json:"wall_s"`
	JobsPerS  float64 `json:"jobs_per_s"`

	// LatencyMS is end-to-end job latency (submit through terminal
	// state); RequestMS is per-HTTP-request latency across every API
	// call the run issued (submits, status polls, stream setup).
	LatencyMS struct {
		P50 float64 `json:"p50"`
		P90 float64 `json:"p90"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`

	RequestMS struct {
		Count int     `json:"count"`
		P50   float64 `json:"p50"`
		P95   float64 `json:"p95"`
		P99   float64 `json:"p99"`
		Max   float64 `json:"max"`
	} `json:"request_ms"`

	Cache struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`

	CellsDone int `json:"cells_done"`
	CellHits  int `json:"cell_cache_hits"`

	// Restart reports the persistent-store restart phase (-store): a
	// fresh daemon over the same store directory replays the job mix,
	// and every cold lookup should come back from disk, not a
	// simulation.
	Restart *restartReport `json:"restart,omitempty"`
}

// restartReport is the restart phase's section of the JSON report.
type restartReport struct {
	Jobs        int     `json:"jobs"`
	WallS       float64 `json:"wall_s"`
	MemoryHits  uint64  `json:"memory_hits"`
	DiskHits    uint64  `json:"disk_hits"`
	Misses      uint64  `json:"misses"`
	DiskHitRate float64 `json:"disk_hit_rate"` // of cold lookups (disk + miss)
}

// run executes the load test and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtlbload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server  = fs.String("server", "", "daemon URL; empty hosts one in-process")
		clients = fs.Int("clients", 64, "concurrent clients")
		perC    = fs.Int("n", 4, "jobs per client")
		scale   = fs.String("scale", "small", "workload scale for generated jobs")
		workers = fs.Int("workers", 0, "in-process daemon simulation workers (0 = GOMAXPROCS)")
		queue   = fs.Int("queue", 0, "in-process daemon queue capacity (0 = default)")
		store   = fs.String("store", "", "persistent store directory for the in-process daemon; adds a restart phase measuring disk hits")
		out     = fs.String("o", "", "write the JSON report to this file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *store != "" && *server != "" {
		fmt.Fprintln(stderr, "mtlbload: -store only applies to the in-process daemon; ignoring")
		*store = ""
	}

	base := *server
	var inproc *serve.Server
	if base == "" {
		inproc = serve.New(serve.Config{Workers: *workers, QueueCap: *queue, StoreDir: *store})
		inproc.Start()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(stderr, "mtlbload: %v\n", err)
			return 1
		}
		hs := &http.Server{Handler: inproc.Handler()}
		go hs.Serve(ln) //nolint:errcheck // torn down with the process
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}

	mix := jobMix(*scale)
	c := client.New(base, nil)
	var (
		reqMu   sync.Mutex
		reqDurs []time.Duration
		retries int
	)
	c.OnRequest(func(ri client.RequestInfo) {
		reqMu.Lock()
		reqDurs = append(reqDurs, ri.Dur)
		reqMu.Unlock()
	})
	// The client owns 429 backoff (Retry-After, capped exponential,
	// jitter); the load generator just counts the waits.
	rp := client.DefaultRetry()
	rp.OnRetry = func(int, time.Duration) {
		reqMu.Lock()
		retries++
		reqMu.Unlock()
	}
	c.SetRetry(rp)
	ctx := context.Background()
	// Readiness, not liveness: a draining daemon is alive but would 503
	// every submission this run is about to issue.
	if err := c.Readyz(ctx); err != nil {
		fmt.Fprintf(stderr, "mtlbload: daemon not ready: %v\n", err)
		return 1
	}

	var (
		mu        sync.Mutex
		durations []time.Duration
		failed    int
		cells     int
		cellHits  int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < *perC; k++ {
				spec := mix[(i*7+k)%len(mix)]
				t0 := time.Now()
				var st serve.JobStatus
				id, err := c.Submit(ctx, spec)
				if err == nil {
					st, err = waitDone(ctx, c, serve.JobStatus{ID: id})
				}
				d := time.Since(t0)
				mu.Lock()
				durations = append(durations, d)
				if err != nil {
					failed++
					fmt.Fprintf(stderr, "mtlbload: client %d job %d: %v\n", i, k, err)
				} else {
					cells += st.Progress.CellsDone
					cellHits += st.Progress.CacheHits
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := report{
		Server: base, Clients: *clients, PerClient: *perC, Scale: *scale,
		Jobs: len(durations), Failed: failed, Retries: retries,
		WallS:     wall.Seconds(),
		JobsPerS:  float64(len(durations)) / wall.Seconds(),
		CellsDone: cells, CellHits: cellHits,
	}
	pct := percentiles(durations)
	rep.LatencyMS.P50 = pct(0.50)
	rep.LatencyMS.P90 = pct(0.90)
	rep.LatencyMS.P99 = pct(0.99)
	rep.LatencyMS.Max = pct(1.0)
	rpct := percentiles(reqDurs)
	rep.RequestMS.Count = len(reqDurs)
	rep.RequestMS.P50 = rpct(0.50)
	rep.RequestMS.P95 = rpct(0.95)
	rep.RequestMS.P99 = rpct(0.99)
	rep.RequestMS.Max = rpct(1.0)
	if err := fillCacheStats(ctx, c, inproc, &rep); err != nil {
		fmt.Fprintf(stderr, "mtlbload: reading cache stats: %v\n", err)
	}

	// Restart phase: a fresh daemon over the same store directory
	// replays the distinct job mix. Cold lookups should be disk hits.
	if *store != "" {
		rr, err := restartPhase(ctx, *store, *scale, *workers)
		if err != nil {
			fmt.Fprintf(stderr, "mtlbload: restart phase: %v\n", err)
			return 1
		}
		rep.Restart = rr
		fmt.Fprintf(stderr, "mtlbload: restart phase: %d jobs, %d disk hits, %d misses (disk rate %.0f%%)\n",
			rr.Jobs, rr.DiskHits, rr.Misses, 100*rr.DiskHitRate)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "mtlbload: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(stderr, "mtlbload: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "mtlbload: %d jobs in %.2fs (%.1f/s), %d failed, cache hit rate %.0f%%\n",
		rep.Jobs, rep.WallS, rep.JobsPerS, rep.Failed, 100*rep.Cache.HitRate)
	if failed > 0 {
		return 1
	}
	return 0
}

// percentiles sorts ds in place and returns a nearest-rank percentile
// reader in milliseconds (p = 1.0 is the max).
func percentiles(ds []time.Duration) func(p float64) float64 {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return func(p float64) float64 {
		if len(ds) == 0 {
			return 0
		}
		i := int(p * float64(len(ds)-1))
		return float64(ds[i]) / float64(time.Millisecond)
	}
}

// waitDone waits for the job and insists on a done state.
func waitDone(ctx context.Context, c *client.Client, st serve.JobStatus) (serve.JobStatus, error) {
	fin, err := c.Wait(ctx, st.ID, nil)
	if err != nil {
		return fin, err
	}
	if fin.State != serve.StateDone {
		return fin, fmt.Errorf("job %s %s: %s", fin.ID, fin.State, fin.Error)
	}
	return fin, nil
}

// restartPhase hosts a brand-new in-process daemon over the same
// persistent store directory — an empty in-memory cache, as after a
// real restart — and runs every job in the mix once, sequentially.
// Lookups that miss memory should be served from disk without
// simulating; the report says how many were.
func restartPhase(ctx context.Context, storeDir, scale string, workers int) (*restartReport, error) {
	srv := serve.New(serve.Config{Workers: workers, StoreDir: storeDir})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln) //nolint:errcheck // torn down below
	defer hs.Close()

	c := client.New("http://"+ln.Addr().String(), nil)
	mix := jobMix(scale)
	start := time.Now()
	for _, spec := range mix {
		id, err := c.Submit(ctx, spec)
		if err != nil {
			return nil, err
		}
		if _, err := waitDone(ctx, c, serve.JobStatus{ID: id}); err != nil {
			return nil, err
		}
	}
	rr := &restartReport{Jobs: len(mix), WallS: time.Since(start).Seconds()}
	var coalesced uint64
	rr.MemoryHits, coalesced, rr.DiskHits, rr.Misses = srv.Cache().Counters()
	rr.MemoryHits += coalesced
	if cold := rr.DiskHits + rr.Misses; cold > 0 {
		rr.DiskHitRate = float64(rr.DiskHits) / float64(cold)
	}
	return rr, nil
}

// fillCacheStats reads hit/miss counts — directly for an in-process
// daemon, from /metrics for a remote one.
func fillCacheStats(ctx context.Context, c *client.Client, inproc *serve.Server, rep *report) error {
	if inproc != nil {
		rep.Cache.Hits, rep.Cache.Misses = inproc.Cache().Stats()
	} else {
		raw, err := c.Metrics(ctx)
		if err != nil {
			return err
		}
		var dump []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		}
		if err := json.Unmarshal(raw, &dump); err != nil {
			return err
		}
		for _, m := range dump {
			switch m.Name {
			case "serve.cache_hits":
				rep.Cache.Hits = uint64(m.Value)
			case "serve.cache_misses":
				rep.Cache.Misses = uint64(m.Value)
			}
		}
	}
	if total := rep.Cache.Hits + rep.Cache.Misses; total > 0 {
		rep.Cache.HitRate = float64(rep.Cache.Hits) / float64(total)
	}
	return nil
}
