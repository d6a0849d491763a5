// Command mtlbd is the simulation daemon: a long-running HTTP service
// that accepts simulation jobs — single cells, registered experiments,
// batch sweeps — runs them on a bounded worker pool, and answers
// repeated configurations from a process-lifetime result cache.
//
//	mtlbd -listen :8047
//	mtlbd -listen :8047 -workers 8 -queue 128 -cache 8192
//
// Submit and watch jobs:
//
//	curl -d '{"experiments":["fig3"],"scale":"small"}' localhost:8047/v1/jobs
//	curl localhost:8047/v1/jobs/job-000001
//	curl -N localhost:8047/v1/jobs/job-000001/events
//	curl localhost:8047/metrics                      # JSON dump
//	curl localhost:8047/metrics?format=prometheus    # Prometheus text
//
// or point mtlbexp at it: mtlbexp -exp all -scale small -server
// http://localhost:8047 prints byte-identical output to a local run.
// Liveness is GET /healthz (200 while the process serves, draining
// included); readiness is GET /readyz (503 once drain begins).
//
// On SIGINT/SIGTERM the daemon drains: admission closes (new jobs get
// 503), admitted jobs run to completion, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"shadowtlb/internal/core"
	"shadowtlb/internal/invariant"
	"shadowtlb/internal/resultstore"
	"shadowtlb/internal/serve"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], sig, nil, os.Stdout, os.Stderr))
}

// run starts the daemon and blocks until a shutdown signal has been
// handled. ready, when non-nil, receives the bound listen address once
// the server is accepting (used by tests to avoid port races).
func run(args []string, sig <-chan os.Signal, ready chan<- string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtlbd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen  = fs.String("listen", ":8047", "listen address")
		workers = fs.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		jobs    = fs.Int("jobs", 4, "concurrently executing jobs")
		queue   = fs.Int("queue", 64, "admission queue capacity (full queue = 429)")
		cache   = fs.Int("cache", 4096, "result cache entries")
		timeout = fs.Duration("timeout", 5*time.Minute, "default per-job deadline")
		drain   = fs.Duration("drain", 10*time.Minute, "max time to wait for in-flight jobs on shutdown")
		chk     = fs.Bool("check", false, "audit machine invariants during every simulation (panics on violation; slower)")
		scheme  = fs.String("scheme", "", "default translation backend for cell specs that leave scheme unset (empty = "+core.DefaultScheme+")")
		store   = fs.String("store", "", "persistent result store directory; repeat configurations survive restarts (empty = memory only)")
		storeMB = fs.Int64("store-max-mb", 0, "persistent store size bound in MiB (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !core.HasScheme(*scheme) {
		_, err := core.NewTranslator(*scheme, core.MTLBConfig{}, core.TranslatorDeps{})
		fmt.Fprintf(stderr, "mtlbd: %v\n", err)
		return 2
	}
	if *chk {
		invariant.EnableGlobalChecks()
	}

	// Probe the store directory before serve.New, which panics on a bad
	// deployment; a CLI should print the error instead.
	if *store != "" {
		if _, err := resultstore.Open(*store, resultstore.Options{}); err != nil {
			fmt.Fprintf(stderr, "mtlbd: %v\n", err)
			return 1
		}
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintf(stderr, "mtlbd: %v\n", err)
		return 1
	}
	srv := serve.New(serve.Config{
		Workers:        *workers,
		JobWorkers:     *jobs,
		QueueCap:       *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		DefaultScheme:  *scheme,
		StoreDir:       *store,
		StoreMaxBytes:  *storeMB << 20,
	})
	srv.Start()

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "mtlbd: listening on %s (%d workers, queue %d, cache %d)\n",
		ln.Addr(), srv.Workers(), *queue, *cache)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "mtlbd: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "mtlbd: %v: draining (in-flight jobs run to completion)\n", s)
	}

	// Drain first so status/events stay reachable while jobs finish,
	// then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "mtlbd: %v\n", err)
		code = 1
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(stderr, "mtlbd: shutdown: %v\n", err)
		code = 1
	}
	<-serveErr // Serve returns ErrServerClosed after Shutdown
	fmt.Fprintln(stdout, "mtlbd: drained, bye")
	return code
}
