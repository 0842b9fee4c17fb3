// Command fenced is the long-running certification service: an HTTP/JSON
// daemon that accepts program submissions (inline IR text, restricted
// real-Go source, or named corpus programs), runs analyze/certify jobs
// through the fenceplace pipeline over one warm baseline store, and
// answers with corpus Report rows.
//
//	fenced -listen :8080 -cache-dir /var/cache/fenceplace
//	fenced -listen :8080 -admin :6060 -workers 4 -queue 128
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST 'localhost:8080/v1/jobs?wait=1' \
//	    -d '{"corpus":"dekker","strategy":"control"}'
//	curl -sN -X POST 'localhost:8080/v1/jobs?stream=1' \
//	    -d '{"corpus":"szymanski","budget":{"max_states":2000000}}'
//
// Identical concurrent submissions are single-flighted: they share one
// exploration and all receive the same rows (see internal/service). The
// bounded admission queue answers 429 + Retry-After under overload;
// per-job state, memory and deadline budgets are clamped to the -max-*
// server ceilings. -admin serves net/http/pprof and expvar; /statusz (on
// the main port) reports build identity, job stats, the store snapshot
// and the degradation gauge.
//
// On SIGTERM (or SIGINT) the daemon drains: it stops accepting — /healthz
// flips to 503 so load balancers fail over — lets in-flight jobs finish
// within -drain-timeout, cancels the stragglers, and exits 0 on a clean
// drain, 1 otherwise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"fenceplace"
	"fenceplace/internal/buildinfo"
	"fenceplace/internal/cli"
	"fenceplace/internal/service"
	"fenceplace/internal/telemetry"
)

func main() {
	var (
		listen       = flag.String("listen", ":8080", "API listen address")
		admin        = flag.String("admin", "", "admin listen address serving net/http/pprof and expvar (empty = off)")
		workers      = flag.Int("workers", 0, "job worker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue capacity; beyond it submissions get 429")
		jobWorkers   = flag.Int("job-workers", 0, "exploration workers per job (0 = GOMAXPROCS)")
		maxStates    = flag.Int64("max-states", 1<<21, "ceiling for per-job state budgets")
		memCapCeil   = flag.Int("max-memcap", 1<<22, "ceiling for per-job memory budgets (arena words)")
		maxDeadline  = flag.Duration("max-deadline", 2*time.Minute, "ceiling for per-job deadlines")
		defDeadline  = flag.Duration("default-deadline", 30*time.Second, "deadline applied when a job names none")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "how long SIGTERM lets in-flight jobs finish before cancelling them")
		cacheDir     = flag.String("cache-dir", "", "persistent exploration store for SC baselines and TSO outcome sets (default $FENCEPLACE_CACHE_DIR; empty = no persistence)")
		spillDir     = flag.String("spill-dir", "", "scratch area for seen-set spill (default $FENCEPLACE_SPILL_DIR; empty = keep sealed runs in RAM)")
		version      = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *version {
		cli.Version()
		return
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	var opts []fenceplace.Option
	if *cacheDir != "" {
		opts = append(opts, fenceplace.WithCacheDir(*cacheDir))
	}
	if *spillDir != "" {
		opts = append(opts, fenceplace.WithSpillDir(*spillDir))
	}
	// Pin environment-derived defaults once, before any job runs.
	opts = fenceplace.Resolved(opts...)

	mgr := service.NewManager(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		JobWorkers:      *jobWorkers,
		MaxStatesCap:    *maxStates,
		MemoryCapCeil:   *memCapCeil,
		MaxDeadline:     *maxDeadline,
		DefaultDeadline: *defDeadline,
		Options:         opts,
	})
	srv := service.NewServer(mgr)
	// /statusz reports the store the jobs actually use: the flag, else the
	// environment (resolved the same way the options were).
	dir := *cacheDir
	if dir == "" {
		dir = os.Getenv("FENCEPLACE_CACHE_DIR")
	}
	srv.CacheDir = dir

	if *admin != "" {
		addr, err := telemetry.Serve(*admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "fenced: admin on http://%s/debug/pprof (metrics at /debug/vars)\n", addr)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "fenced: %s\nfenced: serving on http://%s (cache-dir %q)\n",
		buildinfo.String(), ln.Addr(), dir)

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (healthz flips to 503 via the
	// manager's draining flag), let in-flight jobs finish within the drain
	// budget, cancel the rest, then close the listener once the last
	// response has been written.
	fmt.Fprintln(os.Stderr, "fenced: draining (SIGTERM)")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := mgr.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil && !errors.Is(drainErr, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "fenced: drain incomplete: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "fenced: drained cleanly")
}
