// Command delrepd serves the simulator over HTTP: a long-lived daemon
// with a bounded priority job queue, per-client admission control,
// cooperative cancellation, and the shared on-disk result cache, so
// many clients can sweep the design space against one warm cache.
//
// Usage:
//
//	delrepd -addr :8080 -j 8 -cache auto -cache-max 2G
//
// Submit a job and read it back:
//
//	curl -s localhost:8080/v1/jobs -d '{"spec":{"gpu":"HS","cpu":"vips"}}'
//	curl -s localhost:8080/v1/jobs/j000001
//
// Observability: logs are structured (logfmt on stderr; -log-json for
// JSON lines), every job carries a wall-clock span trace exported at
// /v1/jobs/{id}/trace (disable with -telemetry=false), /debug/jobs
// lists the newest 128 terminal jobs of the job table with their
// traces, /debug/status the newest 20, and -pprof mounts
// net/http/pprof under /debug/pprof/. -cpuprofile and -memprofile
// write whole-process profiles; the heap snapshot is also written on
// SIGTERM, after the drain, so profiles survive a normal service stop.
//
// See internal/serve for the full API. On SIGINT/SIGTERM the daemon
// stops admitting jobs, cancels its queue, and drains running jobs for
// up to -drain before cancelling them at their next checkpoint.
package main

import (
	"flag"
	"runtime"
	"sync"
	"time"

	"delrep/internal/prof"
	"delrep/internal/runner"
	"delrep/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrently running simulations")
		cacheDir = flag.String("cache", "auto", `on-disk result cache: directory path, "auto" (per-user dir), or "off"`)
		cacheMax = flag.String("cache-max", "", "prune the cache to this size after runs (e.g. 2G; empty disables pruning)")
		queue    = flag.Int("queue", 64, "max queued jobs before submissions get 429")
		perCli   = flag.Int("client-inflight", 0, "max queued+running jobs per client (0 = unlimited)")
		drain    = flag.Duration("drain", 2*time.Minute, "how long shutdown waits for running jobs before cancelling them")
		logJSON  = flag.Bool("log-json", false, "emit logs as JSON lines instead of logfmt")
		telem    = flag.Bool("telemetry", true, "record per-job span traces (GET /v1/jobs/{id}/trace, /debug/jobs)")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	logger := serve.NewLogger(*logJSON)
	fatal := func(msg string, args ...any) { serve.Fatal(logger, msg, args...) }

	// stopProf is safe to call from both the normal exit path and the
	// signal path; only the first call writes the heap profile, so a
	// SIGTERM-driven drain still produces -memprofile output.
	rawStop, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal("starting profiler", "error", err)
	}
	stopProf := sync.OnceFunc(rawStop)
	defer stopProf()

	var maxBytes int64
	if *cacheMax != "" {
		if maxBytes, err = runner.ParseSize(*cacheMax); err != nil {
			fatal("parsing -cache-max", "error", err)
		}
	}
	cache, uncached, err := runner.OpenCache(*cacheDir)
	if err != nil {
		fatal("opening the result cache", "error", err)
	}
	if uncached != nil {
		logger.Warn("running uncached", "error", uncached)
	}
	if cache != nil {
		logger.Info("result cache open", "dir", cache.Dir())
	} else if maxBytes > 0 {
		fatal("-cache-max set but the cache is disabled")
	}

	eng := runner.New(runner.Options{Workers: *jobs, Cache: cache})
	srv := serve.New(serve.Options{
		Engine:         eng,
		QueueDepth:     *queue,
		ClientInFlight: *perCli,
		CacheMaxBytes:  maxBytes,
		Logger:         logger,
		Telemetry:      *telem,
		EnablePprof:    *pprofOn,
	})

	logger.Info("serving", "addr", *addr, "workers", eng.Workers(), "queue_depth", *queue,
		"telemetry", *telem, "pprof", *pprofOn)
	// Stop profiling inside the signal-driven path too: SIGTERM is the
	// normal way a service manager stops the daemon, and the -memprofile
	// snapshot should reflect the drained (quiescent) heap.
	serve.ListenAndDrain(logger, *addr, *drain, srv, stopProf)
}
