// Command delrepfleet coordinates a fleet of delrepd workers: it
// serves the same /v1/jobs API as a single daemon and shards submitted
// simulations across workers by content key, so every existing client
// (curl, delrepsim -remote, expdriver -remote) scales past one machine
// by pointing at the coordinator instead.
//
// Usage:
//
//	delrepfleet -addr :9090 \
//	    -worker http://sim1:8080 -worker http://sim2:8080
//
// Routing is locate, then place. Consistent hashing over the run's
// content-addressed cache key names each result's home worker; the
// coordinator probes the worker it remembers holding the result, else
// the home (GET /v1/cache/{key}), before spending a queue slot, so
// repeated sweeps of overlapping configuration points are answered
// from the workers' warm disk caches. A miss is placed on the first
// worker in the key's ring order with a free slot — a busy home
// delegates to an idle neighbour. Workers are health-checked via
// /readyz; a dead or draining worker's jobs fail over to the next
// worker, and because simulations are deterministic and
// content-addressed, the replayed job returns byte-identical output.
//
// On SIGINT/SIGTERM the coordinator stops admitting jobs, cancels
// in-flight ones (propagating the cancellation to workers), and exits.
// See internal/fleet and DESIGN.md §12 for the architecture.
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"delrep/internal/fleet"
	"delrep/internal/serve"
)

// workerList collects repeated -worker flags, each one URL or a
// comma-separated list, into one slice.
type workerList []string

func (w *workerList) String() string { return strings.Join(*w, ",") }

func (w *workerList) Set(v string) error {
	for _, u := range strings.Split(v, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			return fmt.Errorf("worker %q: URL must start with http:// or https://", u)
		}
		*w = append(*w, u)
	}
	return nil
}

func main() {
	var workers workerList
	var (
		addr    = flag.String("addr", ":9090", "listen address")
		probe   = flag.Duration("probe", 2*time.Second, "worker health-probe interval")
		retries = flag.Int("retries", 2, "extra failover rounds across the ready workers before a job fails")
		drain   = flag.Duration("drain", 30*time.Second, "how long shutdown waits while cancelling in-flight jobs")
		logJSON = flag.Bool("log-json", false, "emit logs as JSON lines instead of logfmt")
		telem   = flag.Bool("telemetry", true, "record per-job span traces (GET /v1/jobs/{id}/trace)")
	)
	flag.Var(&workers, "worker", "worker base URL (repeatable)")
	flag.Parse()

	logger := serve.NewLogger(*logJSON)
	if len(workers) == 0 {
		serve.Fatal(logger, "no workers configured (use -worker URL, repeatable)")
	}

	srv, err := fleet.New(fleet.Options{
		Workers:       workers,
		ProbeInterval: *probe,
		Retries:       *retries,
		Logger:        logger,
		Telemetry:     *telem,
	})
	if err != nil {
		serve.Fatal(logger, "starting coordinator", "error", err)
	}

	logger.Info("coordinating", "addr", *addr, "workers", len(workers), "telemetry", *telem)
	serve.ListenAndDrain(logger, *addr, *drain, srv.Server, nil)
}
