package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
)

// handleWorkers reports the registry's view of the fleet, in URL order.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Workers []WorkerInfo `json:"workers"`
	}{s.reg.Infos()})
}

// Metrics appends the coordinator's own families: fleet-wide gauges,
// dispatch/failover/steal counters, the cache-tier probe accounting,
// and per-worker health. delrepfleet_steals_total counts attempts
// placed on a worker other than the key's ring home, so it rises
// whenever a busy home delegates; delrepfleet_worker_outstanding is
// the slots placement has reserved on each worker.
func (s *Server) Metrics(b *strings.Builder) {
	infos := s.reg.Infos()
	ready := 0
	for _, wi := range infos {
		if wi.Ready {
			ready++
		}
	}
	fmt.Fprintf(b, "# TYPE delrepfleet_workers gauge\ndelrepfleet_workers %d\n", len(infos))
	fmt.Fprintf(b, "# TYPE delrepfleet_workers_ready gauge\ndelrepfleet_workers_ready %d\n", ready)
	fmt.Fprintf(b, "# TYPE delrepfleet_dispatch_total counter\ndelrepfleet_dispatch_total %d\n", s.nDispatch.Load())
	fmt.Fprintf(b, "# TYPE delrepfleet_retries_total counter\ndelrepfleet_retries_total %d\n", s.nRetry.Load())
	fmt.Fprintf(b, "# TYPE delrepfleet_steals_total counter\ndelrepfleet_steals_total %d\n", s.nSteal.Load())
	fmt.Fprintf(b, "# TYPE delrepfleet_cache_probes_total counter\n")
	fmt.Fprintf(b, "delrepfleet_cache_probes_total{result=\"hit\"} %d\n", s.nProbeHit.Load())
	fmt.Fprintf(b, "delrepfleet_cache_probes_total{result=\"miss\"} %d\n", s.nProbeMiss.Load())

	fmt.Fprintf(b, "# TYPE delrepfleet_worker_up gauge\n")
	for _, wi := range infos {
		up := 0
		if wi.Ready {
			up = 1
		}
		fmt.Fprintf(b, "delrepfleet_worker_up{worker=%q} %d\n", wi.URL, up)
	}
	fmt.Fprintf(b, "# TYPE delrepfleet_worker_outstanding gauge\n")
	for _, wi := range infos {
		fmt.Fprintf(b, "delrepfleet_worker_outstanding{worker=%q} %d\n", wi.URL, wi.Outstanding)
	}
	fmt.Fprintf(b, "# TYPE delrepfleet_worker_slots gauge\n")
	for _, wi := range infos {
		fmt.Fprintf(b, "delrepfleet_worker_slots{worker=%q} %d\n", wi.URL, wi.Slots)
	}
}
