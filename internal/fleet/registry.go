package fleet

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"delrep/internal/jobapi"
)

// probeDefaults tune the registry's health loop.
const (
	defaultProbeInterval = 2 * time.Second
	probeTimeout         = 3 * time.Second
	maxProbeBackoff      = 30 * time.Second
)

// WorkerInfo is a point-in-time snapshot of one worker's registry
// state, as rendered by GET /v1/workers and /metrics.
type WorkerInfo struct {
	URL   string `json:"url"`
	Ready bool   `json:"ready"`
	// Failures is the consecutive failed-probe count; the next probe of
	// a failing worker is delayed by an exponential backoff derived
	// from it.
	Failures  int    `json:"failures,omitempty"`
	LastError string `json:"last_error,omitempty"`
	// Slots, Queued and Running are scraped from the worker's /metrics
	// (delrepd_workers, delrepd_jobs_queued, delrepd_jobs_running);
	// zero until the first successful scrape.
	Slots   int `json:"slots,omitempty"`
	Queued  int `json:"queued,omitempty"`
	Running int `json:"running,omitempty"`
	// Outstanding is the coordinator's own count of jobs placed on this
	// worker and not yet terminal: a slot is reserved when the worker
	// is chosen, before the submit round trip, so it is fresher than
	// any scrape and is the load signal placement reads.
	Outstanding int `json:"outstanding"`
}

// worker is the registry's mutable record for one daemon.
type worker struct {
	url string
	api *jobapi.Client

	mu          sync.Mutex
	ready       bool
	failures    int       // consecutive probe failures
	nextProbe   time.Time // backoff gate: skip probes before this
	lastErr     string
	slots       int
	queued      int
	running     int
	outstanding int
}

// Registry tracks worker health and load. Workers are probed on a
// fixed cadence via /readyz (with /metrics scraped on success for
// queue-depth observability); a failed probe — or a dispatch failure
// reported by the coordinator — marks the worker not ready and backs
// off its re-probe exponentially, so a dead machine costs a bounded
// trickle of connection attempts while it stays down.
type Registry struct {
	interval time.Duration
	logger   *slog.Logger

	mu      sync.Mutex
	workers map[string]*worker

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewRegistry builds a registry over the worker base URLs and starts
// its probe loop. interval <= 0 selects the default cadence.
func NewRegistry(urls []string, interval time.Duration, client *http.Client, logger *slog.Logger) *Registry {
	if interval <= 0 {
		interval = defaultProbeInterval
	}
	if client == nil {
		client = &http.Client{Timeout: probeTimeout}
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	r := &Registry{
		interval: interval,
		logger:   logger,
		workers:  map[string]*worker{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, u := range urls {
		r.workers[u] = &worker{url: u, api: jobapi.NewClient(u, client)}
	}
	// Workers start not-ready and the first probe sweep runs
	// immediately, so a coordinator is routable as soon as its workers
	// answer /readyz once.
	go r.loop()
	return r
}

// Close stops the probe loop.
func (r *Registry) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

func (r *Registry) loop() {
	defer close(r.done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	r.probeAll()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

func (r *Registry) probeAll() {
	var wg sync.WaitGroup
	for _, w := range r.snapshotWorkers() {
		w.mu.Lock()
		skip := time.Now().Before(w.nextProbe)
		w.mu.Unlock()
		if skip {
			continue
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			r.probe(w)
		}(w)
	}
	wg.Wait()
}

func (r *Registry) snapshotWorkers() []*worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*worker, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, w)
	}
	return out
}

// probe checks one worker's /readyz and, on success, scrapes its
// /metrics gauges.
func (r *Registry) probe(w *worker) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	if err := w.api.Ready(ctx); err != nil {
		r.recordFailure(w, err.Error())
		return
	}
	slots, queued, running := scrapeMetrics(ctx, w.api)

	w.mu.Lock()
	wasReady := w.ready
	w.ready = true
	w.failures = 0
	w.nextProbe = time.Time{}
	w.lastErr = ""
	if slots > 0 {
		w.slots = slots
	}
	w.queued, w.running = queued, running
	w.mu.Unlock()
	if !wasReady {
		r.logger.InfoContext(ctx, "worker ready", "worker", w.url, "slots", slots)
	}
}

// scrapeMetrics best-effort parses the worker's Prometheus text for
// the three load gauges. Scrape failures are ignored — readiness came
// from /readyz, and load falls back to the coordinator's own
// outstanding counts.
func scrapeMetrics(ctx context.Context, api *jobapi.Client) (slots, queued, running int) {
	body, err := api.Metrics(ctx)
	if err != nil {
		return 0, 0, 0
	}
	get := func(name string) int {
		for _, line := range strings.Split(string(body), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				if n, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil {
					return n
				}
			}
		}
		return 0
	}
	return get("delrepd_workers"), get("delrepd_jobs_queued"), get("delrepd_jobs_running")
}

// recordFailure marks a worker not ready and schedules its re-probe
// with exponential backoff (interval · 2^failures, capped).
func (r *Registry) recordFailure(w *worker, msg string) {
	w.mu.Lock()
	wasReady := w.ready
	w.ready = false
	w.failures++
	backoff := r.interval << min(w.failures, 10)
	if backoff > maxProbeBackoff {
		backoff = maxProbeBackoff
	}
	w.nextProbe = time.Now().Add(backoff)
	w.lastErr = msg
	w.mu.Unlock()
	if wasReady {
		r.logger.Warn("worker down", "worker", w.url, "error", msg)
	}
}

// MarkFailed is the coordinator's fast path for dispatch-time
// failures: a connection error or 5xx while talking to the worker
// marks it not ready immediately, without waiting for the next probe
// cycle, so subsequent jobs fail over at once. The probe loop brings
// it back when /readyz answers again.
func (r *Registry) MarkFailed(url, msg string) {
	if w := r.lookup(url); w != nil {
		r.recordFailure(w, msg)
	}
}

func (r *Registry) lookup(url string) *worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.workers[url]
}

// api is the job API client of a worker the registry was built with.
func (r *Registry) api(url string) *jobapi.Client { return r.lookup(url).api }

// Ready reports whether the worker is currently believed healthy.
func (r *Registry) Ready(url string) bool {
	w := r.lookup(url)
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ready
}

// Reserve places one job: it picks, among the ready workers of seq (a
// key's ring sequence) not in tried, the first whose outstanding is
// below its slots, else the one least loaded relative to its slots
// (ties in ring order), and counts the job against it before any
// other placement can look. ok is false when no such worker is ready.
// Every Reserve is paired with one Release.
func (r *Registry) Reserve(seq, tried []string) (url string, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best *worker
	var bestOut, bestSlots int
	for _, u := range seq {
		w := r.workers[u]
		if w == nil || slices.Contains(tried, u) {
			continue
		}
		w.mu.Lock()
		ready, out, slots := w.ready, w.outstanding, max(w.slots, 1) // no scrape yet: assume one slot
		w.mu.Unlock()
		if !ready {
			continue
		}
		if out < slots {
			best = w
			break
		}
		if best == nil || out*bestSlots < bestOut*slots {
			best, bestOut, bestSlots = w, out, slots
		}
	}
	if best == nil {
		return "", false
	}
	best.mu.Lock()
	best.outstanding++
	best.mu.Unlock()
	return best.url, true
}

// Release returns the slot a Reserve took.
func (r *Registry) Release(url string) {
	if w := r.lookup(url); w != nil {
		w.mu.Lock()
		w.outstanding--
		w.mu.Unlock()
	}
}

// Info snapshots one worker (zero value for unknown URLs).
func (r *Registry) Info(url string) WorkerInfo {
	w := r.lookup(url)
	if w == nil {
		return WorkerInfo{URL: url}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkerInfo{
		URL: w.url, Ready: w.ready, Failures: w.failures, LastError: w.lastErr,
		Slots: w.slots, Queued: w.queued, Running: w.running, Outstanding: w.outstanding,
	}
}

// Infos snapshots every worker. The order is unspecified (the input's
// URL order is not preserved); callers sort as needed.
func (r *Registry) Infos() []WorkerInfo {
	out := make([]WorkerInfo, 0)
	for _, w := range r.snapshotWorkers() {
		out = append(out, r.Info(w.url))
	}
	return out
}

// ReadyCount returns how many workers are currently ready.
func (r *Registry) ReadyCount() int {
	n := 0
	for _, w := range r.snapshotWorkers() {
		if r.Ready(w.url) {
			n++
		}
	}
	return n
}
