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

// worker is the registry's record for one daemon. url and api are
// fixed at construction; every other field is guarded by Registry.mu.
type worker struct {
	url string
	api *jobapi.Client

	ready       bool
	failures    int       // consecutive probe failures
	nextProbe   time.Time // backoff gate: skip probes before this
	lastErr     string
	slots       int
	queued      int
	running     int
	outstanding int
}

func (w *worker) info() WorkerInfo {
	return WorkerInfo{
		URL: w.url, Ready: w.ready, Failures: w.failures, LastError: w.lastErr,
		Slots: w.slots, Queued: w.queued, Running: w.running, Outstanding: w.outstanding,
	}
}

// Registry tracks worker health and load. Workers are probed on a
// fixed cadence via /readyz (with /metrics scraped on success for
// queue-depth observability); a failed probe — or a dispatch failure
// reported by the coordinator — marks the worker not ready and backs
// off its re-probe exponentially, so a dead machine costs a bounded
// trickle of connection attempts while it stays down. The worker table
// is fixed at construction, so reading workers and byURL needs no
// lock; mu guards every worker's mutable fields.
type Registry struct {
	interval time.Duration
	logger   *slog.Logger
	workers  []*worker // in construction order
	byURL    map[string]*worker

	mu sync.Mutex

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
		byURL:    map[string]*worker{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, u := range urls {
		w := &worker{url: u, api: jobapi.NewClient(u, client)}
		r.workers = append(r.workers, w)
		r.byURL[u] = w
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
	r.mu.Lock()
	for _, w := range r.workers {
		if time.Now().Before(w.nextProbe) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.probe(w)
		}()
	}
	r.mu.Unlock()
	wg.Wait()
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

	r.mu.Lock()
	wasReady := w.ready
	w.ready = true
	w.failures = 0
	w.nextProbe = time.Time{}
	w.lastErr = ""
	if slots > 0 {
		w.slots = slots
	}
	w.queued, w.running = queued, running
	r.mu.Unlock()
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
	gauges := map[string]*int{"delrepd_workers": &slots, "delrepd_jobs_queued": &queued, "delrepd_jobs_running": &running}
	for _, line := range strings.Split(string(body), "\n") {
		name, value, _ := strings.Cut(line, " ")
		if p := gauges[name]; p != nil {
			if n, err := strconv.Atoi(strings.TrimSpace(value)); err == nil {
				*p = n
			}
		}
	}
	return slots, queued, running
}

// recordFailure marks a worker not ready and schedules its re-probe
// with exponential backoff (interval · 2^failures, capped).
func (r *Registry) recordFailure(w *worker, msg string) {
	r.mu.Lock()
	wasReady := w.ready
	w.ready = false
	w.failures++
	backoff := min(r.interval<<min(w.failures, 10), maxProbeBackoff)
	w.nextProbe = time.Now().Add(backoff)
	w.lastErr = msg
	r.mu.Unlock()
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
	if w := r.byURL[url]; w != nil {
		r.recordFailure(w, msg)
	}
}

// api is the job API client of a worker the registry was built with.
func (r *Registry) api(url string) *jobapi.Client { return r.byURL[url].api }

// Ready reports whether the worker is currently believed healthy.
func (r *Registry) Ready(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.byURL[url]
	return w != nil && w.ready
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
	var bestSlots int
	for _, u := range seq {
		w := r.byURL[u]
		if w == nil || !w.ready || slices.Contains(tried, u) {
			continue
		}
		slots := max(w.slots, 1) // no scrape yet: assume one slot
		if w.outstanding < slots {
			best = w
			break
		}
		if best == nil || w.outstanding*bestSlots < best.outstanding*slots {
			best, bestSlots = w, slots
		}
	}
	if best == nil {
		return "", false
	}
	best.outstanding++
	return best.url, true
}

// Release returns the slot a Reserve took.
func (r *Registry) Release(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w := r.byURL[url]; w != nil {
		w.outstanding--
	}
}

// Info snapshots one worker (zero value for unknown URLs).
func (r *Registry) Info(url string) WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	if w := r.byURL[url]; w != nil {
		return w.info()
	}
	return WorkerInfo{URL: url}
}

// Infos snapshots every worker, in the order the registry was built
// with (the coordinator's is URL order).
func (r *Registry) Infos() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, len(r.workers))
	for i, w := range r.workers {
		out[i] = w.info()
	}
	return out
}

// ReadyCount returns how many workers are currently ready.
func (r *Registry) ReadyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, w := range r.workers {
		if w.ready {
			n++
		}
	}
	return n
}
