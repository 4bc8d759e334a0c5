package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	netpprof "net/http/pprof"
	"strings"
	"sync"
	"time"

	"delrep/internal/config"
	"delrep/internal/runner"
	"delrep/internal/simspec"
	"delrep/internal/stats"
	"delrep/internal/telemetry"
)

// Options configures the daemon: a Server over the local executor.
type Options struct {
	// Engine runs the simulations, at most its worker count at a time.
	// Required.
	Engine *runner.Engine
	// QueueDepth bounds jobs waiting for a worker; a full queue rejects
	// submissions with 429. <= 0 selects 64.
	QueueDepth int
	// ClientInFlight caps one client's queued+running jobs; 0 disables
	// the cap.
	ClientInFlight int
	// CacheMaxBytes, when > 0, prunes the engine's disk cache (oldest
	// entries first) to this size after each executed job, bounding a
	// long-lived daemon's disk use.
	CacheMaxBytes int64
	// ProgressInterval is the SSE progress-event cadence for running
	// jobs; <= 0 selects 500ms.
	ProgressInterval time.Duration
	// Logger receives structured logs (one record per job transition,
	// admission rejection, prune, …); nil discards them. Every job
	// record carries job/client/spec-key attrs, so one job's lifecycle
	// greps out of a mixed stream.
	Logger *slog.Logger
	// Telemetry records a wall-clock span tree per job (exported by
	// GET /v1/jobs/{id}/trace and listed on /debug/jobs). Off by
	// default: a nil trace costs one pointer check per instrumentation
	// site and nothing else.
	Telemetry bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ for live
	// CPU/heap/goroutine profiling of the daemon.
	EnablePprof bool
}

// local is the Executor that runs jobs on this process's
// runner.Engine. Admission control is two-layered: a bounded queue (a
// full queue answers 429 with a Retry-After estimated from recent job
// latency) and a per-client in-flight cap, so one greedy sweep cannot
// starve interactive users. Scheduling is strict priority with FIFO
// order within each level.
//
// It has no lock of its own: its queue and accounting change in the
// same critical sections as the job transitions they belong to, so
// they live under srv.mu.
type local struct {
	srv     *Server
	opts    Options // QueueDepth with its default applied
	started time.Time
	wg      sync.WaitGroup
	pruneMu sync.Mutex

	// Guarded by srv.mu.
	cond        *sync.Cond
	queue       [numPriorities][]queued
	queuedCount int
	inflight    map[string]int // client -> queued+running jobs

	latency   *stats.Histogram                // completed-job wall seconds (all priorities)
	queueWait [numPriorities]*stats.Histogram // admission → dispatch, per priority
	execTime  [numPriorities]*stats.Histogram // dispatch → terminal, per priority
	totalTime [numPriorities]*stats.Histogram // submit → terminal, per priority
}

// queued is one admitted job waiting for a worker, with the run it
// asks for. The run's Config and key live here, not on the Job, and
// leave the daemon's memory at dispatch.
type queued struct {
	j   *Job
	run runner.Spec
}

// New builds the daemon's Server and starts its worker pool.
func New(opts Options) *Server {
	if opts.Engine == nil {
		panic("serve: Options.Engine is required")
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	x := &local{
		opts:     opts,
		inflight: map[string]int{},
		// 60 one-second buckets; sweeps that run longer land in +Inf.
		latency: stats.NewHistogram(60, 1),
	}
	x.started = time.Now()
	for p := 0; p < int(numPriorities); p++ {
		x.queueWait[p] = stats.NewHistogram(60, 1)
		x.execTime[p] = stats.NewHistogram(60, 1)
		x.totalTime[p] = stats.NewHistogram(60, 1)
	}
	s := NewServer(x, "j", "delrepd", opts.Logger, opts.Telemetry, opts.ProgressInterval)
	s.rejects["queue_full"], s.rejects["client_cap"] = 0, 0 // exported at 0 from the first scrape
	x.srv = s
	x.cond = sync.NewCond(&s.mu)
	for i := 0; i < opts.Engine.Workers(); i++ {
		x.wg.Add(1)
		go x.worker()
	}
	return s
}

// Routes registers the daemon-only endpoints.
func (x *local) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/cache/{key}", x.handleCacheGet)
	mux.HandleFunc("GET /debug/status", x.handleDebugStatus)
	if x.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
}

// Ready: a daemon can always queue.
func (x *local) Ready() (bool, string) { return true, "" }

// Admit applies the two admission caps and queues the job for the
// worker pool. srv.mu is held.
func (x *local) Admit(j *Job, _ SubmitRequest, cfg config.Config, key string) *Rejection {
	client := j.row.client
	if x.opts.ClientInFlight > 0 && x.inflight[client] >= x.opts.ClientInFlight {
		return &Rejection{
			Reason: "client_cap", Status: http.StatusTooManyRequests, RetryAfter: x.retryAfterLocked(),
			Message: fmt.Sprintf("client %q already has %d jobs in flight (cap %d)", client, x.opts.ClientInFlight, x.opts.ClientInFlight),
		}
	}
	if x.queuedCount >= x.opts.QueueDepth {
		return &Rejection{
			Reason: "queue_full", Status: http.StatusTooManyRequests, RetryAfter: x.retryAfterLocked(),
			Message: fmt.Sprintf("job queue is full (%d queued)", x.opts.QueueDepth),
		}
	}
	j.spanQueue = j.Span().Start("queue.wait")
	x.queue[j.row.prio] = append(x.queue[j.row.prio], queued{j, runner.Spec{Cfg: cfg, GPU: j.spec.GPU, CPU: j.spec.CPU, Key: key}})
	x.queuedCount++
	x.inflight[client]++
	x.cond.Signal()
	return nil
}

// retryAfterLocked estimates seconds until a queue slot frees up:
// recent mean job latency times the queue backlog per worker.
func (x *local) retryAfterLocked() int {
	mean := x.latency.Mean()
	if x.latency.Count() == 0 || mean <= 0 {
		return 1
	}
	est := int(math.Ceil(mean * float64(x.queuedCount+1) / float64(x.opts.Engine.Workers())))
	if est < 1 {
		est = 1
	}
	if est > 600 {
		est = 600
	}
	return est
}

// Cancel retires a job that is still queued; a running job's worker
// sees the cancelled context at the next simulation checkpoint and
// owns the bookkeeping.
func (x *local) Cancel(j *Job) {
	x.srv.mu.Lock()
	defer x.srv.mu.Unlock()
	if j.row.status == StatusQueued {
		x.finishQueuedLocked(j, "cancelled before start")
	}
}

// finishQueuedLocked retires a job that never started; callers hold
// srv.mu. The job stays in its queue slice until next() skips over it.
func (x *local) finishQueuedLocked(j *Job, msg string) {
	j.spanQueue.End()
	j.spanQueue = nil
	x.queuedCount--
	x.dropInflightLocked(j.row.client)
	x.srv.settleLocked(j, Outcome{Status: StatusCancelled, Error: msg})
	x.totalTime[j.row.prio].Add(j.row.finished.Sub(j.row.created).Seconds())
	x.srv.publishLocked(j)
	x.srv.closeTraceLocked(j)
	x.srv.retire(j)
}

func (x *local) dropInflightLocked(client string) {
	if x.inflight[client]--; x.inflight[client] <= 0 {
		delete(x.inflight, client)
	}
}

// worker dispatches queued jobs until shutdown drains the queue.
func (x *local) worker() {
	defer x.wg.Done()
	for {
		q := x.next()
		if q.j == nil {
			return
		}
		x.runJob(q.j, q.run)
	}
}

// next blocks until a job is dispatchable and marks it running.
// Highest priority wins; FIFO within a priority. Returns the zero entry
// when the server is draining and the queue is empty.
func (x *local) next() queued {
	s := x.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for p := numPriorities - 1; p >= 0; p-- {
			for len(x.queue[p]) > 0 {
				q := x.queue[p][0]
				x.queue[p][0] = queued{} // the backing array must not keep the Config
				x.queue[p] = x.queue[p][1:]
				j := q.j
				if j.row.status != StatusQueued {
					continue // cancelled while queued; already retired
				}
				x.queuedCount--
				s.startLocked(j)
				j.spanQueue.End()
				j.spanQueue = nil
				x.queueWait[j.row.prio].Add(j.row.started.Sub(j.row.created).Seconds())
				s.notifyLocked(j)
				return q
			}
		}
		if s.draining {
			return queued{}
		}
		x.cond.Wait()
	}
}

// runJob executes one dispatched job on the engine and retires it.
func (x *local) runJob(j *Job, rspec runner.Spec) {
	s := x.srv
	root := j.Span()
	submitSpan := root.Start("runner.submit")
	runCtx := telemetry.ContextWithSpan(j.ctx, submitSpan)
	var (
		fut *runner.Future
		run runner.Run
	)
	for {
		fut = x.opts.Engine.SubmitCtx(runCtx, rspec)
		j.SetProgress(fut.Progress)
		run = fut.Wait()
		if run.Err == nil || j.ctx.Err() != nil || !errors.Is(run.Err, context.Canceled) {
			break
		}
		// The shared future was cancelled by a different job's waiter
		// between our submission and completion; this job is still
		// wanted, so resubmit (the failed future has left the memo).
	}
	submitSpan.Set("source", run.Source.String())
	submitSpan.End()

	// encode times rendering the result's reply bytes, outside s.mu: the
	// job that builds the future's shared result pays for it, every
	// other job of the future reuses the bytes.
	enc := root.Start("encode")
	var out Outcome
	switch {
	case run.Err == nil:
		res, err := sharedResult(fut, j.spec, run)
		if err != nil {
			out = Outcome{Status: StatusFailed, Error: err.Error()}
			break
		}
		enc.Set("bytes", len(res.json))
		out = Outcome{Status: StatusDone, Source: run.Source.String(), Result: res}
	case j.ctx.Err() != nil && errors.Is(run.Err, context.Canceled):
		out = Outcome{Status: StatusCancelled, Error: "cancelled"}
	default:
		out = Outcome{Status: StatusFailed, Error: run.Err.Error()}
	}
	enc.End()
	s.mu.Lock()
	s.settleLocked(j, out)
	row := j.row
	x.dropInflightLocked(row.client)
	x.latency.Add(row.finished.Sub(row.started).Seconds())
	x.execTime[row.prio].Add(row.finished.Sub(row.started).Seconds())
	x.totalTime[row.prio].Add(row.finished.Sub(row.created).Seconds())
	reply := root.Start("reply")
	s.publishLocked(j)
	reply.End()
	s.closeTraceLocked(j)
	s.mu.Unlock()

	s.retire(j)
	if out.Status == StatusDone && run.Source == runner.SourceExecuted {
		x.maybePrune()
	}
}

// sharedResult is the result a done job of spec holds: the one rendered
// result every job of fut shares, unless spec differs from the spec
// that result echoes — then the job gets its own. A result that cannot
// be rendered is the job's error, and fut keeps nothing.
func sharedResult(fut *runner.Future, spec simspec.Spec, run runner.Run) (*SharedResult, error) {
	return runner.Share(fut, func(r *SharedResult) bool { return r.Result.Spec == spec }, func() (*SharedResult, error) {
		r := simspec.NewResult(spec, run.Results, run.Digest)
		return NewSharedResult(&r)
	})
}

// maybePrune bounds the disk cache after an executed (cache-growing)
// run. Skipped when a prune is already in progress.
func (x *local) maybePrune() {
	cache := x.opts.Engine.DiskCache()
	if x.opts.CacheMaxBytes <= 0 || cache == nil {
		return
	}
	if !x.pruneMu.TryLock() {
		return
	}
	defer x.pruneMu.Unlock()
	removed, freed, err := cache.Prune(x.opts.CacheMaxBytes)
	if err != nil {
		x.srv.logger.Warn("cache prune failed", "error", err)
	} else if removed > 0 {
		x.srv.logger.Info("cache pruned",
			"removed", removed, "freed_bytes", freed, "max_bytes", x.opts.CacheMaxBytes)
	}
}

// Drain cancels every queued job and lets the workers finish what is
// running: they exit once the queue is empty and the server draining.
func (x *local) Drain(live []*Job) {
	x.srv.mu.Lock()
	for _, j := range live {
		if j.row.status == StatusQueued {
			x.finishQueuedLocked(j, "server shutting down")
		}
	}
	x.cond.Broadcast()
	x.srv.mu.Unlock()
	x.wg.Wait()
}

// Metrics appends the daemon's own families: queue and worker gauges,
// the engine's cache accounting, and the job latency histograms.
func (x *local) Metrics(b *strings.Builder) {
	c := x.opts.Engine.Snapshot()
	cacheStats := x.opts.Engine.DiskCache().Stats()

	x.srv.mu.Lock()
	defer x.srv.mu.Unlock()
	fmt.Fprintf(b, "# TYPE delrepd_jobs_queued gauge\ndelrepd_jobs_queued %d\n", x.queuedCount)
	workers := x.opts.Engine.Workers()
	fmt.Fprintf(b, "# TYPE delrepd_workers gauge\ndelrepd_workers %d\n", workers)
	fmt.Fprintf(b, "# TYPE delrepd_worker_utilization gauge\ndelrepd_worker_utilization %g\n",
		float64(x.srv.running)/float64(workers))

	fmt.Fprintf(b, "# TYPE delrepd_engine_runs_total counter\n")
	fmt.Fprintf(b, "delrepd_engine_runs_total{source=\"executed\"} %d\n", c.Executed)
	fmt.Fprintf(b, "delrepd_engine_runs_total{source=\"memo\"} %d\n", c.MemoHits)
	fmt.Fprintf(b, "delrepd_engine_runs_total{source=\"disk\"} %d\n", c.DiskHits)
	fmt.Fprintf(b, "delrepd_engine_runs_total{source=\"failed\"} %d\n", c.Failed)
	// Hit ratio over resolved submissions: memo and disk hits per
	// submission that produced a result.
	if resolved := c.Executed + c.MemoHits + c.DiskHits; resolved > 0 {
		fmt.Fprintf(b, "# TYPE delrepd_cache_hit_ratio gauge\ndelrepd_cache_hit_ratio %g\n",
			float64(c.MemoHits+c.DiskHits)/float64(resolved))
	} else {
		fmt.Fprintf(b, "# TYPE delrepd_cache_hit_ratio gauge\ndelrepd_cache_hit_ratio 0\n")
	}
	fmt.Fprintf(b, "# TYPE delrepd_disk_cache_total counter\n")
	fmt.Fprintf(b, "delrepd_disk_cache_total{result=\"hit\"} %d\n", cacheStats.Hits)
	fmt.Fprintf(b, "delrepd_disk_cache_total{result=\"miss\"} %d\n", cacheStats.Misses)
	fmt.Fprintf(b, "delrepd_disk_cache_total{result=\"corrupt\"} %d\n", cacheStats.Corrupt)

	// Writes to a strings.Builder cannot fail.
	_ = x.latency.WriteProm(b, "delrepd_job_seconds")
	for _, fam := range []struct {
		name  string
		hists *[numPriorities]*stats.Histogram
	}{
		{"delrepd_job_queue_seconds", &x.queueWait},
		{"delrepd_job_exec_seconds", &x.execTime},
		{"delrepd_job_total_seconds", &x.totalTime},
	} {
		fmt.Fprintf(b, "# TYPE %s histogram\n", fam.name)
		for p := Priority(0); p < numPriorities; p++ {
			_ = fam.hists[p].WritePromLabeled(b, fam.name, fmt.Sprintf("priority=%q", p))
		}
	}
}
