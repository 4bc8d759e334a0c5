// Package fleet is the job API's second Executor: the coordinator
// behind cmd/delrepfleet. The API itself — routes, wire types, job
// table, SSE, traces, drain, shared metrics — is internal/serve's (its
// package comment is the one API table); this package holds only what
// is different about running a job somewhere else:
//
//   - routing: consistent hashing of the run's content key over a Ring
//     of delrepd workers, so a repeated spec lands on the worker whose
//     disk cache already holds it;
//   - probe: GET /v1/cache/{key} on that shard before spending a queue
//     slot — the workers' warm caches form one distributed cache tier;
//   - failover: a Registry health-checks workers via /readyz; a job
//     whose worker dies, drains or refuses is replayed on the next
//     ready worker in ring order, for up to Retries+1 rounds — safe
//     because simulations are deterministic and content-addressed;
//   - steal: a job whose home worker is a straggler goes to an idle
//     worker instead.
//
// Client is the other direction: a runner.Resolver that submits to any
// /v1/jobs endpoint, used by delrepsim -remote and expdriver -remote.
package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// Options configures a coordinator Server.
type Options struct {
	// Workers are the delrepd base URLs the fleet shards over. Required.
	Workers []string
	// Replicas is the virtual-node count per worker on the hash ring;
	// <= 0 selects the default.
	Replicas int
	// ProbeInterval is the registry's health-probe cadence; <= 0
	// selects the default.
	ProbeInterval time.Duration
	// Retries bounds full failover rounds: a job tries every ready
	// worker in ring order up to Retries+1 times before failing.
	// <= 0 selects 2.
	Retries int
	// StealMargin is the work-stealing trigger: a home worker with
	// outstanding >= slots+StealMargin is a straggler, and its job is
	// stolen by the first ring-order alternative with a free slot.
	// <= 0 selects 2.
	StealMargin int
	// HTTPClient talks to workers for probes, submissions, and polls;
	// nil builds one with a sane timeout. SSE streams always use an
	// untimed variant of its transport.
	HTTPClient *http.Client
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
	// Telemetry records a wall-clock span tree per job (receive →
	// admission → dispatch attempts), exported by GET
	// /v1/jobs/{id}/trace.
	Telemetry bool
}

// Server is the fleet coordinator: the embedded serve.Server is the job
// API (Handler, Shutdown), and Server itself is the serve.Executor
// that API runs jobs through — one dispatcher goroutine per job,
// sharding over the workers by content key. Create with New.
type Server struct {
	*serve.Server
	ring        *Ring
	reg         *Registry
	client      *http.Client // bounded-timeout calls (submit, probe, poll, cancel)
	stream      *http.Client // unbounded, for SSE watch streams
	retries     int
	stealMargin int
	wg          sync.WaitGroup // live dispatchers

	nDispatch  atomic.Int64 // jobs handed to a worker queue
	nRetry     atomic.Int64 // failover re-dispatches after a worker loss
	nSteal     atomic.Int64 // jobs rerouted off a straggling home worker
	nProbeHit  atomic.Int64 // cache-tier probes answered 200
	nProbeMiss atomic.Int64 // cache-tier probes answered 404
}

// errPermanent wraps failures that re-dispatching cannot fix (a spec
// the worker rejects, a deterministic simulation error): the job fails
// immediately instead of burning failover rounds.
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }

// New builds a coordinator over the configured workers and starts its
// health registry.
func New(opts Options) (*Server, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	if opts.Retries <= 0 {
		opts.Retries = 2
	}
	if opts.StealMargin <= 0 {
		opts.StealMargin = 2
	}
	client := opts.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	s := &Server{
		ring: NewRing(opts.Workers, opts.Replicas),
		// SSE watch streams live as long as the job runs; strip any
		// overall timeout but keep the transport (and its dial/TLS
		// limits) so tests can inject one.
		client:      client,
		stream:      &http.Client{Transport: client.Transport},
		retries:     opts.Retries,
		stealMargin: opts.StealMargin,
	}
	s.reg = NewRegistry(s.ring.Members(), opts.ProbeInterval, client, opts.Logger)
	s.Server = serve.NewServer(s, "f", "delrepfleet", opts.Logger, opts.Telemetry, 0, 0)
	return s, nil
}

// Registry exposes the worker registry (for status surfaces and tests).
func (s *Server) Registry() *Registry { return s.reg }

// Routes registers the coordinator-only endpoint.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/workers", s.handleWorkers)
}

// Ready: a coordinator whose whole fleet is down could only queue
// submissions into failure.
func (s *Server) Ready() (bool, string) {
	return s.reg.ReadyCount() > 0, "no ready workers"
}

// Admit never refuses: the workers' own admission control is the
// fleet's, met per attempt. It starts the job's dispatcher.
func (s *Server) Admit(j *serve.Job, req serve.SubmitRequest, cfg config.Config) *serve.Rejection {
	s.wg.Add(1)
	go s.dispatch(j, req, cfg)
	return nil
}

// Cancel has nothing to add: every job has a dispatcher watching its
// context, which propagates the cancellation to the worker.
func (s *Server) Cancel(*serve.Job) {}

// Drain cancels every live job (a coordinator exits promptly; the
// workers keep the results they finish), waits for the dispatchers,
// and stops the registry.
func (s *Server) Drain(live []*serve.Job) {
	for _, j := range live {
		j.Cancel()
	}
	s.wg.Wait()
	s.reg.Close()
}

// dispatch drives one job to a terminal state: route by ring order,
// probe the cache tier, submit, watch, and fail over on worker loss.
func (s *Server) dispatch(j *serve.Job, req serve.SubmitRequest, cfg config.Config) {
	defer s.wg.Done()
	// The routing key is the full run key, its content address what the
	// cache tier is probed by — the same both every worker would compute.
	spec := j.Spec()
	key := runner.Key(cfg, spec.GPU, spec.CPU)
	addr := runner.CacheAddr(key)
	ctx := j.Context()
	var lastErr error = errors.New("no ready workers")
	for round := 0; round <= s.retries && ctx.Err() == nil; round++ {
		if round > 0 {
			// Every candidate failed (or none were ready): give the
			// registry a probe cycle to notice recoveries first.
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				continue
			}
		}
		cands, stolen := s.candidates(key)
		if stolen {
			s.nSteal.Add(1)
		}
		for _, worker := range cands {
			if ctx.Err() != nil {
				break
			}
			span := j.Span().Start("fleet.attempt")
			span.Set("worker", worker)
			out, err := s.attempt(j, req, addr, worker)
			span.End()
			var perm errPermanent
			switch {
			case err == nil:
				j.Finish(out)
				return
			case errors.As(err, &perm):
				j.Finish(serve.Outcome{Status: serve.StatusFailed, Error: perm.Error(), Worker: worker})
				return
			}
			// A retryable attempt failure: the job falls over to the
			// next candidate (or the next round). Replay is safe
			// because simulations are deterministic and idempotent.
			lastErr = err
			s.nRetry.Add(1)
			j.Log().WarnContext(ctx, "dispatch attempt failed", "worker", worker, "error", err)
		}
	}
	if ctx.Err() != nil {
		j.Finish(serve.Outcome{Status: serve.StatusCancelled, Error: "cancelled"})
		return
	}
	j.Finish(serve.Outcome{Status: serve.StatusFailed,
		Error: fmt.Sprintf("no worker could run the job after %d rounds: %v", s.retries+1, lastErr)})
}

// candidates returns the ready workers in failover order for the job's
// key, applying the work-stealing policy: if the home worker is a
// straggler (outstanding ≥ slots + margin) and a later worker has a
// free slot, that idle worker is promoted to the front. The reported
// bool is true when a steal reordered the list.
func (s *Server) candidates(key string) ([]string, bool) {
	seq := s.ring.Sequence(key)
	ready := make([]string, 0, len(seq))
	for _, w := range seq {
		if s.reg.Ready(w) {
			ready = append(ready, w)
		}
	}
	if len(ready) < 2 {
		return ready, false
	}
	home := s.reg.Info(ready[0])
	slots := home.Slots
	if slots < 1 {
		slots = 1 // no scrape yet: assume the minimum
	}
	if home.Outstanding < slots+s.stealMargin {
		return ready, false
	}
	for i := 1; i < len(ready); i++ {
		alt := s.reg.Info(ready[i])
		altSlots := alt.Slots
		if altSlots < 1 {
			altSlots = 1
		}
		if alt.Outstanding < altSlots {
			// Promote the idle worker; the straggler stays next in line
			// so a genuinely hot key still reaches its cache shard on
			// failover.
			reordered := append([]string{ready[i]}, append(append([]string{}, ready[:i]...), ready[i+1:]...)...)
			return reordered, true
		}
	}
	return ready, false
}

// attempt runs the job once against one worker. A nil error carries
// the job's terminal outcome (including cancellation); a non-nil one
// means the next candidate should be tried, unless it is errPermanent.
func (s *Server) attempt(j *serve.Job, req serve.SubmitRequest, addr, worker string) (serve.Outcome, error) {
	ctx := j.Context()
	// Cache-tier probe first: if this shard already holds the result,
	// answer without consuming a worker queue slot.
	if res, digest, ok, err := s.probeCache(ctx, addr, worker); err != nil {
		s.reg.MarkFailed(worker, err.Error())
		return serve.Outcome{}, err
	} else if ok {
		j.Log().InfoContext(ctx, "job served from cache tier", "worker", worker)
		return serve.Outcome{
			Status: serve.StatusDone, Source: runner.SourceDisk.String(), Worker: worker,
			Result: &simspec.Result{Spec: j.Spec(), Results: res, Digest: digest},
		}, nil
	}

	remoteID, err := s.submit(ctx, req, worker)
	if err != nil {
		return serve.Outcome{}, err
	}
	j.Running(worker)
	s.nDispatch.Add(1)
	s.reg.AddOutstanding(worker, 1)
	defer s.reg.AddOutstanding(worker, -1)
	j.Log().InfoContext(ctx, "job dispatched", "worker", worker, "remote_job", remoteID)

	term, err := s.watch(j, worker, remoteID)
	if err != nil {
		s.reg.MarkFailed(worker, err.Error())
		return serve.Outcome{}, err
	}
	switch term.Status {
	case serve.StatusDone:
		return serve.Outcome{
			Status: serve.StatusDone, Source: term.Source, Workers: term.Workers, Worker: worker,
			Result: term.Result,
		}, nil
	case serve.StatusFailed:
		// A completed-but-failed simulation is deterministic: it would
		// fail identically anywhere, so failover cannot help.
		return serve.Outcome{}, errPermanent{fmt.Errorf("worker %s: %s", worker, term.Error)}
	case serve.StatusCancelled:
		if ctx.Err() != nil {
			return serve.Outcome{Status: serve.StatusCancelled, Error: "cancelled", Worker: worker}, nil
		}
		// The worker cancelled the job out from under us (it is
		// draining): fail over to a survivor.
		return serve.Outcome{}, fmt.Errorf("worker %s cancelled the job (draining?)", worker)
	}
	return serve.Outcome{}, fmt.Errorf("worker %s: job ended in unexpected state %q", worker, term.Status)
}

// probeCache checks one worker's disk-cache shard for the job's
// content address. ok=true carries the cached results; a nil error
// with ok=false is a plain miss; a non-nil error is a worker-health
// problem (already accounted as a retry, so neither a hit nor a miss).
func (s *Server) probeCache(ctx context.Context, addr, worker string) (res core.Results, digest string, ok bool, err error) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/cache/"+addr, nil)
	if err != nil {
		return res, "", false, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return res, "", false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		var entry serve.CacheEntry
		if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
			return res, "", false, fmt.Errorf("decoding cache entry: %v", err)
		}
		s.nProbeHit.Add(1)
		return entry.Results, entry.Digest, true, nil
	case resp.StatusCode >= 500:
		return res, "", false, fmt.Errorf("cache probe: worker answered %d", resp.StatusCode)
	default:
		// 404, or an unexpected 4xx (an old worker without the endpoint
		// answers 404 via the mux anyway): a miss, not a failure.
		s.nProbeMiss.Add(1)
		return res, "", false, nil
	}
}

// submit POSTs the job's original request to a worker and returns the
// id the worker accepted it under.
func (s *Server) submit(ctx context.Context, body serve.SubmitRequest, worker string) (string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return "", errPermanent{err}
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		s.reg.MarkFailed(worker, err.Error())
		return "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusAccepted:
		var view serve.JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return "", fmt.Errorf("decoding submit response: %v", err)
		}
		return view.ID, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		// Admission control pushed back: the worker is saturated, not
		// dead. Try the next candidate without marking it down.
		return "", fmt.Errorf("worker %s is saturated (429)", worker)
	case resp.StatusCode == http.StatusBadRequest:
		return "", errPermanent{fmt.Errorf("worker %s rejected the spec: %s", worker, readErrorBody(resp.Body))}
	default:
		err := fmt.Errorf("worker %s: submit answered %d", worker, resp.StatusCode)
		s.reg.MarkFailed(worker, err.Error())
		return "", err
	}
}

func readErrorBody(r io.Reader) string {
	var body struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(io.LimitReader(r, 1<<16)).Decode(&body) == nil && body.Error != "" {
		return body.Error
	}
	return "(no detail)"
}

// watch follows the worker's SSE stream for the remote job, feeding
// the job's progress source, until a terminal view arrives. A dropped stream falls back to one status poll so a worker
// that died between events is distinguished from one that merely
// closed the stream after the terminal event. If the coordinator job
// is cancelled mid-watch, the cancellation is propagated to the worker
// via DELETE before returning.
func (s *Server) watch(j *serve.Job, worker, remoteID string) (serve.JobView, error) {
	ctx := j.Context()
	// The hub paces progress to the coordinator's own subscribers from
	// the last value the worker reported.
	report := func(pv *serve.ProgressView) {
		j.SetProgress(func() (int64, int64) { return pv.CyclesDone, pv.CyclesTotal })
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/jobs/"+remoteID+"/events", nil)
	if err != nil {
		return serve.JobView{}, err
	}
	resp, err := s.stream.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			s.propagateCancel(j, worker, remoteID)
			return serve.JobView{Status: serve.StatusCancelled}, nil
		}
		return serve.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobView{}, fmt.Errorf("worker %s: events answered %d", worker, resp.StatusCode)
	}

	var terminal *serve.JobView
	err = readSSE(resp.Body, func(event string, data []byte) bool {
		switch event {
		case "progress":
			var pv serve.ProgressView
			if json.Unmarshal(data, &pv) != nil {
				return true
			}
			report(&pv)
		case "status":
			var view serve.JobView
			if json.Unmarshal(data, &view) != nil {
				return true
			}
			if view.Progress != nil {
				report(view.Progress)
			}
			if view.Status.Terminal() {
				terminal = &view
				return false
			}
		}
		return true
	})
	if ctx.Err() != nil && (terminal == nil || !terminal.Status.Terminal()) {
		s.propagateCancel(j, worker, remoteID)
		return serve.JobView{Status: serve.StatusCancelled}, nil
	}
	if terminal != nil {
		return *terminal, nil
	}
	if err == nil {
		err = errors.New("event stream ended without a terminal status")
	}
	// The stream broke. One poll decides: a reachable worker tells us
	// the job's true state; an unreachable one means failover.
	view, perr := s.pollJob(worker, remoteID)
	if perr != nil {
		return serve.JobView{}, fmt.Errorf("worker %s: %v (then poll failed: %v)", worker, err, perr)
	}
	if !view.Status.Terminal() {
		return serve.JobView{}, fmt.Errorf("worker %s: %v (job still %s)", worker, err, view.Status)
	}
	return view, nil
}

// pollJob fetches the remote job's current view once.
func (s *Server) pollJob(worker, remoteID string) (serve.JobView, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return serve.JobView{}, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return serve.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.JobView{}, fmt.Errorf("status poll answered %d", resp.StatusCode)
	}
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return serve.JobView{}, err
	}
	return view, nil
}

// propagateCancel forwards a coordinator-side cancellation to the
// worker holding the job. Best effort: the job is already cancelled
// from the client's point of view, and an unreachable worker will
// cancel it anyway when it notices (or has died with it).
func (s *Server) propagateCancel(j *serve.Job, worker, remoteID string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, worker+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return
	}
	resp, err := s.client.Do(req)
	if err != nil {
		j.Log().WarnContext(ctx, "cancel propagation failed", "worker", worker, "error", err)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	j.Log().InfoContext(ctx, "cancel propagated", "worker", worker, "remote_job", remoteID)
}

// readSSE parses a text/event-stream, invoking fn per event; fn
// returning false stops the read. Returns the stream error (nil on
// clean EOF).
func readSSE(r io.Reader, fn func(event string, data []byte) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if event != "" || len(data) > 0 {
				if !fn(event, data) {
					return nil
				}
			}
			event, data = "", nil
		case len(line) > 7 && line[:7] == "event: ":
			event = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = append(data, line[6:]...)
		}
	}
	return sc.Err()
}
