// Package fleet is the job API's second Executor: the coordinator
// behind cmd/delrepfleet. The API itself — routes, wire types, job
// table, SSE, traces, drain, shared metrics — is internal/serve's (its
// package comment is the one API table); this package holds only what
// is different about running a job somewhere else:
//
//   - locate: consistent hashing of the run's content key over a Ring
//     of delrepd workers names the key's home; one GET /v1/cache/{key}
//     probe of the worker remembered to hold the result (a bounded
//     placement memo), else of the home, answers a repeated spec
//     without spending a queue slot — the workers' warm caches form
//     one distributed cache tier. A result the coordinator has already
//     decoded and rendered (a bounded resident table) is revalidated,
//     not fetched: the probe carries the address as If-None-Match and a
//     304 moves no body, and its reply reuses the rendered bytes;
//   - place: on a miss the job takes a slot on the first ready worker
//     in the key's ring sequence that has one free, else on the least
//     loaded, so a busy home delegates to an idle neighbour and the
//     memo is how the result is found again;
//   - failover: a Registry health-checks workers via /readyz; a job
//     whose worker dies, drains or refuses is replayed on the next
//     worker placement picks, for up to Retries+1 rounds — safe
//     because simulations are deterministic and content-addressed.
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
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
)

// Options configures a coordinator Server.
type Options struct {
	// Workers are the delrepd base URLs the fleet shards over. Required.
	Workers []string
	// ProbeInterval is the registry's health-probe cadence; <= 0
	// selects the default.
	ProbeInterval time.Duration
	// Retries bounds full failover rounds: a job tries every ready
	// worker in ring order up to Retries+1 times before failing.
	// <= 0 selects 2.
	Retries int
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
	ring     *Ring
	reg      *Registry
	memo     *memo[string]              // addr → worker holding it off its ring home
	resident *memo[*serve.SharedResult] // addr → the result, as already decoded and rendered here
	client   *http.Client               // bounded-timeout calls (submit, probe, poll, cancel)
	stream   *http.Client               // unbounded, for SSE watch streams
	retries  int
	wg       sync.WaitGroup // live dispatchers

	nDispatch  atomic.Int64 // jobs handed to a worker queue
	nRetry     atomic.Int64 // failover re-dispatches after a worker loss
	nSteal     atomic.Int64 // attempts placed on a worker other than the key's home
	nProbeHit  atomic.Int64 // cache-tier probes answered 200 or 304
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
	ring := NewRing(opts.Workers)
	if len(ring.Members()) == 0 {
		return nil, errors.New("fleet: no workers configured")
	}
	if opts.Retries <= 0 {
		opts.Retries = 2
	}
	client := opts.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	s := &Server{
		ring: ring,
		// SSE watch streams live as long as the job runs; strip any
		// overall timeout but keep the transport (and its dial/TLS
		// limits) so tests can inject one.
		client:   client,
		stream:   &http.Client{Transport: client.Transport},
		retries:  opts.Retries,
		memo:     newMemo[string](memoBound),
		resident: newMemo[*serve.SharedResult](residentBound),
	}
	s.reg = NewRegistry(s.ring.Members(), opts.ProbeInterval, client, opts.Logger)
	s.Server = serve.NewServer(s, "f", "delrepfleet", opts.Logger, opts.Telemetry, 0)
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
func (s *Server) Admit(j *serve.Job, req serve.SubmitRequest, _ config.Config, key string) *serve.Rejection {
	s.wg.Add(1)
	go s.dispatch(j, req, key)
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

// dispatch drives one job to a terminal state: locate the result in
// the cache tier, else place the job on a worker with room, watch it,
// and fail over on worker loss.
func (s *Server) dispatch(j *serve.Job, req serve.SubmitRequest, key string) {
	defer s.wg.Done()
	// The routing key is the full run key, its content address what the
	// cache tier is probed by — the same both every worker would compute.
	addr := runner.CacheAddr(key)
	ctx := j.Context()
	seq := s.ring.Sequence(key) // never empty: New refuses an empty ring
	home := seq[0]
	var lastErr error = errors.New("no ready workers")

	// try runs one fleet.attempt span against worker and reports whether
	// it ended the job. A retryable failure leaves the job to the next
	// placement: replay is safe because simulations are deterministic
	// and idempotent.
	try := func(phase, worker string, attempt func() (out serve.Outcome, ended bool, err error)) bool {
		placed := "spill"
		if worker == home {
			placed = "home"
		}
		span := j.Span().Start("fleet.attempt",
			telemetry.A("worker", worker), telemetry.A("phase", phase), telemetry.A("placed", placed))
		out, ended, err := attempt()
		span.End()
		var perm errPermanent
		switch {
		case ended:
			if out.Status == serve.StatusDone {
				// The memo holds only what the ring would not find.
				if worker == home {
					s.memo.drop(addr)
				} else {
					s.memo.put(addr, worker)
				}
				// Whatever the answer came from — a probe's body, a 304, a
				// worker's terminal view — the next repeat revalidates it.
				s.resident.put(addr, out.Result)
			}
			j.Finish(out)
			return true
		case errors.As(err, &perm):
			j.Finish(serve.Outcome{Status: serve.StatusFailed, Error: perm.Error(), Worker: worker})
			return true
		case err == nil || ctx.Err() != nil:
			return false // a locate miss, or a cancelled job: no worker is at fault
		}
		lastErr = err
		s.nRetry.Add(1)
		j.Log().WarnContext(ctx, "dispatch attempt failed", "worker", worker, "phase", phase, "error", err)
		return false
	}

	// Locate: one probe of the worker remembered to hold this address,
	// else of its ring home. A hit is the whole job.
	holder, remembered := s.memo.get(addr)
	if !remembered {
		holder = home
	}
	missed := "" // the worker whose shard this dispatch already found empty
	if s.reg.Ready(holder) {
		if try("locate", holder, func() (serve.Outcome, bool, error) {
			out, hit, err := s.probeCache(j, addr, holder)
			if err == nil && !hit {
				missed = holder
			}
			return out, hit, err
		}) {
			return
		}
	}

	for round := 0; round <= s.retries && ctx.Err() == nil; round++ {
		if round > 0 {
			// Every placement failed (or no worker was ready): give the
			// registry a probe cycle to notice recoveries first.
			select {
			case <-time.After(time.Second):
			case <-ctx.Done():
				continue
			}
		}
		var tried []string
		for ctx.Err() == nil {
			worker, ok := s.reg.Reserve(seq, tried)
			if !ok {
				break
			}
			tried = append(tried, worker)
			if worker != home {
				s.nSteal.Add(1)
			}
			if try("run", worker, func() (serve.Outcome, bool, error) {
				defer s.reg.Release(worker)
				out, err := s.attempt(j, req, addr, worker, worker != missed)
				return out, err == nil, err
			}) {
				return
			}
		}
	}
	if ctx.Err() != nil {
		j.Finish(serve.Outcome{Status: serve.StatusCancelled, Error: "cancelled"})
		return
	}
	j.Finish(serve.Outcome{Status: serve.StatusFailed,
		Error: fmt.Sprintf("no worker could run the job after %d rounds: %v", s.retries+1, lastErr)})
}

// blame marks worker down for err — unless the job's own cancellation
// is what failed the call.
func (s *Server) blame(ctx context.Context, worker string, err error) {
	if ctx.Err() == nil {
		s.reg.MarkFailed(worker, err.Error())
	}
}

// attempt runs the job once against one worker, on the slot dispatch
// reserved there. A nil error carries the job's terminal outcome
// (including cancellation); a non-nil one means the next placement
// should be tried, unless it is errPermanent. probe is false for the
// worker whose shard locate already found empty.
func (s *Server) attempt(j *serve.Job, req serve.SubmitRequest, addr, worker string, probe bool) (serve.Outcome, error) {
	ctx := j.Context()
	if probe {
		// This shard may hold the result although the ring and the memo
		// did not say so (a failover, a restarted coordinator): answer
		// from it without consuming a worker queue slot.
		if out, hit, err := s.probeCache(j, addr, worker); err != nil || hit {
			return out, err
		}
	}

	remoteID, err := s.submit(ctx, req, worker)
	if err != nil {
		return serve.Outcome{}, err
	}
	j.Running(worker)
	s.nDispatch.Add(1)
	j.Log().InfoContext(ctx, "job dispatched", "worker", worker, "remote_job", remoteID)

	term, err := s.watch(j, worker, remoteID)
	if err != nil {
		s.blame(ctx, worker, err)
		return serve.Outcome{}, err
	}
	switch term.Status {
	case serve.StatusDone:
		if term.Result == nil {
			return serve.Outcome{}, errPermanent{fmt.Errorf("worker %s: job done without a result", worker)}
		}
		res, err := serve.NewSharedResult(term.Result)
		if err != nil {
			return serve.Outcome{}, errPermanent{fmt.Errorf("worker %s: %v", worker, err)}
		}
		return serve.Outcome{Status: serve.StatusDone, Source: term.Source, Worker: worker, Result: res}, nil
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
// content address. hit=true carries the done outcome; a nil error
// with hit=false is a plain miss; a non-nil error is a worker-health
// problem (accounted as a retry, so neither a hit nor a miss).
func (s *Server) probeCache(j *serve.Job, addr, worker string) (out serve.Outcome, hit bool, err error) {
	defer func() {
		if err != nil {
			s.blame(j.Context(), worker, err)
		}
	}()
	ctx, cancel := context.WithTimeout(j.Context(), 10*time.Second)
	defer cancel()
	// Read before the request: a 304 is answered with the result its
	// validator was sent for, whatever the table evicts meanwhile.
	held, _ := s.resident.get(addr)
	res, status, err := s.getCache(ctx, j.Spec(), addr, worker, held)
	if err == nil && res == nil && status == http.StatusNotModified {
		// A 304 nobody asked for (no validator was sent): neither a hit
		// without a result nor a miss to re-simulate. Ask once more.
		res, status, err = s.getCache(ctx, j.Spec(), addr, worker, nil)
	}
	switch {
	case err != nil:
		return out, false, err
	case res != nil:
		s.nProbeHit.Add(1)
		j.Log().InfoContext(ctx, "job served from cache tier", "worker", worker)
		return serve.Outcome{
			Status: serve.StatusDone, Source: runner.SourceDisk.String(), Worker: worker, Result: res,
		}, true, nil
	case status >= 500 || status == http.StatusNotModified:
		return out, false, fmt.Errorf("cache probe: worker answered %d", status)
	default:
		// 404, or an unexpected 4xx (an old worker without the endpoint
		// answers 404 via the mux anyway): a miss, not a failure.
		s.nProbeMiss.Add(1)
		return out, false, nil
	}
}

// getCache is one GET /v1/cache/{addr} round trip. A non-nil held makes
// it a revalidation: the address goes along as If-None-Match, and a 304
// — the worker is alive and still has the entry — answers held itself,
// so every repeat of a key shares one rendered result. res is nil unless
// the worker answered 200, or 304 to the validator.
func (s *Server) getCache(ctx context.Context, spec simspec.Spec, addr, worker string, held *serve.SharedResult) (res *serve.SharedResult, status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/v1/cache/"+addr, nil)
	if err != nil {
		return nil, 0, err
	}
	if held != nil {
		req.Header.Set("If-None-Match", `"`+addr+`"`)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		var entry serve.CacheEntry
		if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
			return nil, resp.StatusCode, fmt.Errorf("decoding cache entry: %v", err)
		}
		if res, err = serve.NewSharedResult(&simspec.Result{Spec: spec, Results: entry.Results, Digest: entry.Digest}); err != nil {
			return nil, resp.StatusCode, fmt.Errorf("rendering cache entry: %v", err)
		}
	case http.StatusNotModified:
		res = held
	}
	return res, resp.StatusCode, nil
}

// submit POSTs the job's original request to a worker and returns the
// id the worker accepted it under.
func (s *Server) submit(ctx context.Context, body serve.SubmitRequest, worker string) (string, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return "", errPermanent{err}
	}
	// The round trip ignores the job's cancellation: a POST abandoned
	// half way may still have been admitted, and a job whose id never
	// came back cannot be cancelled on the worker. watch propagates the
	// cancellation as soon as the id is known.
	tctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, worker+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		s.blame(ctx, worker, err)
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
