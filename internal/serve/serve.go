// Package serve is the one implementation of the simulation job API:
// simulation-as-a-service on top of the deterministic parallel engine
// in internal/runner. A Server owns everything that does not depend on
// where a job runs — wire types, request validation, the job table and
// its queued → running → {done, failed, cancelled} state machine,
// ?wait, the SSE hub, traces, drain, health and the shared metrics —
// and drives jobs through an Executor. There are two: the local
// executor behind New (cmd/delrepd: a priority queue and worker pool
// over a runner.Engine, local.go) and the fleet executor in
// internal/fleet (cmd/delrepfleet: routing over a ring of delrepd
// workers). Every client works against either binary unchanged.
//
// The API (all JSON unless noted; D = daemon only, C = coordinator
// only):
//
//	POST   /v1/jobs             submit a spec; 202 with the job, 503
//	                            once draining, or (D) 429 + Retry-After
//	                            when admission control rejects it.
//	                            ?wait=1 blocks until the job finishes; a
//	                            client that disconnects while waiting
//	                            cancels its job.
//	GET    /v1/jobs             list jobs, newest last (no results)
//	GET    /v1/jobs/{id}        job status, progress, and result
//	GET    /v1/jobs/{id}/events server-sent events: a "status" event on
//	                            subscription and at every transition,
//	                            "progress" at the progress interval
//	                            while the job runs, and the terminal
//	                            "status", which ends the stream
//	GET    /v1/jobs/{id}/trace  the job's wall-clock span tree as Chrome
//	                            trace-event JSON (?format=tree for the
//	                            nested form); 404 with telemetry off
//	DELETE /v1/jobs/{id}        cancel a queued or running job; answers
//	                            once it is terminal (or after a 2 s
//	                            grace); 409 if it already was
//	GET    /healthz             liveness (always ok while serving)
//	GET    /readyz              readiness: 503 "draining", or (C) 503
//	                            "no ready workers"
//	GET    /metrics             text exposition. Shared families:
//	                            <p>_jobs_running, <p>_sse_subscribers,
//	                            <p>_jobs_total{status},
//	                            <p>_rejects_total{reason}, p = delrepd |
//	                            delrepfleet; the rest is the executor's
//	                            (testdata/metrics.*.golden lists both)
//	GET    /debug/jobs          the newest 128 terminal jobs of the job
//	                            table, most recently finished first,
//	                            with their span trees; 404 with
//	                            telemetry off
//	GET    /v1/cache/{key}   D  cached result by content address
//	                            (runner.CacheAddr), ETag "<key>"; 404 on
//	                            miss; If-None-Match "<key>" answers 304,
//	                            no body, while the entry exists. Lets a
//	                            coordinator use this daemon's warm disk
//	                            cache as one shard of a distributed
//	                            cache tier without enqueueing a job
//	GET    /debug/status     D  human-oriented HTML status page
//	GET    /debug/pprof/     D  net/http/pprof (Options.EnablePprof)
//	GET    /v1/workers       C  the registry's view of the fleet
//
// Telemetry is strictly wall-clock instrumentation of the serving
// layers: span timestamps never enter the simulation, so a traced
// job's results and determinism digest are byte-identical to an
// untraced (or direct delrepsim) run of the same spec.
//
// Cancellation is cooperative end to end: DELETE (or a dropped ?wait
// connection) cancels the job's context; the local executor's engine
// propagates it into the simulation's cycle-window checkpoints
// (core.RunControl) and the freed worker slot immediately dispatches
// the next queued job, the fleet executor forwards it to the worker
// holding the job. Cancelling one job never disturbs another that
// shares its deduplicated future.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"delrep/internal/config"
	"delrep/internal/runner"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
)

// Executor is where admitted jobs run: the one seam between the job
// API and what is different about a binary. The Server guarantees an
// executor that Admit is atomic with the draining check and the table
// insert, that every admitted job's Context is cancelled before Cancel
// is called for it, and that Job.Running / SetProgress / Finish may be
// called from any goroutine at any time (Finish is idempotent; a job
// cancelled or finished early simply ignores later transitions). The
// executor owes the Server one Finish per admitted job.
//
// Lock order is Server.mu → executor-private locks: Admit runs with
// Server.mu held and must not block or call back into Job methods; no
// other Executor method is called under it, and an executor never
// holds a lock of its own while calling a Job method.
type Executor interface {
	// Admit accepts the job — from here on the executor runs it and
	// will Finish it — or says why not. req is the body as submitted
	// (client filled in from X-Delrep-Client when absent), cfg its
	// resolved configuration, key the run key rendered from it
	// (runner.Key, rendered once per request: the local executor hands
	// it to the engine in runner.Spec.Key, the coordinator routes by
	// it). Neither is kept on the job.
	Admit(j *Job, req SubmitRequest, cfg config.Config, key string) *Rejection
	// Cancel follows the cancellation of j's context. A job that is
	// still waiting for the executor to pick it up must finish now;
	// one being run is finished by whoever is watching its context.
	Cancel(j *Job)
	// Drain is called once, by Shutdown, after admission has closed,
	// with the jobs not yet terminal. It cancels those the executor
	// will not see through and returns when the executor runs nothing
	// any more. Past Shutdown's deadline the Server cancels the rest.
	Drain(live []*Job)
	// Ready reports whether submissions can currently be served; the
	// reason is the /readyz body when they cannot.
	Ready() (ok bool, reason string)
	// Metrics appends the executor's own /metrics families.
	Metrics(b *strings.Builder)
	// Routes registers the executor's extra endpoints.
	Routes(mux *http.ServeMux)
}

// Rejection is an Executor's refusal to admit a job. The Server counts
// it under <prefix>_rejects_total{reason}, logs it, and answers Status
// with Message in the error envelope (and Retry-After when positive).
type Rejection struct {
	Reason     string
	Status     int
	RetryAfter int // seconds
	Message    string
}

// Server is the job API over one Executor. Build a daemon with New, a
// coordinator with fleet.New; serve its Handler; stop with Shutdown.
type Server struct {
	exec          Executor
	idPrefix      string // "j" | "f": job ids are prefix + %06d
	metricPrefix  string // "delrepd" | "delrepfleet"
	progressEvery time.Duration
	logger        *slog.Logger
	telemetry     bool // every job carries a trace
	mux           *http.ServeMux

	mu sync.Mutex
	// order is the job table, in submission order: job ids are
	// idPrefix + %06d(seq), and job seq is order[seq-1].
	order        []*jobRow
	draining     bool
	running      int              // jobs in StatusRunning
	sseSubs      int              // live SSE subscriber channels
	statusCounts map[Status]int64 // terminal outcomes
	rejects      map[string]int64 // admission rejections by reason
}

// NewServer builds the job API over exec. idPrefix and metricPrefix
// are what the two binaries' wire surfaces differ by. A nil logger
// discards, progressEvery <= 0 selects 500ms.
func NewServer(exec Executor, idPrefix, metricPrefix string,
	logger *slog.Logger, telemetryOn bool, progressEvery time.Duration) *Server {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if progressEvery <= 0 {
		progressEvery = 500 * time.Millisecond
	}
	s := &Server{
		exec:          exec,
		idPrefix:      idPrefix,
		metricPrefix:  metricPrefix,
		progressEvery: progressEvery,
		logger:        logger,
		telemetry:     telemetryOn,
		mux:           http.NewServeMux(),
		statusCounts:  map[Status]int64{},
		rejects:       map[string]int64{"draining": 0},
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	exec.Routes(s.mux)
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.mux }

// SubmitRequest is the POST /v1/jobs body. The coordinator forwards it
// (spec as submitted, priority, client) verbatim to the worker it
// routes the job to.
type SubmitRequest struct {
	Spec     simspec.Spec `json:"spec"`
	Priority string       `json:"priority,omitempty"`
	Client   string       `json:"client,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// jobID renders the id of job seq.
func (s *Server) jobID(seq int) string { return fmt.Sprintf("%s%06d", s.idPrefix, seq) }

// rowLocked finds the row of the job with this id, or nil. An id is
// parsed, and only its canonical rendering names a job. s.mu must be
// held.
func (s *Server) rowLocked(id string) *jobRow {
	seq, err := strconv.Atoi(strings.TrimPrefix(id, s.idPrefix))
	if err != nil || seq < 1 || seq > len(s.order) || s.jobID(seq) != id {
		return nil
	}
	return s.order[seq-1]
}

// lookup resolves the {id} path segment to the job's row and id,
// answering 404 itself when no such job exists.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*jobRow, string) {
	id := r.PathValue("id")
	s.mu.Lock()
	row := s.rowLocked(id)
	s.mu.Unlock()
	if row == nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
	}
	return row, id
}

func (s *Server) view(row *jobRow, id string) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return row.viewLocked(id)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The trace opens before decoding so http.receive covers the full
	// request-side cost; it is discarded again on any rejection path.
	var tr *telemetry.Trace
	if s.telemetry {
		tr = telemetry.New("job")
	}
	recv := tr.Root().Start("http.receive")
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	prio, err := ParsePriority(req.Priority)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, norm, err := req.Spec.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Client == "" {
		req.Client = r.Header.Get("X-Delrep-Client")
	}
	// The run key is rendered once per request; everything that
	// identifies the run downstream, the engine's memo included, is
	// these bytes or a hash of them. It goes to the executor as an
	// argument, not onto the Job: the job table would retain its ≈900
	// bytes per job.
	key := runner.Key(cfg, norm.GPU, norm.CPU)
	specKey := runner.HashKey(key)
	recv.End()

	adm := tr.Root().Start("admission")
	//simlint:ignore ctxflow the job outlives the submitting request by design; cancellation comes from DELETE /jobs/{id} or drain, not the HTTP connection
	ctx, cancel := context.WithCancel(context.Background())
	row := &jobRow{client: req.Client, prio: prio, specKey: specKey, trace: tr, status: StatusQueued}
	j := &Job{srv: s, row: row, spec: norm, ctx: ctx, cancel: cancel, doneCh: make(chan struct{})}
	row.live, row.spec = j, &j.spec
	s.mu.Lock()
	if rej := s.admitLocked(j, req, cfg, key); rej != nil {
		s.rejects[rej.Reason]++
		s.mu.Unlock()
		cancel()
		s.logger.InfoContext(r.Context(), "submit rejected", "reason", rej.Reason, "client", req.Client, "spec_key", specKey)
		if rej.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(rej.RetryAfter))
		}
		writeError(w, rej.Status, "%s", rej.Message)
		return
	}
	adm.End()
	view := j.viewLocked()
	s.mu.Unlock()
	j.Log().InfoContext(r.Context(), "job accepted",
		"gpu", norm.GPU, "cpu", norm.CPU, "scheme", norm.Scheme, "priority", prio.String())

	if r.URL.Query().Has("wait") {
		select {
		case <-j.doneCh:
			writeView(w, http.StatusOK, s.view(row, j.id))
		case <-r.Context().Done():
			// The waiting client went away: its job goes with it, so a
			// dropped connection cannot pin a worker slot.
			j.Cancel()
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeView(w, http.StatusAccepted, view)
}

// admitLocked is the admission critical section: the draining gate,
// id allocation, the executor's verdict and the table insert happen
// under one hold of s.mu, so a job is either refused or both in the
// table and owned by the executor.
func (s *Server) admitLocked(j *Job, req SubmitRequest, cfg config.Config, key string) *Rejection {
	if s.draining {
		return &Rejection{Reason: "draining", Status: http.StatusServiceUnavailable, Message: "server is draining"}
	}
	j.id = s.jobID(len(s.order) + 1)
	j.row.created = time.Now()
	if rej := s.exec.Admit(j, req, cfg, key); rej != nil {
		return rej
	}
	s.order = append(s.order, j.row)
	return nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for i, row := range s.order {
		v := row.viewLocked(s.jobID(i + 1))
		v.Result = nil // keep listings light; fetch the job for results
		views = append(views, v)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if row, id := s.lookup(w, r); row != nil {
		writeView(w, http.StatusOK, s.view(row, id))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	row, id := s.lookup(w, r)
	if row == nil {
		return
	}
	s.mu.Lock()
	j := row.live
	s.mu.Unlock()
	if j == nil {
		writeView(w, http.StatusConflict, s.view(row, id))
		return
	}
	j.Cancel()
	// Give the executor a moment to converge so the response normally
	// carries the terminal view (a waiting job is terminal at once, a
	// running simulation at its next checkpoint, a remote one after the
	// worker's answer); it finishes asynchronously regardless.
	grace := time.NewTimer(2 * time.Second)
	defer grace.Stop()
	select {
	case <-j.doneCh:
	case <-grace.C:
	}
	writeView(w, http.StatusOK, s.view(row, id))
}

// startLocked is the queued → running transition; callers hold s.mu
// and publish it with notifyLocked once the job's view is complete.
func (s *Server) startLocked(j *Job) {
	if j.row.status == StatusRunning {
		return
	}
	j.row.status = StatusRunning
	j.row.started = time.Now()
	s.running++
}

// settleLocked is the first step of finishing a job: it records the
// outcome in the job's row, detaches the row from the live part and
// counts the outcome. The job is terminal afterwards but nobody has
// been told; publishLocked tells, then closeTraceLocked ends the trace.
// A caller takes all three in one hold of s.mu (the local executor
// times its reply span in between), and every reader takes
// s.mu first, so whoever sees the terminal status also reads a closed
// trace and finds the job on /debug/jobs.
func (s *Server) settleLocked(j *Job, out Outcome) {
	row := j.row
	if row.status == StatusRunning {
		s.running--
	}
	row.status = out.Status
	row.finished = time.Now()
	if out.Status == StatusDone && row.started.IsZero() {
		// Answered without running (the coordinator's cache tier): a
		// done job started, at the latest, when it finished.
		row.started = row.finished
	}
	if out.Worker != "" {
		row.worker = out.Worker
	}
	row.source, row.err, row.result = out.Source, out.Error, out.Result
	// The row stops pointing at the live part. Its spec becomes the one
	// its result echoes when that is equal (on the daemon it always is),
	// else a copy of its own.
	if out.Result != nil && out.Result.Result.Spec == j.spec {
		row.spec = &out.Result.Result.Spec
	} else {
		spec := j.spec
		row.spec = &spec
	}
	row.live = nil
	j.progress = nil
	s.statusCounts[out.Status]++
}

// publishLocked tells subscribers and ?wait callers that the job is
// terminal.
func (s *Server) publishLocked(j *Job) {
	s.notifyLocked(j)
	close(j.doneCh)
}

// closeTraceLocked ends the job's trace: the last step of finishing
// (lock order is s.mu → trace.mu, never reversed). Its root span's
// outcome attr is the job's terminal status, rendered at export.
func (s *Server) closeTraceLocked(j *Job) {
	j.row.trace.End()
}

// retire releases a finished job's context and logs the outcome. The
// row fields read here are fixed once the job is terminal, so s.mu is
// not needed; a caller may hold it.
func (s *Server) retire(j *Job) {
	row := j.row
	j.cancel()
	j.Log().Info("job finished", "status", row.status, "source", row.source, "error", row.err,
		"worker", row.worker, "seconds", row.finished.Sub(row.created).Seconds())
}

// handleTrace exports a job's telemetry span tree. The default format
// is Chrome trace-event JSON (load in chrome://tracing or Perfetto);
// ?format=tree answers the nested SpanView rendering instead. Open
// spans are snapshotted as running to "now".
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	row, id := s.lookup(w, r)
	if row == nil {
		return
	}
	if row.trace == nil {
		writeError(w, http.StatusNotFound, "telemetry is disabled; restart with -telemetry")
		return
	}
	s.mu.Lock()
	view := row.traceViewLocked(id)
	s.mu.Unlock()
	if r.URL.Query().Get("format") == "tree" {
		writeJSON(w, http.StatusOK, view)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := telemetry.WriteChromeView(w, view); err != nil {
		s.logger.WarnContext(r.Context(), "trace export failed", "job", id, "error", err)
	}
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting jobs the executor can
// serve; 503 once draining or when the executor says it cannot (a
// coordinator whose whole fleet is down), so load balancers stop
// routing new submissions here.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	ok, body := false, "draining"
	if !draining {
		if ok, body = s.exec.Ready(); ok {
			body = "ready"
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintln(w, body)
}

// handleMetrics writes the Prometheus text exposition: the families
// every binary shares, then the executor's own.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	p := s.metricPrefix
	s.mu.Lock()
	fmt.Fprintf(&b, "# TYPE %s_jobs_running gauge\n%s_jobs_running %d\n", p, p, s.running)
	fmt.Fprintf(&b, "# TYPE %s_sse_subscribers gauge\n%s_sse_subscribers %d\n", p, p, s.sseSubs)
	fmt.Fprintf(&b, "# TYPE %s_jobs_total counter\n", p)
	for _, st := range []Status{StatusDone, StatusFailed, StatusCancelled} {
		fmt.Fprintf(&b, "%s_jobs_total{status=%q} %d\n", p, st, s.statusCounts[st])
	}
	fmt.Fprintf(&b, "# TYPE %s_rejects_total counter\n", p)
	reasons := make([]string, 0, len(s.rejects))
	for reason := range s.rejects {
		reasons = append(reasons, reason)
	}
	sort.Strings(reasons)
	for _, reason := range reasons {
		fmt.Fprintf(&b, "%s_rejects_total{reason=%q} %d\n", p, reason, s.rejects[reason])
	}
	s.mu.Unlock()
	s.exec.Metrics(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, b.String())
}

// Shutdown stops admission and hands the live jobs to the executor's
// Drain. If ctx expires first, every job still live is cancelled and
// Shutdown returns ctx's error once the executor has wound down.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var live []*Job
	for _, row := range s.order {
		if row.live != nil {
			live = append(live, row.live)
		}
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.exec.Drain(live)
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		for _, j := range live {
			j.Cancel()
		}
		<-idle
		return ctx.Err()
	}
}
