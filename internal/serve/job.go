package serve

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"delrep/internal/jobapi"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
)

// Priority orders jobs in the queue: all queued high-priority jobs
// dispatch before any normal one, and so on. Within a priority level
// dispatch is strictly FIFO.
type Priority int

const (
	PrioLow Priority = iota
	PrioNormal
	PrioHigh
	numPriorities
)

// ParsePriority parses a job priority ("" defaults to normal).
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PrioNormal, nil
	case "low":
		return PrioLow, nil
	case "high":
		return PrioHigh, nil
	}
	return 0, fmt.Errorf("unknown priority %q (want low, normal, or high)", s)
}

func (p Priority) String() string {
	switch p {
	case PrioLow:
		return "low"
	case PrioHigh:
		return "high"
	}
	return "normal"
}

// Job is one admitted job as the goroutines that drive it hold it: the
// Executor running it, the ?wait handler, an SSE stream. It is the
// job's live part — context, done channel, progress source, subscribers
// — and points at the job's row, which is what the table keeps. An
// Executor drives it through Running, SetProgress and Finish.
//
// Finishing detaches the two: the row stops pointing at the Job, so the
// table keeps only the row, while a goroutine that still holds the Job
// finds nothing in it rewritten. The Job's own fields are immutable
// after admission, bar those marked as guarded by Server.mu.
type Job struct {
	srv    *Server
	row    *jobRow
	id     string
	spec   simspec.Spec // canonical form, echoed back to clients
	ctx    context.Context
	cancel context.CancelFunc
	// doneCh closes when the job reaches a terminal status.
	doneCh chan struct{}

	// Guarded by Server.mu.
	progress  func() (done, total int64) // nil until the executor has something to report
	subs      map[chan sseEvent]struct{} // live SSE subscribers, allocated on first use
	spanQueue *telemetry.Span            // the local executor's open queue.wait span, ended at dispatch
}

// jobRow is a job as the table keeps it, for as long as the process
// lives: exactly what GET /v1/jobs/{id}, /v1/jobs, both trace formats,
// /debug/jobs and /debug/status read. Its id is its place in the table.
// Its logger and its root span's identity attrs are rendered from it
// when wanted. A done job's result is shared with every job of the same
// runner future (the coordinator: of the same address), and so is its
// spec: the row points at the one that result echoes whenever the two
// are equal.
type jobRow struct {
	// Immutable after admission.
	client  string
	prio    Priority
	specKey string           // short content hash of the resolved spec
	trace   *telemetry.Trace // nil when telemetry is off; safe for concurrent use
	created time.Time

	// Guarded by Server.mu; fixed once the job is terminal.
	live              *Job          // the job's live part; nil once terminal
	spec              *simspec.Spec // the live part's until terminal
	status            jobapi.Status
	started, finished time.Time
	source, err       string        // as the outcome reported them
	worker            string        // coordinator only: current/final worker base URL
	result            *SharedResult // done jobs only
}

// Outcome is how a job ended, as its Executor reports it to Finish.
type Outcome struct {
	Status jobapi.Status // done, failed or cancelled
	Error  string        // failed and cancelled only
	// Source and Result describe a done job: where the result came
	// from (executed | memo | disk) and the canonical result itself,
	// rendered once for every job that shares it.
	Source string
	Result *SharedResult
	// Worker, when set, replaces the job's current worker URL.
	Worker string
}

// Context is cancelled when the job should stop: DELETE, a dropped
// ?wait connection, or a drain. The executor running the job watches
// it and answers with Finish.
func (j *Job) Context() context.Context { return j.ctx }

// Spec returns the canonical spec the job's result belongs to.
func (j *Job) Spec() simspec.Spec { return j.spec }

// Log returns a logger with the job's job, client and spec_key attrs
// set. The job keeps no logger: each call builds one.
func (j *Job) Log() *slog.Logger {
	return j.srv.logger.With("job", j.id, "client", j.row.client, "spec_key", j.row.specKey)
}

// Span returns the root of the job's trace, nil when telemetry is off
// (a nil *telemetry.Span is a valid no-op parent).
func (j *Job) Span() *telemetry.Span { return j.row.trace.Root() }

// Cancel stops the job in any non-terminal state: its context is
// cancelled and the executor is told, so a job still waiting to run
// finishes at once and a running one at its executor's next look at
// the context. A no-op on a terminal job.
func (j *Job) Cancel() {
	j.cancel()
	j.srv.exec.Cancel(j)
}

// Running marks the job running on worker (empty on the daemon) and
// publishes the transition. Calling it again — a failover re-dispatch —
// only moves the worker; after Finish it does nothing.
func (j *Job) Running(worker string) {
	s := j.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.row.status.Terminal() {
		return
	}
	s.startLocked(j)
	j.row.worker = worker
	s.notifyLocked(j)
}

// SetProgress installs the source the job's views and the SSE hub's
// progress ticker read while the job runs.
func (j *Job) SetProgress(src func() (done, total int64)) {
	j.srv.mu.Lock()
	j.progress = src
	j.srv.mu.Unlock()
}

// Finish retires the job with its outcome: terminal status, counters,
// subscriber and ?wait wake-up and the closed trace, in one locked
// step. Only the first call transitions; later ones are no-ops.
func (j *Job) Finish(out Outcome) {
	s := j.srv
	s.mu.Lock()
	if j.row.status.Terminal() {
		s.mu.Unlock()
		return
	}
	s.settleLocked(j, out)
	s.publishLocked(j)
	s.closeTraceLocked(j)
	s.mu.Unlock()
	s.retire(j)
}

// viewLocked renders the job; the server's mutex must be held.
func (j *Job) viewLocked() (jobapi.JobView, *SharedResult) { return j.row.viewLocked(j.id) }

// traceViewLocked snapshots the job's span tree. The root's identity
// attrs — job, client, spec_key, priority, and outcome once terminal —
// are rendered from the row here instead of being kept in every trace.
// The caller holds the server's mutex or knows the job is terminal. A
// job without a trace renders the zero view.
func (r *jobRow) traceViewLocked(id string) telemetry.SpanView {
	if r.trace == nil {
		return telemetry.SpanView{}
	}
	v := r.trace.Snapshot()
	v.Attrs = map[string]any{"job": id, "client": r.client, "spec_key": r.specKey, "priority": r.prio.String()}
	if r.status.Terminal() {
		v.Attrs["outcome"] = string(r.status)
	}
	return v
}

// viewLocked renders the job with this row, and returns with it the
// shared result its Result is, for writeView to splice in (nil when it
// has none); the server's mutex must be held.
func (r *jobRow) viewLocked(id string) (jobapi.JobView, *SharedResult) {
	v := jobapi.JobView{
		ID:       id,
		Status:   r.status,
		Priority: r.prio.String(),
		Client:   r.client,
		Spec:     *r.spec,
		Created:  r.created.UTC().Format(time.RFC3339Nano),
		Error:    r.err,
		Worker:   r.worker,
	}
	if !r.started.IsZero() {
		v.Started = r.started.UTC().Format(time.RFC3339Nano)
	}
	if !r.finished.IsZero() {
		v.Finished = r.finished.UTC().Format(time.RFC3339Nano)
	}
	if r.status == jobapi.StatusRunning && r.live.progress != nil {
		done, total := r.live.progress()
		v.Progress = &jobapi.ProgressView{CyclesDone: done, CyclesTotal: total}
	}
	var res *SharedResult
	if r.status == jobapi.StatusDone {
		v.Source = r.source
		if res = r.result; res != nil {
			v.Result = res.Result
		}
	}
	return v, res
}
