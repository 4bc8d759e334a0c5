package serve

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"delrep/internal/simspec"
	"delrep/internal/telemetry"
)

// Status is a job's lifecycle state. Transitions are monotonic:
// queued → running → {done, failed, cancelled}, with queued → terminal
// allowed for jobs that end before anything ran them (cancelled while
// waiting, drained at shutdown, answered from the fleet's cache tier).
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

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

// Job is one submitted simulation: the single record of it, shared by
// the Server that owns the table and the Executor that runs it.
// Identity fields are immutable after creation; mutable state is
// guarded by the owning Server's mutex. An Executor drives it through
// Running, SetProgress and Finish.
//
// The table never evicts, so a terminal job keeps only what its views
// read: identity, times, outcome (whose Result the daemon shares with
// every job of the same runner future) and the span tree. Its logger,
// its run's Config and its root span's identity attrs are rendered
// from these fields when wanted.
type Job struct {
	srv     *Server
	id      string
	client  string
	prio    Priority
	spec    simspec.Spec // canonical form, echoed back to clients
	specKey string       // short content hash of the resolved spec
	ctx     context.Context
	cancel  context.CancelFunc
	// doneCh closes when the job reaches a terminal status.
	doneCh chan struct{}
	// trace is the job's telemetry span tree; nil when telemetry is
	// off. The Trace itself is safe for concurrent use.
	trace *telemetry.Trace

	// Guarded by Server.mu.
	status   Status
	created  time.Time
	started  time.Time
	finished time.Time
	worker   string                     // coordinator only: current/final worker base URL
	progress func() (done, total int64) // nil until the executor has something to report
	out      Outcome                    // zero until terminal
	subs     map[chan sseEvent]struct{} // live SSE subscribers, allocated on first use

	// The local executor's share of the record, guarded by Server.mu.
	spanQueue *telemetry.Span // open queue.wait span, ended at dispatch
}

// Outcome is how a job ended, as its Executor reports it to Finish.
type Outcome struct {
	Status Status // done, failed or cancelled
	Error  string // failed and cancelled only
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
	return j.srv.logger.With("job", j.id, "client", j.client, "spec_key", j.specKey)
}

// Span returns the root of the job's trace, nil when telemetry is off
// (a nil *telemetry.Span is a valid no-op parent).
func (j *Job) Span() *telemetry.Span { return j.trace.Root() }

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
	if j.status.Terminal() {
		return
	}
	s.startLocked(j)
	j.worker = worker
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
	if j.status.Terminal() {
		s.mu.Unlock()
		return
	}
	s.settleLocked(j, out)
	s.publishLocked(j)
	s.closeTraceLocked(j)
	s.mu.Unlock()
	s.retire(j)
}

// traceViewLocked snapshots the job's span tree. The root's identity
// attrs — job, client, spec_key, priority, and outcome once terminal —
// are rendered from the record here instead of being kept in every
// trace. The caller holds the server's mutex or knows the job is
// terminal. A job without a trace renders the zero view.
func (j *Job) traceViewLocked() telemetry.SpanView {
	if j.trace == nil {
		return telemetry.SpanView{}
	}
	v := j.trace.Snapshot()
	v.Attrs = map[string]any{"job": j.id, "client": j.client, "spec_key": j.specKey, "priority": j.prio.String()}
	if j.status.Terminal() {
		v.Attrs["outcome"] = string(j.status)
	}
	return v
}

// ProgressView is the running-job progress fragment of a job view.
// Exported because it is wire format: the fleet coordinator decodes it
// from the worker's event stream.
type ProgressView struct {
	CyclesDone  int64 `json:"cycles_done"`
	CyclesTotal int64 `json:"cycles_total"`
}

// JobView is the JSON rendering of a job returned by the API, the one
// wire form of the /v1/jobs surface whichever executor is behind it.
type JobView struct {
	ID       string          `json:"id"`
	Status   Status          `json:"status"`
	Priority string          `json:"priority"`
	Client   string          `json:"client,omitempty"`
	Spec     simspec.Spec    `json:"spec"`
	Created  string          `json:"created"`
	Started  string          `json:"started,omitempty"`
	Finished string          `json:"finished,omitempty"`
	Source   string          `json:"source,omitempty"`
	Error    string          `json:"error,omitempty"`
	Progress *ProgressView   `json:"progress,omitempty"`
	Result   *simspec.Result `json:"result,omitempty"`
	// Worker is the base URL of the worker daemon that served the job.
	// Only the fleet coordinator sets it; a single delrepd leaves it
	// empty (it is its own worker).
	Worker string `json:"worker,omitempty"`

	// shared is Result as rendered once for every job holding it; a
	// reply splices its bytes in (writeView). Set by viewLocked only.
	shared *SharedResult
}

// viewLocked renders the job; the server's mutex must be held.
func (j *Job) viewLocked() JobView {
	v := JobView{
		ID:       j.id,
		Status:   j.status,
		Priority: j.prio.String(),
		Client:   j.client,
		Spec:     j.spec,
		Created:  j.created.UTC().Format(time.RFC3339Nano),
		Error:    j.out.Error,
		Worker:   j.worker,
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.status == StatusRunning && j.progress != nil {
		done, total := j.progress()
		v.Progress = &ProgressView{CyclesDone: done, CyclesTotal: total}
	}
	if j.status == StatusDone {
		v.Source = j.out.Source
		if r := j.out.Result; r != nil {
			v.Result, v.shared = r.Result, r
		}
	}
	return v
}
