package serve

import (
	"context"
	"encoding/hex"
	"fmt"
	"log/slog"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"delrep/internal/jobapi"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
)

// Priority orders jobs in the queue: all queued high-priority jobs
// dispatch before any normal one, and so on. Within a priority level
// dispatch is strictly FIFO.
type Priority uint8

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
	client string
	spec   simspec.Spec // canonical form, echoed back to clients
	ctx    context.Context
	cancel context.CancelFunc
	// doneCh closes once the job is terminal and its "job finished" line
	// is written.
	doneCh chan struct{}
	// logged is 1 once handleSubmit has logged "job accepted", 2 if the
	// job retired before that (see Server.retire).
	logged atomic.Uint32

	// Guarded by Server.mu.
	progress  func() (done, total int64) // nil until the executor has something to report
	subs      map[chan sseEvent]struct{} // live SSE subscribers, allocated on first use
	spanQueue *telemetry.Span            // the local executor's open queue.wait span, ended at dispatch
}

// jobRow is a job as the table keeps it, for as long as the process
// lives: exactly what GET /v1/jobs/{id}, /v1/jobs, both trace formats,
// /debug/jobs and /debug/status read. Its id is its place in the table.
// Its root span's identity attrs are rendered from it when wanted. A
// done job's result is shared with every job of the same runner future
// (the coordinator: of the same address), and so is its spec: the row
// points at the one that result echoes whenever the two are equal. Its
// client and outcome are the server's interned copies. It is 96 bytes.
type jobRow struct {
	// Immutable after admission.
	created time.Time
	trace   *telemetry.Trace // safe for concurrent use
	specKey [6]byte          // short content hash of the resolved spec
	prio    Priority

	// Guarded by Server.mu; fixed once the job is terminal.
	st                uint8         // the index of the job's status
	started, finished time.Duration // since created; 0 until set, then ≥ 1 ns
	live              *Job          // the job's live part; nil once terminal
	spec              *simspec.Spec // the live part's until terminal
	result            *SharedResult // done jobs only
	client            *string
	out               *rowOutcome
}

// rowOutcome is where a job ran and how it ended, as its views show
// them; each is empty until set.
type rowOutcome struct{ worker, source, err string }

// statuses are the job states, in the order a row numbers them.
var statuses = [...]jobapi.Status{jobapi.StatusQueued, jobapi.StatusRunning, jobapi.StatusDone, jobapi.StatusFailed, jobapi.StatusCancelled}

func (r *jobRow) status() jobapi.Status      { return statuses[r.st] }
func (r *jobRow) setStatus(st jobapi.Status) { r.st = uint8(slices.Index(statuses[:], st)) }

// interner keeps one copy of each value the rows point at, so that
// thousands of rows of one client or outcome share it.
type interner[T comparable] map[T]*T

// intern is v's copy.
func (in interner[T]) intern(v T) *T {
	p := in[v]
	if p == nil { // only a new value allocates
		p = new(T)
		*p = v
		in[v] = p
	}
	return p
}

// keyHex renders the spec_key.
func (r *jobRow) keyHex() string { return hex.EncodeToString(r.specKey[:]) }

// at renders a time of the row, given as its offset from created.
func (r *jobRow) at(d time.Duration) string { return r.created.Add(d).UTC().Format(time.RFC3339Nano) }

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

// Log writes one record with the job's job, client and spec_key attrs
// ahead of args: the bytes a logger With them would write, without
// building that logger or a copy of args.
func (j *Job) Log(ctx context.Context, level slog.Level, msg string, args ...any) {
	if l := j.srv.logger; l.Enabled(ctx, level) {
		var pc [1]uintptr
		runtime.Callers(2, pc[:]) // Log's caller, as the logger's own methods record it
		r := slog.NewRecord(time.Now(), level, msg, pc[0])
		r.Add("job", j.id, "client", j.client, "spec_key", j.row.keyHex())
		r.Add(args...)
		_ = l.Handler().Handle(ctx, r)
	}
}

// Span returns the root of the job's trace.
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
	if j.row.status().Terminal() {
		return
	}
	s.startLocked(j)
	j.row.out = s.outcomes.intern(rowOutcome{worker: worker}) // a live job's outcome is its worker
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
// subscriber events and the closed trace in one locked step, then the
// log line and the ?wait wake-up. Only the first call transitions;
// later ones are no-ops.
func (j *Job) Finish(out Outcome) {
	s := j.srv
	s.mu.Lock()
	if j.row.status().Terminal() {
		s.mu.Unlock()
		return
	}
	s.settleLocked(j, out)
	s.notifyLocked(j)
	s.closeTraceLocked(j)
	s.mu.Unlock()
	s.retire(j)
}

// traceViewLocked snapshots the job's span tree. The root's identity
// attrs — job, client, spec_key, priority, and outcome once terminal —
// are rendered from the row here instead of being kept in every trace.
// The caller holds the server's mutex or knows the job is terminal.
func (r *jobRow) traceViewLocked(id string) telemetry.SpanView {
	v := r.trace.Snapshot()
	v.Attrs = map[string]any{"job": id, "client": *r.client, "spec_key": r.keyHex(), "priority": r.prio.String()}
	if r.status().Terminal() {
		v.Attrs["outcome"] = string(r.status())
	}
	return v
}

// viewLocked renders the job with this row, and returns with it the
// shared result its Result is, for writeView to splice in (nil when it
// has none); the server's mutex must be held.
func (r *jobRow) viewLocked(id string) (jobapi.JobView, *SharedResult) {
	v := jobapi.JobView{
		ID:       id,
		Status:   r.status(),
		Priority: r.prio.String(),
		Client:   *r.client,
		Spec:     *r.spec,
		Created:  r.at(0),
		Error:    r.out.err,
		Worker:   r.out.worker,
	}
	if r.started != 0 {
		v.Started = r.at(r.started)
	}
	if r.finished != 0 {
		v.Finished = r.at(r.finished)
	}
	if r.status() == jobapi.StatusRunning && r.live.progress != nil {
		done, total := r.live.progress()
		v.Progress = &jobapi.ProgressView{CyclesDone: done, CyclesTotal: total}
	}
	var res *SharedResult
	if r.status() == jobapi.StatusDone {
		v.Source = r.out.source
		if res = r.result; res != nil {
			v.Result = res.Result
		}
	}
	return v, res
}
