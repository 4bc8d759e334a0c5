// Package runner executes independent simulations in parallel and
// memoizes their results, in memory and on disk.
//
// The evaluation's sweeps are embarrassingly parallel *across* runs:
// every (config, GPU benchmark, CPU benchmark) triple is an isolated
// deterministic computation, and the Engine's bounded worker pool runs
// whole simulations concurrently. Within a run, the cycle loop is one
// goroutine's and pure (the tickpurity analyzer in cmd/simlint
// enforces it).
//
// The contract that keeps parallel runs trustworthy:
//
//   - Submissions are deduplicated by Key, so one configuration is
//     simulated at most once per process no matter how many figures
//     request it.
//   - Submit schedules a run and returns its Future at once; callers
//     that submit their full run set up front and then Wait on the
//     futures in declaration order produce byte-identical reports at
//     any worker count, whatever the completion order.
//   - Each run's end state is summarized by the determinism-audit
//     digest (core.RunAudit); equality of digests between a serial and
//     a parallel execution proves the pool changed nothing.
//   - An optional DiskCache persists results across processes, keyed
//     by the full run-identifying configuration plus a code-version
//     salt (see Key and Version).
//
// Typical use:
//
//	eng := runner.New(runner.Options{Workers: 8, Cache: cache})
//	var futs []*runner.Future
//	for _, g := range benches {
//		futs = append(futs, eng.Submit(runner.Spec{Cfg: cfg, GPU: g, CPU: "vips"}))
//	}
//	for _, f := range futs { // declaration order
//		fmt.Println(f.Wait().Results.GPUIPC)
//	}
package runner

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/telemetry"
)

// Spec identifies one simulation: a complete configuration plus the
// GPU and CPU benchmark names. Specs with equal Key share one result.
type Spec struct {
	Cfg config.Config
	GPU string
	CPU string
	// Key, when set, is Key(Cfg, GPU, CPU) as the caller already
	// rendered it; SubmitCtx renders it when empty.
	Key string
}

// Source records where a run's result came from.
type Source uint8

const (
	// SourceExecuted means the simulation ran in this process.
	SourceExecuted Source = iota
	// SourceMemo means an earlier submission of the same Spec in this
	// process supplied the result.
	SourceMemo
	// SourceDisk means the on-disk cache supplied the result.
	SourceDisk
)

func (s Source) String() string {
	switch s {
	case SourceExecuted:
		return "executed"
	case SourceMemo:
		return "memo"
	case SourceDisk:
		return "disk"
	}
	return "???"
}

// ParseSource is String's inverse, so a remote end's account of a run
// comes back as the Source a local run would have recorded.
func ParseSource(name string) (Source, error) {
	for s := Source(0); s.String() != "???"; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown result source %q", name)
}

// Resolver resolves a spec to a finished result somewhere other than
// this process — a fleet coordinator or a remote delrepd daemon (the
// CLIs' -remote, internal/remote). Plugging one into Options.Remote
// turns the engine into a fleet client: dedup, ordering, progress,
// and the local disk cache all keep working, but execution happens
// across the wire.
type Resolver interface {
	// Resolve returns the run's results and digest, how the remote end
	// obtained them (executed / memo / disk), and which worker served
	// them. Returning an error wrapping ErrNotRemotable means the spec
	// cannot be expressed in the wire form; the engine then falls back
	// to executing locally. Any other error fails the run (the resolver
	// is expected to have already retried/failed over internally).
	Resolve(ctx context.Context, spec Spec) (Remote, error)
}

// Remote is one remotely resolved run.
type Remote struct {
	Results core.Results
	Digest  uint64
	Source  Source // how the remote end obtained the result
	Worker  string // base URL of the worker daemon that served it
}

// ErrNotRemotable marks a spec that cannot be expressed as a wire
// simspec (an experiment that mutates configuration knobs the JSON
// spec does not carry). The engine treats it as "run this one
// locally", so hybrid sweeps — most points through the fleet, exotic
// points in-process — still deliver byte-identical output.
var ErrNotRemotable = errors.New("spec is not expressible as a wire spec")

// Run is one delivered simulation result.
type Run struct {
	Spec    Spec
	Results core.Results
	// Digest is the determinism-audit digest of the simulation's end
	// state (core.RunAudit); every execution of the same Spec must
	// agree on it bit-for-bit.
	Digest uint64
	Source Source
	// Worker is the base URL of the fleet worker that served the run,
	// when it was resolved through Options.Remote; empty for local
	// executions and cache hits. Execution metadata only.
	Worker string
	// Err is non-nil when the run did not produce a result: the
	// simulation was cancelled (context.Canceled) or panicked. Results
	// and Digest are zero in that case, and the run was neither cached
	// nor left in the memo table.
	Err error
}

// Counters reports the engine's accounting. Every submission that
// starts a fresh execution resolves to exactly one of Executed,
// DiskHits, or Failed; MemoHits counts submissions folded onto an
// already-submitted Future (whatever that future later resolves to).
// Obtain one via Engine.Snapshot; the fields of a snapshot are a plain
// point-in-time copy, safe to read freely.
type Counters struct {
	Executed int64 // simulations run to completion in this process
	MemoHits int64 // submissions served by an earlier in-process submission
	DiskHits int64 // submissions served by the on-disk cache
	Failed   int64 // executions that ended in error (cancelled or panicked)
}

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent simulations; <=0 selects GOMAXPROCS.
	Workers int
	// Cache, when non-nil, persists results across processes.
	Cache *DiskCache
	// Progress, when non-nil, receives one line per simulation as it
	// starts. Writes are serialized (one Write call per line), so
	// os.Stderr stays readable under concurrency.
	Progress io.Writer
	// Remote, when non-nil, resolves cache-missing specs through a
	// fleet coordinator (or a single remote daemon) instead of
	// simulating locally. Specs the wire form cannot express
	// (ErrNotRemotable) still execute locally. Remotely resolved
	// results are written into the local disk cache, so a warm rerun
	// needs no fleet at all.
	Remote Resolver
}

// Engine is a deterministic parallel execution engine for independent
// simulations. Methods are safe for concurrent use.
type Engine struct {
	cache    *DiskCache
	progress io.Writer
	sem      chan struct{}
	remote   Resolver

	// progressMu serializes writes to progress and guards nothing
	// else: a slow progress writer (a piped stderr, a test buffer)
	// must never block Submit/Wait, which contend on mu.
	progressMu sync.Mutex

	// Accounting is atomic, not mu-guarded: /metrics scrapes read it
	// via Snapshot without contending with submissions.
	executed atomic.Int64
	memoHits atomic.Int64
	diskHits atomic.Int64
	failed   atomic.Int64

	// mu guards memo and failures. failures is the terminal Run of
	// every execution that ended in error, kept so drivers can print a
	// per-run failure summary (which spec, which worker, what error)
	// instead of only a count. Bounded by maxFailures to keep a
	// pathological sweep from accumulating without limit.
	mu       sync.Mutex
	memo     map[string]*Future
	failures []Run
}

// maxFailures bounds the retained failure detail; the Failed counter
// keeps exact totals regardless.
const maxFailures = 256

// New builds an Engine.
func New(opts Options) *Engine {
	n := opts.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		cache:    opts.Cache,
		progress: opts.Progress,
		sem:      make(chan struct{}, n),
		remote:   opts.Remote,
		memo:     map[string]*Future{},
	}
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return cap(e.sem) }

// DiskCache returns the engine's on-disk cache (nil if disabled).
func (e *Engine) DiskCache() *DiskCache { return e.cache }

// Snapshot returns a point-in-time copy of the engine's accounting.
// Each field is read atomically; the snapshot as a whole is not a
// single cut across all four counters, which is fine for monitoring
// (the counters only grow).
func (e *Engine) Snapshot() Counters {
	return Counters{
		Executed: e.executed.Load(),
		MemoHits: e.memoHits.Load(),
		DiskHits: e.diskHits.Load(),
		Failed:   e.failed.Load(),
	}
}

// Future is a handle to one submitted simulation.
type Future struct {
	spec Spec
	key  string
	done chan struct{}
	run  Run

	// span is the submitting job's telemetry span (nil when telemetry
	// is off). Only the submission that created the future carries it:
	// that job's trace gets the cache.lookup/engine.run detail, while
	// deduplicated joiners get a dedup.join span of their own.
	span *telemetry.Span

	progDone  atomic.Int64
	progTotal atomic.Int64

	mu      sync.Mutex
	waiters int  // cancellable submissions still interested
	pinned  bool // a non-cancellable submission wants the result
	cancel  context.CancelFunc
	shared  any // see Share
}

// Spec returns the submitted spec.
func (f *Future) Spec() Spec { return f.spec }

// Wait blocks until the simulation completes and returns its Run.
func (f *Future) Wait() Run {
	<-f.done
	return f.run
}

// Done returns a channel closed when the simulation completes, for a
// waiter that must also stop when its own context ends.
func (f *Future) Done() <-chan struct{} { return f.done }

// Results blocks until the simulation completes and returns its Results.
func (f *Future) Results() core.Results { return f.Wait().Results }

// Progress returns the cycles simulated so far and the run's total
// cycles (warm-up + measurement). Both are 0 until the simulation
// reaches its first checkpoint; a cache hit reports done == total
// immediately. Safe to call concurrently with the run.
func (f *Future) Progress() (done, total int64) {
	return f.progDone.Load(), f.progTotal.Load()
}

// Share returns what every submission of f should hold for its result:
// the value kept on f when keep accepts it, else a new one from build,
// which f keeps if it holds none yet and build did not fail. The daemon
// keeps one rendered result per future this way, shared by all the jobs
// that joined it for as long as the memo holds the future.
func Share[T any](f *Future, keep func(T) bool, build func() (T, error)) (T, error) {
	f.mu.Lock()
	held, ok := f.shared.(T)
	f.mu.Unlock()
	if ok && keep(held) {
		return held, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	f.mu.Lock()
	if f.shared == nil {
		f.shared = v
	}
	f.mu.Unlock()
	return v, nil
}

// addWaiter registers one submission's interest in the future. A
// context that can never be cancelled (context.Background and friends)
// pins the future: it then runs to completion no matter what other
// waiters do. Otherwise the future's execution is cancelled once every
// registered cancellable context has been cancelled.
func (f *Future) addWaiter(ctx context.Context) {
	if ctx == nil || ctx.Done() == nil {
		f.mu.Lock()
		f.pinned = true
		f.mu.Unlock()
		return
	}
	f.mu.Lock()
	f.waiters++
	f.mu.Unlock()
	go func() {
		select {
		case <-ctx.Done():
			f.mu.Lock()
			f.waiters--
			if f.waiters == 0 && !f.pinned {
				f.cancel()
			}
			f.mu.Unlock()
		case <-f.done:
		}
	}()
}

// Submit schedules one simulation on the pool and returns its Future.
// A spec whose Key matches an earlier submission returns the earlier
// Future (counted as a memo hit); otherwise the disk cache is
// consulted and, on a miss, the simulation executes on a worker. The
// returned future is pinned: it cannot be cancelled.
func (e *Engine) Submit(spec Spec) *Future {
	return e.SubmitCtx(context.Background(), spec)
}

// SubmitCtx is Submit with cancellation: if ctx is cancelled before
// the simulation completes — and every other submission interested in
// the same future has also been cancelled — the run is aborted at its
// next cycle-window checkpoint, its worker slot is freed, and Wait
// returns a Run with Err set. A cancelled or failed future is removed
// from the memo table before it completes, so a later submission of
// the same spec re-executes.
func (e *Engine) SubmitCtx(ctx context.Context, spec Spec) *Future {
	span := telemetry.SpanFromContext(ctx)
	k := spec.Key
	if k == "" {
		k = Key(spec.Cfg, spec.GPU, spec.CPU)
	}
	e.mu.Lock()
	if f, ok := e.memo[k]; ok {
		e.mu.Unlock()
		e.memoHits.Add(1)
		// The join covers waiting on the shared future; it closes when
		// that future completes, whoever ran it.
		join := span.Start("dedup.join")
		select {
		case <-f.done:
			// Already finished: nothing to wait for, nothing to cancel.
			join.End()
			return f
		default:
		}
		if join != nil {
			go func() { <-f.done; join.End() }()
		}
		f.addWaiter(ctx)
		return f
	}
	//simlint:ignore ctxflow the run is memoized and shared: its lifetime is the union of all waiter contexts (see addWaiter), not the first submitter's
	runCtx, cancel := context.WithCancel(context.Background())
	f := &Future{spec: spec, key: k, done: make(chan struct{}), cancel: cancel, span: span}
	e.memo[k] = f
	e.mu.Unlock()
	f.addWaiter(ctx)
	go e.execute(f, runCtx)
	return f
}

// Run submits one simulation and waits for it.
func (e *Engine) Run(spec Spec) Run { return e.Submit(spec).Wait() }

func (e *Engine) execute(f *Future, runCtx context.Context) {
	defer func() {
		if f.run.Err != nil {
			// A failed or cancelled run must not satisfy later
			// submissions of the same spec: drop it from the memo
			// table before anyone can observe completion.
			e.mu.Lock()
			delete(e.memo, f.key)
			if len(e.failures) < maxFailures {
				e.failures = append(e.failures, f.run)
			}
			e.mu.Unlock()
			e.failed.Add(1)
		}
		close(f.done)
	}()

	e.sem <- struct{}{}
	defer func() { <-e.sem }()

	if err := runCtx.Err(); err != nil {
		// Cancelled while waiting for a worker slot.
		f.run = Run{Spec: f.spec, Err: err}
		return
	}

	if e.cache != nil {
		look := f.span.Start("cache.lookup")
		res, digest, ok := e.cache.Get(f.key)
		look.Set("hit", ok)
		look.End()
		if ok {
			e.diskHits.Add(1)
			total := f.spec.Cfg.WarmupCycles + f.spec.Cfg.MeasureCycles
			f.progTotal.Store(total)
			f.progDone.Store(total)
			f.run = Run{Spec: f.spec, Results: res, Digest: digest, Source: SourceDisk}
			return
		}
	}

	if e.remote != nil {
		if done := e.resolveRemote(f, runCtx); done {
			return
		}
		// ErrNotRemotable: fall through to a local execution.
	}

	if e.progress != nil {
		line := fmt.Sprintf("  run %-5s + %-12s %s %s %s...\n",
			f.spec.GPU, f.spec.CPU, f.spec.Cfg.Scheme,
			f.spec.Cfg.Layout.Name, f.spec.Cfg.NoC.Topology)
		e.progressMu.Lock()
		//simlint:ignore lockorder progressMu exists solely to serialize this writer; it is never held with mu or around anything else
		io.WriteString(e.progress, line)
		e.progressMu.Unlock()
	}

	runSpan := f.span.Start("engine.run",
		telemetry.A("gpu", f.spec.GPU), telemetry.A("cpu", f.spec.CPU))
	a, err := runAudit(runCtx, f, runSpan)
	runSpan.End()
	if err != nil {
		runSpan.Set("error", err.Error())
		f.run = Run{Spec: f.spec, Err: err}
		return
	}
	runSpan.Set("cycles", a.Cycles)
	e.executed.Add(1)
	f.run = Run{Spec: f.spec, Results: a.Results, Digest: a.Digest, Source: SourceExecuted}
	if e.cache != nil {
		// Best effort: a full or read-only cache must not fail the run.
		_ = e.cache.Put(f.key, a.Digest, a.Results)
	}
}

// resolveRemote resolves one cache-missing spec through the engine's
// remote resolver. It reports done=false only for ErrNotRemotable
// specs, which the caller then executes locally; every other outcome
// (success or failure) finalizes the future. A resolved result is
// written into the local disk cache, so the fleet is consulted at most
// once per spec per cache lifetime.
func (e *Engine) resolveRemote(f *Future, runCtx context.Context) (done bool) {
	span := f.span.Start("fleet.resolve")
	rem, err := e.remote.Resolve(runCtx, f.spec)
	if errors.Is(err, ErrNotRemotable) {
		span.Set("fallback", "local")
		span.End()
		return false
	}
	if err != nil {
		span.Set("error", err.Error())
		span.End()
		f.run = Run{Spec: f.spec, Err: err, Worker: rem.Worker}
		return true
	}
	span.Set("worker", rem.Worker)
	span.Set("source", rem.Source.String())
	span.End()
	// Count the resolution under the source the fleet reports, so a
	// driver's delivered-run accounting (executed + disk + memo) sums
	// identically whether runs happened here or across the wire.
	switch rem.Source {
	case SourceMemo:
		e.memoHits.Add(1)
	case SourceDisk:
		e.diskHits.Add(1)
	default:
		e.executed.Add(1)
	}
	total := f.spec.Cfg.WarmupCycles + f.spec.Cfg.MeasureCycles
	f.progTotal.Store(total)
	f.progDone.Store(total)
	f.run = Run{Spec: f.spec, Results: rem.Results, Digest: rem.Digest,
		Source: rem.Source, Worker: rem.Worker}
	if e.cache != nil {
		_ = e.cache.Put(f.key, rem.Digest, rem.Results)
	}
	return true
}

// Failures returns the retained terminal Runs of executions that ended
// in error (cancelled, panicked, or failed remotely), in completion
// order, capped at an internal bound. The slice is a copy.
func (e *Engine) Failures() []Run {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Run, len(e.failures))
	copy(out, e.failures)
	return out
}

// runAudit executes the simulation under the future's run context,
// converting a panic (an invalid configuration, a simulator bug) into
// an error so one bad spec cannot take down a long-lived process that
// shares this engine.
//
// When the submitting job carries a telemetry span, every
// cycle-window checkpoint closes one "window" child span and opens the
// next, so the job timeline shows where simulated time went. The spans
// are recorded from the progress callback — strictly outside the tick
// loop — and the trace's span cap bounds very long runs.
func runAudit(runCtx context.Context, f *Future, runSpan *telemetry.Span) (a core.AuditRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation panicked: %v", p)
		}
	}()
	onProgress := func(done, total int64) {
		f.progDone.Store(done)
		f.progTotal.Store(total)
	}
	if runSpan != nil {
		win := runSpan.Start("window 0")
		winIdx := 1
		onProgress = func(done, total int64) {
			f.progDone.Store(done)
			f.progTotal.Store(total)
			win.Set("cycles_done", done)
			win.End()
			win = nil
			if done < total {
				win = runSpan.Start(fmt.Sprintf("window %d", winIdx))
				winIdx++
			}
		}
	}
	return core.RunAuditCtrl(core.RunControl{
		Ctx:        runCtx,
		OnProgress: onProgress,
	}, f.spec.Cfg, f.spec.GPU, f.spec.CPU)
}
