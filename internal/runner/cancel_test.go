package runner

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"delrep/internal/config"
	"delrep/internal/telemetry"
)

// longCfg is a run far too long to finish during a test: cancellation
// must cut it short at a cycle-window checkpoint.
func longCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 500
	cfg.MeasureCycles = 500_000_000
	return cfg
}

func TestSubmitCtxCancelMidRun(t *testing.T) {
	eng := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	f := eng.SubmitCtx(ctx, Spec{Cfg: longCfg(), GPU: "HS", CPU: "vips"})

	// Let the run reach its first checkpoints, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if done, _ := f.Progress(); done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run never reported progress")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	run := f.Wait()
	if !errors.Is(run.Err, context.Canceled) {
		t.Fatalf("run.Err = %v, want context.Canceled", run.Err)
	}
	if c := eng.Snapshot(); c.Failed != 1 {
		t.Fatalf("Counters.Failed = %d, want 1", c.Failed)
	}

	// The worker slot must be free again: a short run completes.
	short := config.Default()
	short.WarmupCycles, short.MeasureCycles = 300, 800
	if run := eng.Run(Spec{Cfg: short, GPU: "HS", CPU: "vips"}); run.Err != nil {
		t.Fatalf("post-cancel run failed: %v", run.Err)
	}
}

// A cancelled future leaves the memo table, so resubmitting the same
// spec re-executes rather than delivering the cancelled husk.
func TestCancelledFutureNotMemoized(t *testing.T) {
	eng := New(Options{Workers: 1})
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 800
	spec := Spec{Cfg: cfg, GPU: "HS", CPU: "vips"}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the worker even starts
	if run := eng.SubmitCtx(ctx, spec).Wait(); !errors.Is(run.Err, context.Canceled) {
		t.Fatalf("run.Err = %v, want context.Canceled", run.Err)
	}

	run := eng.Run(spec)
	if run.Err != nil {
		t.Fatalf("resubmission failed: %v", run.Err)
	}
	if run.Source != SourceExecuted {
		t.Fatalf("resubmission source = %v, want executed", run.Source)
	}
	c := eng.Snapshot()
	if c.Executed != 1 || c.Failed != 1 || c.MemoHits != 0 {
		t.Fatalf("counters = %+v, want Executed 1, Failed 1, MemoHits 0", c)
	}
}

// A pinned (Submit) waiter keeps the shared future alive even when a
// cancellable co-waiter gives up.
func TestPinnedWaiterSurvivesCancel(t *testing.T) {
	eng := New(Options{Workers: 1})
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 800
	spec := Spec{Cfg: cfg, GPU: "HS", CPU: "vips"}

	pinned := eng.Submit(spec)
	ctx, cancel := context.WithCancel(context.Background())
	shared := eng.SubmitCtx(ctx, spec)
	if shared != pinned {
		t.Fatal("identical specs did not share a future")
	}
	cancel()
	if run := pinned.Wait(); run.Err != nil {
		t.Fatalf("pinned run failed after co-waiter cancel: %v", run.Err)
	}
}

// A panicking simulation (invalid configuration) surfaces as Run.Err
// instead of crashing the process that shares the engine. A layout
// whose Kinds do not fill its grid is keyed like any other and fails
// when it runs.
func TestPanicBecomesError(t *testing.T) {
	eng := New(Options{Workers: 1})
	run := eng.Run(Spec{Cfg: config.Default(), GPU: "no-such-benchmark", CPU: "vips"})
	if run.Err == nil {
		t.Fatal("run with unknown benchmark reported no error")
	}
	short := config.Default()
	short.Layout.Kinds = short.Layout.Kinds[:10]
	if run := eng.Run(Spec{Cfg: short, GPU: "HS", CPU: "vips"}); run.Err == nil {
		t.Fatal("run with a layout shorter than its grid reported no error")
	}
	if c := eng.Snapshot(); c.Failed != 2 || c.Executed != 0 {
		t.Fatalf("counters = %+v, want Failed 2, Executed 0", c)
	}
}

// A memo hit on a future that has already finished has nothing to wait
// for and nothing left to cancel: it starts no goroutine, and its
// dedup.join span is closed when SubmitCtx returns. The hits pass the
// key pre-rendered, as the daemon does.
func TestDoneFutureMemoHitStartsNothing(t *testing.T) {
	const hits = 1000
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 800
	spec := Spec{Cfg: cfg, GPU: "HS", CPU: "vips"}
	idle := runtime.NumGoroutine()
	eng := New(Options{Workers: 1})
	first := eng.Submit(spec)
	if run := first.Wait(); run.Err != nil {
		t.Fatal(run.Err)
	}
	// The executing goroutine closes the future, then exits.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > idle; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want the idle %d back", runtime.NumGoroutine(), idle)
		}
	}
	idle = runtime.NumGoroutine() // an earlier test's stragglers may have left meanwhile

	spec.Key = Key(spec.Cfg, spec.GPU, spec.CPU)
	traces := make([]*telemetry.Trace, hits)
	cancels := make([]context.CancelFunc, hits)
	for i := range traces {
		traces[i] = telemetry.New("job")
		ctx, cancel := context.WithCancel(telemetry.ContextWithSpan(context.Background(), traces[i].Root()))
		cancels[i] = cancel
		if f := eng.SubmitCtx(ctx, spec); f != first {
			t.Fatal("a repeat of a finished spec did not join its future")
		}
	}
	if g := runtime.NumGoroutine(); g > idle {
		t.Errorf("goroutines after %d memo hits on a finished future = %d, want %d", hits, g, idle)
	}
	for i, tr := range traces {
		if join, ok := tr.Snapshot().Find("dedup.join"); !ok || join.Open {
			t.Fatalf("hit %d: dedup.join = %+v (found %v), want closed", i, join, ok)
		}
	}
	for _, cancel := range cancels {
		cancel()
	}
	if c := eng.Snapshot(); c.Executed != 1 || c.MemoHits != hits {
		t.Fatalf("counters = %+v, want Executed 1, MemoHits %d", c, hits)
	}
}

func TestProgressCompletesOnDiskHit(t *testing.T) {
	cache, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 800
	spec := Spec{Cfg: cfg, GPU: "HS", CPU: "vips"}

	if run := New(Options{Workers: 1, Cache: cache}).Run(spec); run.Err != nil {
		t.Fatal(run.Err)
	}
	f := New(Options{Workers: 1, Cache: cache}).Submit(spec)
	if run := f.Wait(); run.Source != SourceDisk {
		t.Fatalf("source = %v, want disk", run.Source)
	}
	done, total := f.Progress()
	if want := cfg.WarmupCycles + cfg.MeasureCycles; done != want || total != want {
		t.Fatalf("disk-hit progress = %d/%d, want %d/%d", done, total, want, want)
	}
}
