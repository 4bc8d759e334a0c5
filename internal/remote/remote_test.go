package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"delrep/internal/core"
	"delrep/internal/experiment"
	"delrep/internal/fleet"
	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// remoteSpec is a short run for the -remote tests; vary the seed to
// keep them from sharing results.
func remoteSpec(t *testing.T, seed int64) (runner.Spec, core.AuditRun) {
	t.Helper()
	cfg, norm, err := simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 2000, Seed: seed}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return runner.Spec{Cfg: cfg, GPU: norm.GPU, CPU: norm.CPU}, core.RunAudit(cfg, norm.GPU, norm.CPU)
}

// startDaemon serves a delrepd over cacheDir ("" for none) until the
// test ends; front, when non-nil, sees every request first.
func startDaemon(t *testing.T, cacheDir string, front func(w http.ResponseWriter, r *http.Request, daemon http.Handler)) (*serve.Server, string) {
	t.Helper()
	var cache *runner.DiskCache
	if cacheDir != "" {
		var err error
		if cache, err = runner.OpenDiskCache(cacheDir); err != nil {
			t.Fatal(err)
		}
	}
	daemon := serve.New(serve.Options{Engine: runner.New(runner.Options{Workers: 2, Cache: cache})})
	var h http.Handler = daemon.Handler()
	if front != nil {
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { front(w, r, daemon.Handler()) })
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = daemon.Shutdown(ctx)
	})
	return daemon, ts.URL
}

// The -remote resolver plugs into the engine: remote results flow
// through dedup and batch ordering, count under the source the fleet
// reports, and land in the local disk cache.
func TestClientResolverThroughEngine(t *testing.T) {
	_, w1 := startDaemon(t, t.TempDir(), nil)
	_, w2 := startDaemon(t, t.TempDir(), nil)
	coord, err := fleet.New(fleet.Options{Workers: []string{w1, w2}, ProbeInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	defer coord.Shutdown(context.Background())
	for deadline := time.Now().Add(10 * time.Second); coord.Registry().ReadyCount() < 2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the workers to be ready")
		}
	}

	spec, want := remoteSpec(t, 530)
	localDir := t.TempDir()
	res, err := (&Flag{URL: ts.URL}).Resolver("experiment-test")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := (&experiment.EngineFlags{Jobs: 2, Cache: localDir}).Engine("experiment-test", res)
	if err != nil {
		t.Fatal(err)
	}
	run := eng.Submit(spec).Wait()
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.Worker != w1 && run.Worker != w2 {
		t.Fatalf("run.Worker = %q: the run did not go through the fleet", run.Worker)
	}
	if run.Results != want.Results || run.Digest != want.Digest {
		t.Fatal("fleet-resolved run differs from a direct run")
	}
	if run.Source != runner.SourceExecuted {
		t.Fatalf("source = %v, want executed (the fleet executed it)", run.Source)
	}
	if c := eng.Snapshot(); c.Executed != 1 {
		t.Fatalf("counters = %+v, want the remote execution counted as executed", c)
	}

	// The remote result was written into the local cache: a fresh
	// engine over the same dir needs no fleet at all.
	cache, err := runner.OpenDiskCache(localDir)
	if err != nil {
		t.Fatal(err)
	}
	run2 := runner.New(runner.Options{Workers: 1, Cache: cache}).Submit(spec).Wait()
	if run2.Err != nil || run2.Source != runner.SourceDisk {
		t.Fatalf("warm local rerun source = %v (err %v), want disk", run2.Source, run2.Err)
	}
	if run2.Results != run.Results || run2.Digest != run.Digest {
		t.Fatal("locally cached remote result differs")
	}
}

// Specs the wire form cannot express run locally (ErrNotRemotable), so
// hybrid sweeps still work against a remote endpoint.
func TestClientResolverLocalFallback(t *testing.T) {
	_, base := startDaemon(t, "", nil)
	spec, _ := remoteSpec(t, 540)
	spec.Cfg.NoC.VCsPerClass = 3 // a knob the wire spec does not carry

	eng := runner.New(runner.Options{Workers: 1, Remote: &resolver{api: jobapi.NewClient(base, nil), client: "experiment-test"}})
	run := eng.Submit(spec).Wait()
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	if run.Worker != "" {
		t.Fatalf("non-remotable spec ran on worker %q, want local execution", run.Worker)
	}
	if a := core.RunAudit(spec.Cfg, spec.GPU, spec.CPU); run.Results != a.Results || run.Digest != a.Digest {
		t.Fatal("local-fallback run differs from a direct run")
	}
	// The daemon saw no job.
	var list struct{ Jobs []jobapi.JobView }
	resp, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil || len(list.Jobs) != 0 {
		t.Fatalf("daemon saw %d jobs (%v), want 0", len(list.Jobs), err)
	}
}

// busy answers a submission the way a full daemon queue does.
func busy(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	fmt.Fprintln(w, `{"error": "job queue is full (1 queued)"}`)
}

// How the -remote resolver meets a misbehaving endpoint: each row puts
// a scripted front before a real daemon's submissions.
func TestRemoteFaults(t *testing.T) {
	for i, c := range []struct {
		name  string
		front func(w http.ResponseWriter, r *http.Request, post int32, daemon http.Handler)
		posts int32         // submissions the front saw
		wait  time.Duration // at least this long: the Retry-After waits
		err   string        // "": served, equal to a direct run
	}{
		{"a 429 with Retry-After 1, then a 200: served after one retry",
			func(w http.ResponseWriter, r *http.Request, post int32, daemon http.Handler) {
				if post == 1 {
					busy(w)
					return
				}
				daemon.ServeHTTP(w, r)
			}, 2, time.Second, ""},
		{"429s past the busy bound: the error names the 429",
			func(w http.ResponseWriter, r *http.Request, post int32, daemon http.Handler) { busy(w) },
			2, time.Second, "submit answered 429: job queue is full"},
		{"a ?wait reply cut mid-JSON: a decode error, no result, no hang",
			func(w http.ResponseWriter, r *http.Request, post int32, daemon http.Handler) {
				rec := httptest.NewRecorder()
				daemon.ServeHTTP(rec, r)
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes()[:rec.Body.Len()/2])
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler) // the connection drops mid-body
			}, 1, 0, "decoding the submit answer: unexpected EOF"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var posts atomic.Int32
			_, base := startDaemon(t, "", func(w http.ResponseWriter, r *http.Request, daemon http.Handler) {
				if r.Method == http.MethodPost {
					c.front(w, r, posts.Add(1), daemon)
					return
				}
				daemon.ServeHTTP(w, r)
			})
			spec, want := remoteSpec(t, 550+int64(i))
			r := &resolver{api: jobapi.NewClient(base, nil), client: "experiment-test", maxBusy: 1}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			start := time.Now()
			got, err := r.Resolve(ctx, spec)
			took := time.Since(start)

			if c.err == "" && (err != nil || got.Results != want.Results || got.Digest != want.Digest) {
				t.Errorf("Resolve = %v, want the direct run's result", err)
			}
			if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err) || got != (runner.Remote{})) {
				t.Errorf("Resolve = %+v, %v; want no result and an error naming %q", got, err, c.err)
			}
			if n := posts.Load(); n != c.posts || took < c.wait || ctx.Err() != nil {
				t.Errorf("%d submissions in %v, want %d taking at least %v", n, took, c.posts, c.wait)
			}
		})
	}
}
