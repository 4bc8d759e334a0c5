package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"delrep/internal/core"
	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// shortSpec finishes in well under a second; vary the seed to defeat
// memoization between tests (each test file shares one process).
func shortSpec(seed int64) simspec.Spec {
	return simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 2000, Seed: seed}
}

// slowSpec runs for a few seconds (~12k cycles/s) — long enough to
// kill its worker mid-run, short enough to finish after failover.
func slowSpec(seed int64) simspec.Spec {
	return simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 50_000, Seed: seed}
}

// foreverSpec will not finish within any test timeout; it exists to be
// cancelled.
func foreverSpec(seed int64) simspec.Spec {
	return simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 500_000_000, Seed: seed}
}

// directResult computes the reference bytes a fleet-served result must
// match: the canonical Result of an in-process run of the same spec.
func directResult(t *testing.T, spec simspec.Spec) []byte {
	t.Helper()
	cfg, norm, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	a := core.RunAudit(cfg, norm.GPU, norm.CPU)
	b, err := json.Marshal(simspec.NewResult(norm, a.Results, a.Digest))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// testWorker is one delrepd stand-in backed by its own cache dir.
type testWorker struct {
	srv *serve.Server
	ts  *httptest.Server
	eng *runner.Engine
}

func newWorker(t *testing.T, dir string) *testWorker {
	t.Helper()
	var cache *runner.DiskCache
	if dir != "" {
		var err error
		if cache, err = runner.OpenDiskCache(dir); err != nil {
			t.Fatal(err)
		}
	}
	eng := runner.New(runner.Options{Workers: 2, Cache: cache})
	srv := serve.New(serve.Options{Engine: eng})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return &testWorker{srv: srv, ts: ts, eng: eng}
}

func newCoordinator(t *testing.T, workers ...*testWorker) (*Server, *httptest.Server) {
	t.Helper()
	return newCoordinatorOpts(t, Options{Retries: 3}, workers...)
}

// newCoordinatorOpts is newCoordinator with the caller's Options (the
// worker URLs and a fast probe cadence are filled in).
func newCoordinatorOpts(t *testing.T, opts Options, workers ...*testWorker) (*Server, *httptest.Server) {
	t.Helper()
	for _, w := range workers {
		opts.Workers = append(opts.Workers, w.ts.URL)
	}
	opts.ProbeInterval = 25 * time.Millisecond
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	// Wait for the registry's first probe sweep so tests never race
	// worker readiness: /readyz answers once any worker is up, placement
	// needs to know about all of them.
	waitFor(t, "coordinator ready", func() bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode == http.StatusOK && s.reg.ReadyCount() == len(workers)
	})
	return s, ts
}

func submitWait(t *testing.T, base string, spec simspec.Spec) jobapi.JobView {
	t.Helper()
	view, err := trySubmitWait(base, spec)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func trySubmitWait(base string, spec simspec.Spec) (jobapi.JobView, error) {
	b, err := json.Marshal(jobapi.SubmitRequest{Spec: spec, Client: "fleet-test"})
	if err != nil {
		return jobapi.JobView{}, err
	}
	resp, err := http.Post(base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(b))
	if err != nil {
		return jobapi.JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return jobapi.JobView{}, fmt.Errorf("submit: status %d: %s", resp.StatusCode, body)
	}
	var view jobapi.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return jobapi.JobView{}, err
	}
	return view, nil
}

// getJSON decodes a GET's body into v and returns the status code.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, raw, _ := call(t, http.MethodGet, url, nil)
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, raw)
	}
	return resp.StatusCode
}

func getJob(t *testing.T, base, id string) jobapi.JobView {
	t.Helper()
	var v jobapi.JobView
	if code := getJSON(t, base+"/v1/jobs/"+id, &v); code != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, code)
	}
	return v
}

func listJobs(t *testing.T, base string) []jobapi.JobView {
	t.Helper()
	var list struct {
		Jobs []jobapi.JobView `json:"jobs"`
	}
	if code := getJSON(t, base+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("GET jobs: status %d", code)
	}
	return list.Jobs
}

func resultBytes(t *testing.T, view jobapi.JobView) []byte {
	t.Helper()
	if view.Status != jobapi.StatusDone {
		t.Fatalf("job %s ended %s (%s)", view.ID, view.Status, view.Error)
	}
	if view.Result == nil {
		t.Fatalf("job %s: done without a result", view.ID)
	}
	b, err := json.Marshal(*view.Result)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The fleet's core invariant: a coordinator-served result is
// byte-identical to a direct in-process run of the same spec, and the
// view says which worker served it.
func TestFleetByteIdentity(t *testing.T) {
	w1 := newWorker(t, t.TempDir())
	w2 := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w1, w2)

	spec := shortSpec(501)
	want := directResult(t, spec)
	view := submitWait(t, ts.URL, spec)
	if got := resultBytes(t, view); !bytes.Equal(got, want) {
		t.Fatalf("fleet result differs from direct run:\n fleet:  %s\n direct: %s", got, want)
	}
	if view.Worker != w1.ts.URL && view.Worker != w2.ts.URL {
		t.Fatalf("view.Worker = %q, want one of the worker URLs", view.Worker)
	}
	if view.Source != "executed" {
		t.Fatalf("first run source = %q, want executed", view.Source)
	}

	// A resubmission routes to the same worker (consistent hashing) and
	// is served from its cache, still byte-identical.
	again := submitWait(t, ts.URL, spec)
	if again.Worker != view.Worker {
		t.Fatalf("resubmission routed to %q, first run to %q", again.Worker, view.Worker)
	}
	if again.Source == "executed" {
		t.Fatalf("resubmission source = executed, want a cache hit")
	}
	if got := resultBytes(t, again); !bytes.Equal(got, want) {
		t.Fatalf("cached fleet result differs from direct run")
	}
}

// Killing a worker mid-run must fail the job over to the survivor and
// still deliver byte-identical results — the replay is idempotent
// because simulations are deterministic.
func TestFleetFailoverMidRun(t *testing.T) {
	w1 := newWorker(t, t.TempDir())
	w2 := newWorker(t, t.TempDir())
	coord, ts := newCoordinator(t, w1, w2)

	spec := slowSpec(502)
	type res struct {
		view jobapi.JobView
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := trySubmitWait(ts.URL, spec)
		ch <- res{v, err}
	}()

	// Wait until the job is running on a worker, then kill that worker.
	var victim, survivor *testWorker
	waitFor(t, "job dispatched", func() bool {
		for _, j := range listJobs(t, ts.URL) {
			if j.Status == jobapi.StatusRunning && j.Worker != "" {
				if j.Worker == w1.ts.URL {
					victim, survivor = w1, w2
				} else {
					victim, survivor = w2, w1
				}
				return true
			}
		}
		return false
	})
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got, want := resultBytes(t, r.view), directResult(t, spec); !bytes.Equal(got, want) {
		t.Fatalf("failover result differs from direct run:\n fleet:  %s\n direct: %s", got, want)
	}
	if r.view.Worker != survivor.ts.URL {
		t.Fatalf("job finished on %q, want survivor %q", r.view.Worker, survivor.ts.URL)
	}

	// The retry counter recorded the failover and the registry marked
	// the victim down.
	if coord.nRetry.Load() == 0 {
		t.Error("failover did not count a retry round")
	}
	if coord.Registry().Ready(victim.ts.URL) {
		t.Error("dead worker still marked ready")
	}
}

// A batch whose worker dies mid-sweep completes on the survivor with
// every result byte-identical to direct runs.
func TestFleetFailoverMidSweep(t *testing.T) {
	w1 := newWorker(t, t.TempDir())
	w2 := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w1, w2)

	specs := make([]simspec.Spec, 6)
	for i := range specs {
		specs[i] = shortSpec(510 + int64(i))
	}
	type res struct {
		i    int
		view jobapi.JobView
		err  error
	}
	ch := make(chan res, len(specs))
	for i, sp := range specs {
		go func(i int, sp simspec.Spec) {
			v, err := trySubmitWait(ts.URL, sp)
			ch <- res{i, v, err}
		}(i, sp)
	}
	// Kill one worker while the batch is in flight. Whichever jobs were
	// routed to it must fail over; the rest are unaffected.
	time.Sleep(50 * time.Millisecond)
	w1.ts.CloseClientConnections()
	w1.ts.Close()

	got := make([][]byte, len(specs))
	for range specs {
		r := <-ch
		if r.err != nil {
			t.Fatalf("spec %d: %v", r.i, r.err)
		}
		got[r.i] = resultBytes(t, r.view)
	}
	for i, sp := range specs {
		if want := directResult(t, sp); !bytes.Equal(got[i], want) {
			t.Errorf("spec %d: fleet result differs from direct run", i)
		}
	}
}

// A worker's warm disk cache is a queryable shard: the coordinator
// answers from it via the cache probe without dispatching a job.
func TestFleetCacheTierProbe(t *testing.T) {
	dir := t.TempDir()
	warm := newWorker(t, dir)

	// Warm the worker's cache with a direct submission.
	spec := shortSpec(520)
	view := submitWait(t, warm.ts.URL, spec)
	want := resultBytes(t, view)

	// A fresh coordinator serves the same spec from the cache tier.
	_, ts := newCoordinator(t, warm)
	served := submitWait(t, ts.URL, spec)
	if served.Source != "disk" {
		t.Fatalf("source = %q, want disk", served.Source)
	}
	if got := resultBytes(t, served); !bytes.Equal(got, want) {
		t.Fatalf("cache-tier result differs from the worker's own")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `delrepfleet_cache_probes_total{result="hit"} 1`) {
		t.Errorf("metrics do not record the cache-probe hit:\n%s", body)
	}
	if !strings.Contains(string(body), "delrepfleet_dispatch_total 0") {
		t.Errorf("cache-tier hit should not have dispatched a job:\n%s", body)
	}
}

// Cancelling a coordinator job propagates to the worker: the remote
// job stops running instead of burning a slot to completion.
func TestFleetCancelPropagation(t *testing.T) {
	w := newWorker(t, t.TempDir())
	_, ts := newCoordinator(t, w)

	b, err := json.Marshal(jobapi.SubmitRequest{Spec: foreverSpec(550), Client: "fleet-test"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var view jobapi.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	// The worker is fresh, so the one job it lists is the remote half.
	var remoteID string
	waitFor(t, "job running on worker", func() bool {
		if getJob(t, ts.URL, view.ID).Status != jobapi.StatusRunning {
			return false
		}
		for _, wj := range listJobs(t, w.ts.URL) {
			remoteID = wj.ID
		}
		return remoteID != ""
	})

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+view.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	// Both ends reach cancelled: the coordinator job and the worker job.
	waitFor(t, "coordinator job cancelled", func() bool {
		return getJob(t, ts.URL, view.ID).Status == jobapi.StatusCancelled
	})
	waitFor(t, "worker job cancelled", func() bool {
		return getJob(t, w.ts.URL, remoteID).Status == jobapi.StatusCancelled
	})
}

// A probe the worker could not answer (transport error, 5xx, garbage)
// is a worker-health problem, already counted as a retry — not a cache
// miss.
func TestFleetFailedProbeIsNotAMiss(t *testing.T) {
	var up atomic.Bool
	up.Store(true)
	mux := http.NewServeMux()
	mux.Handle("/", fakeWorker(&up, 2))
	mux.HandleFunc("GET /v1/cache/{key}", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "disk on fire", http.StatusInternalServerError)
	})
	sick := httptest.NewServer(mux)
	defer sick.Close()
	_, ts := newCoordinatorOpts(t, Options{Retries: 1}, &testWorker{ts: sick})

	view := submitWait(t, ts.URL, shortSpec(570))
	if view.Status != jobapi.StatusFailed {
		t.Fatalf("job ended %s, want failed (its only worker cannot answer probes)", view.Status)
	}
	for series, want := range map[string]func(n int) bool{
		`delrepfleet_cache_probes_total{result="hit"}`:  func(n int) bool { return n == 0 },
		`delrepfleet_cache_probes_total{result="miss"}`: func(n int) bool { return n == 0 },
		`delrepfleet_retries_total`:                     func(n int) bool { return n >= 1 },
	} {
		if n, err := strconv.Atoi(gauge(t, ts.URL, series)); err != nil || !want(n) {
			t.Errorf("%s = %d (%v) after two failed probes", series, n, err)
		}
	}
}

// "No worker could run the job" is reported when the last round ends,
// not a probe cycle later.
func TestFleetUnplaceableJobFailsPromptly(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	const retries = 1
	coord, err := New(Options{Workers: []string{dead.URL}, Retries: retries, ProbeInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	defer shutdown(t, coord)

	start := time.Now()
	view := submitWait(t, ts.URL, shortSpec(571))
	took := time.Since(start)
	if view.Status != jobapi.StatusFailed || !strings.Contains(view.Error, "after 2 rounds") {
		t.Fatalf("job ended %s (%q), want failed after 2 rounds", view.Status, view.Error)
	}
	if limit := retries*time.Second + 500*time.Millisecond; took > limit {
		t.Errorf("failure took %v, want under %v (one probe cycle between rounds, none after the last)", took, limit)
	}
}

// A worker named with a trailing slash is one worker to the ring and
// the registry alike, so its jobs are placed, not failed after every
// round for want of a ready ring member.
func TestWorkerURLTrailingSlash(t *testing.T) {
	w := newWorker(t, t.TempDir())
	coord, err := New(Options{Workers: []string{w.ts.URL + "/"}, Retries: 1, ProbeInterval: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	defer shutdown(t, coord)
	waitFor(t, "worker ready", func() bool { return coord.Registry().ReadyCount() == 1 })

	if view := submitWait(t, ts.URL, shortSpec(580)); view.Status != jobapi.StatusDone || view.Worker != w.ts.URL {
		t.Fatalf("job ended %s on %q (%s), want done on %s", view.Status, view.Worker, view.Error, w.ts.URL)
	}
}
