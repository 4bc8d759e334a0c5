package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"delrep/internal/core"
	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/simspec"
)

// shortSpec is a spec small enough to finish in well under a second.
// Vary the seed to defeat engine memoization between tests.
func shortSpec(seed int64) simspec.Spec {
	return simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 2000, Seed: seed}
}

// longSpec runs effectively forever; it only ever ends by cancellation.
func longSpec(seed int64) simspec.Spec {
	return simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 500_000_000, Seed: seed}
}

func newTestServer(t testing.TB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Engine == nil {
		opts.Engine = runner.New(runner.Options{Workers: 2})
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, req jobapi.SubmitRequest, query string) (jobapi.JobView, *http.Response) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobapi.JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return v, resp
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobapi.JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var v jobapi.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollUntil polls the job until pred holds or the deadline passes.
func pollUntil(t *testing.T, ts *httptest.Server, id string, pred func(jobapi.JobView) bool) jobapi.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if pred(v) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s: condition not reached before deadline (last: %+v)", id, getJob(t, ts, id))
	return jobapi.JobView{}
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// A job's result must be byte-identical to a direct in-process run of
// the same spec: same canonical rendering, same digest. A second
// daemon sharing the disk cache must serve the identical bytes from
// disk without executing.
func TestEndToEndByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cache, err := runner.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng := runner.New(runner.Options{Workers: 2, Cache: cache})
	_, ts := newTestServer(t, Options{Engine: eng})

	spec := shortSpec(11)
	cfg, norm, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	a := core.RunAudit(cfg, norm.GPU, norm.CPU)
	direct := simspec.NewResult(norm, a.Results, a.Digest)
	directJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	v, resp := submit(t, ts, jobapi.SubmitRequest{Spec: spec}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if v.Status != jobapi.StatusQueued && v.Status != jobapi.StatusRunning {
		t.Fatalf("fresh job status = %s", v.Status)
	}
	done := pollUntil(t, ts, v.ID, func(v jobapi.JobView) bool { return v.Status.Terminal() })
	if done.Status != jobapi.StatusDone {
		t.Fatalf("job ended %s (%s)", done.Status, done.Error)
	}
	if done.Result == nil {
		t.Fatal("done job has no result")
	}
	gotJSON, err := json.Marshal(*done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, directJSON) {
		t.Fatalf("daemon result differs from direct run:\n daemon: %s\n direct: %s", gotJSON, directJSON)
	}

	// A fresh daemon over the same cache dir serves identical bytes
	// from disk.
	cache2, err := runner.OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng2 := runner.New(runner.Options{Workers: 1, Cache: cache2})
	_, ts2 := newTestServer(t, Options{Engine: eng2})
	v2, _ := submit(t, ts2, jobapi.SubmitRequest{Spec: spec}, "?wait=1")
	if v2.Status != jobapi.StatusDone {
		t.Fatalf("cached job ended %s (%s)", v2.Status, v2.Error)
	}
	if v2.Source != "disk" {
		t.Fatalf("cached job source = %q, want disk", v2.Source)
	}
	got2, err := json.Marshal(*v2.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, directJSON) {
		t.Fatalf("disk-cache result differs from direct run:\n daemon: %s\n direct: %s", got2, directJSON)
	}
	if c := eng2.Snapshot(); c.Executed != 0 || c.DiskHits != 1 {
		t.Fatalf("second engine counters = %+v, want pure disk hit", c)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"bad json":      `{`,
		"unknown field": `{"spec":{"gpu":"HS","cpu":"vips","cyclez":5}}`,
		"bad spec":      `{"spec":{"gpu":"nope","cpu":"vips"}}`,
		"bad priority":  `{"spec":{"gpu":"HS","cpu":"vips"},"priority":"urgent"}`,
		"deep vc":       `{"spec":{"gpu":"HS","cpu":"vips","vcdepth":257}}`,
		"negative warm": `{"spec":{"gpu":"HS","cpu":"vips","warm":-5}}`,
		"two requests":  `{"spec":{"gpu":"HS","cpu":"vips","warm":200,"cycles":2000}}{"spec":{"gpu":"HS","cpu":"vips","warm":200,"cycles":2000}}`,
		"trailing junk": `{"spec":{"gpu":"HS","cpu":"vips","warm":200,"cycles":2000}} xyz`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	s.mu.Lock()
	admitted := len(s.order)
	s.mu.Unlock()
	if admitted != 0 {
		t.Errorf("%d rejected submit(s) admitted", admitted)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// Cancelling a running job frees its worker slot for the next job.
func TestCancelRunningFreesWorker(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1})})

	long, resp := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(21)}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	pollUntil(t, ts, long.ID, func(v jobapi.JobView) bool { return v.Status == jobapi.StatusRunning })

	short, _ := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(22)}, "")

	if resp := cancelJob(t, ts, long.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	v := pollUntil(t, ts, long.ID, func(v jobapi.JobView) bool { return v.Status.Terminal() })
	if v.Status != jobapi.StatusCancelled {
		t.Fatalf("cancelled job ended %s", v.Status)
	}
	// The freed slot must run the short job to completion.
	v = pollUntil(t, ts, short.ID, func(v jobapi.JobView) bool { return v.Status.Terminal() })
	if v.Status != jobapi.StatusDone {
		t.Fatalf("follow-up job ended %s (%s)", v.Status, v.Error)
	}
	// Cancelling a terminal job conflicts.
	if resp := cancelJob(t, ts, long.ID); resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: status %d, want 409", resp.StatusCode)
	}
}

// Cancelling a queued job retires it without it ever running.
func TestCancelQueued(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1})})
	long, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(31)}, "")
	pollUntil(t, ts, long.ID, func(v jobapi.JobView) bool { return v.Status == jobapi.StatusRunning })
	queued, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(32)}, "")
	if resp := cancelJob(t, ts, queued.ID); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: status %d", resp.StatusCode)
	}
	v := getJob(t, ts, queued.ID)
	if v.Status != jobapi.StatusCancelled || v.Started != "" {
		t.Fatalf("queued cancel: %+v", v)
	}
}

// A full queue answers 429 with a Retry-After hint; draining the
// backlog readmits.
func TestQueueOverflow429(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Engine: runner.New(runner.Options{Workers: 1}), QueueDepth: 1,
	})
	running, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(41)}, "")
	pollUntil(t, ts, running.ID, func(v jobapi.JobView) bool { return v.Status == jobapi.StatusRunning })
	queued, resp := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(42)}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}
	_, resp = submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(43)}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Free the queue slot: admission recovers.
	cancelJob(t, ts, queued.ID)
	third, resp := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(44)}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain submit: status %d", resp.StatusCode)
	}
	cancelJob(t, ts, third.ID)
	cancelJob(t, ts, running.ID)
}

// The per-client cap rejects one client's overload without touching
// another client.
func TestClientCap429(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Engine: runner.New(runner.Options{Workers: 1}), ClientInFlight: 1,
	})
	a1, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(51), Client: "alice"}, "")
	_, resp := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(52), Client: "alice"}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("capped submit: status %d, want 429", resp.StatusCode)
	}
	b1, resp := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(53), Client: "bob"}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client: status %d", resp.StatusCode)
	}
	// Alice's job finishing readmits her.
	cancelJob(t, ts, a1.ID)
	pollUntil(t, ts, a1.ID, func(v jobapi.JobView) bool { return v.Status.Terminal() })
	a2, resp := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(54), Client: "alice"}, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("readmitted submit: status %d", resp.StatusCode)
	}
	cancelJob(t, ts, b1.ID)
	cancelJob(t, ts, a2.ID)
}

// Queued high-priority jobs dispatch before queued normal ones.
func TestPriorityDispatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1})})
	gate, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(61)}, "")
	pollUntil(t, ts, gate.ID, func(v jobapi.JobView) bool { return v.Status == jobapi.StatusRunning })
	low, _ := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(62), Priority: "low"}, "")
	high, _ := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(63), Priority: "high"}, "")
	cancelJob(t, ts, gate.ID)
	lv := pollUntil(t, ts, low.ID, func(v jobapi.JobView) bool { return v.Status.Terminal() })
	hv := pollUntil(t, ts, high.ID, func(v jobapi.JobView) bool { return v.Status.Terminal() })
	if lv.Status != jobapi.StatusDone || hv.Status != jobapi.StatusDone {
		t.Fatalf("jobs ended %s / %s", lv.Status, hv.Status)
	}
	ls, err1 := time.Parse(time.RFC3339Nano, lv.Started)
	hs, err2 := time.Parse(time.RFC3339Nano, hv.Started)
	if err1 != nil || err2 != nil {
		t.Fatalf("parsing start times: %v %v", err1, err2)
	}
	if !hs.Before(ls) {
		t.Fatalf("high started %s, low started %s: want high first", hv.Started, lv.Started)
	}
}

// A ?wait=1 client that disconnects abandons — and thereby cancels —
// its job.
func TestWaitDisconnectCancels(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1})})
	body, _ := json.Marshal(jobapi.SubmitRequest{Spec: longSpec(71)})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	// Find the job via the listing, wait for it to run, then drop the
	// waiting connection.
	var id string
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && id == "" {
		resp, err := http.Get(ts.URL + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Jobs []jobapi.JobView `json:"jobs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(list.Jobs) > 0 && list.Jobs[0].Status == jobapi.StatusRunning {
			id = list.Jobs[0].ID
		}
		time.Sleep(10 * time.Millisecond)
	}
	if id == "" {
		t.Fatal("job never appeared as running")
	}
	cancel()
	<-errCh
	v := pollUntil(t, ts, id, func(v jobapi.JobView) bool { return v.Status.Terminal() })
	if v.Status != jobapi.StatusCancelled {
		t.Fatalf("abandoned job ended %s", v.Status)
	}
}

// Shutdown drains running jobs to completion and retires queued ones.
func TestShutdownDrains(t *testing.T) {
	s := New(Options{Engine: runner.New(runner.Options{Workers: 1})})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Long enough to still be running when the second job queues and
	// Shutdown begins (a short spec can finish first, and the worker then
	// dispatches the second job), short enough to drain.
	draining := simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 20_000, Seed: 81}
	running, _ := submit(t, ts, jobapi.SubmitRequest{Spec: draining}, "")
	pollUntil(t, ts, running.ID, func(v jobapi.JobView) bool { return v.Status != jobapi.StatusQueued })
	queued, _ := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(82)}, "")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if v := getJob(t, ts, running.ID); v.Status != jobapi.StatusDone {
		t.Fatalf("running job ended %s, want done", v.Status)
	}
	if v := getJob(t, ts, queued.ID); v.Status != jobapi.StatusCancelled {
		t.Fatalf("queued job ended %s, want cancelled", v.Status)
	}
	// Draining refuses new work and reports unready.
	_, resp := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(83)}, "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submit: status %d, want 503", resp.StatusCode)
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", rz.StatusCode)
	}
}

// A shutdown deadline cancels still-running jobs at their next
// checkpoint rather than hanging forever.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	s := New(Options{Engine: runner.New(runner.Options{Workers: 1})})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	long, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(91)}, "")
	pollUntil(t, ts, long.ID, func(v jobapi.JobView) bool { return v.Status == jobapi.StatusRunning })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil despite a running long job")
	}
	if v := getJob(t, ts, long.ID); v.Status != jobapi.StatusCancelled {
		t.Fatalf("long job ended %s, want cancelled", v.Status)
	}
}

// The SSE stream delivers progress and ends with the terminal status
// carrying the result.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Options{ProgressInterval: 20 * time.Millisecond})
	v, _ := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(101)}, "")
	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	var lastData string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if len(events) == 0 || events[len(events)-1] != "status" {
		t.Fatalf("events = %v, want trailing status", events)
	}
	var final jobapi.JobView
	if err := json.Unmarshal([]byte(lastData), &final); err != nil {
		t.Fatalf("final event data: %v\n%s", err, lastData)
	}
	if final.Status != jobapi.StatusDone || final.Result == nil {
		t.Fatalf("final event = %+v", final)
	}
}

// /metrics exposes queue gauges, outcome counters, engine accounting,
// and the latency histogram.
func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	v, _ := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(111)}, "?wait=1")
	if v.Status != jobapi.StatusDone {
		t.Fatalf("job ended %s", v.Status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := fmt.Fprint(&b, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"delrepd_jobs_queued 0",
		"delrepd_jobs_running 0",
		`delrepd_jobs_total{status="done"} 1`,
		`delrepd_engine_runs_total{source="executed"} 1`,
		"delrepd_job_seconds_count 1",
		"delrepd_cache_hit_ratio 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// The canonical spec is echoed back: submitting an alias-token spec
// returns the canonical form, and the result identity is preserved.
func TestCanonicalSpecEcho(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	v, _ := submit(t, ts, jobapi.SubmitRequest{
		Spec: simspec.Spec{GPU: "HS", CPU: "vips", Scheme: "DelegatedReplies",
			Warmup: 200, Cycles: 2000, Seed: 121},
	}, "?wait=1")
	if v.Status != jobapi.StatusDone {
		t.Fatalf("job ended %s (%s)", v.Status, v.Error)
	}
	if v.Spec.Scheme != "delegated" {
		t.Fatalf("echoed scheme = %q, want canonical", v.Spec.Scheme)
	}
	if !reflect.DeepEqual(v.Result.Spec, v.Spec) {
		t.Fatalf("result spec %+v != job spec %+v", v.Result.Spec, v.Spec)
	}
	if len(v.Result.Digest) != 16 {
		t.Fatalf("digest = %q", v.Result.Digest)
	}
}
