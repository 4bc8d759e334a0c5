package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"delrep/internal/runner"
	"delrep/internal/telemetry"
)

// Telemetry is inert: the result a client reads from a traced job is
// byte-identical to the result of the same spec served with telemetry
// off. The span layer records wall-clock times, which must never leak
// into the simulation or its digest.
func TestTelemetryInertness(t *testing.T) {
	spec := shortSpec(201)

	_, plain := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 2})})
	_, traced := newTestServer(t, Options{
		Engine:    runner.New(runner.Options{Workers: 2}),
		Telemetry: true,
	})

	vp, _ := submit(t, plain, SubmitRequest{Spec: spec}, "?wait=1")
	vt, _ := submit(t, traced, SubmitRequest{Spec: spec}, "?wait=1")
	if vp.Status != StatusDone || vt.Status != StatusDone {
		t.Fatalf("jobs ended %s / %s", vp.Status, vt.Status)
	}
	if vp.Result == nil || vt.Result == nil {
		t.Fatal("missing results")
	}
	pj, err := json.Marshal(*vp.Result)
	if err != nil {
		t.Fatal(err)
	}
	tj, err := json.Marshal(*vt.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, tj) {
		t.Fatalf("telemetry changed the served result:\n  plain:  %s\n  traced: %s", pj, tj)
	}
	if vp.Result.Digest != vt.Result.Digest {
		t.Fatalf("digest differs: %s vs %s", vp.Result.Digest, vt.Result.Digest)
	}
}

// End-to-end telemetry walk for one job: submit, read the span tree,
// export the Chrome timeline, and find the same job on /debug/jobs and
// on the status page.
func TestTelemetryEndToEnd(t *testing.T) {
	cache, err := runner.OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{
		Engine:    runner.New(runner.Options{Workers: 2, Cache: cache}),
		Telemetry: true,
	})

	v, vresp := submit(t, ts, SubmitRequest{Spec: shortSpec(211), Client: "tracer"}, "?wait=1")
	if vresp.StatusCode != http.StatusOK || v.Status != StatusDone {
		t.Fatalf("submit: status %d, job %s (%s)", vresp.StatusCode, v.Status, v.Error)
	}

	// The span tree covers the full lifecycle.
	tresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", tresp.StatusCode)
	}
	var root telemetry.SpanView
	if err := json.NewDecoder(tresp.Body).Decode(&root); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"http.receive", "admission", "queue.wait", "runner.submit",
		"cache.lookup", "engine.run", "window 0", "encode", "reply",
	} {
		if _, ok := root.Find(name); !ok {
			t.Errorf("span %q missing from trace:\n%+v", name, root)
		}
	}
	if root.Open {
		t.Error("terminal job's root span is still open")
	}
	if got := root.Attrs["outcome"]; got != "done" {
		t.Errorf("root outcome attr = %v, want done", got)
	}
	sub, _ := root.Find("runner.submit")
	if _, ok := sub.Find("engine.run"); !ok {
		t.Error("engine.run is not nested under runner.submit")
	}

	// The default export is a Chrome trace-event document.
	cresp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			names[ev.Name] = true
		}
	}
	if !names["job"] || !names["engine.run"] {
		t.Fatalf("chrome export misses spans, got %v", names)
	}

	// /debug/jobs lists the finished job, span tree included.
	listed := getDebugJobs(t, ts)
	if listed.Total != 1 || listed.Capacity != 128 || len(listed.Jobs) != 1 {
		t.Fatalf("/debug/jobs = %+v, want the one finished job", listed)
	}
	rec := listed.Jobs[0]
	if rec.ID != v.ID || rec.Client != "tracer" || rec.Outcome != "done" {
		t.Fatalf("/debug/jobs record = %+v, want job %s by tracer", rec, v.ID)
	}
	if rec.SpecKey == "" || rec.TotalUS <= 0 {
		t.Fatalf("/debug/jobs record lacks spec key or timing: %+v", rec)
	}
	if _, ok := rec.Trace.Find("queue.wait"); !ok {
		t.Fatalf("/debug/jobs record trace misses queue.wait: %+v", rec.Trace)
	}

	// The HTML status page lists the job.
	sresp, err := http.Get(ts.URL + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, sresp)
	sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK || !strings.Contains(page, v.ID) {
		t.Fatalf("/debug/status (status %d) does not list %s:\n%s", sresp.StatusCode, v.ID, page)
	}

	// A job cancelled while queued is listed too, newest first.
	gate, _ := submit(t, ts, SubmitRequest{Spec: longSpec(212)}, "")
	pollUntil(t, ts, gate.ID, func(v JobView) bool { return v.Status == StatusRunning })
	gate2, _ := submit(t, ts, SubmitRequest{Spec: longSpec(213)}, "")
	pollUntil(t, ts, gate2.ID, func(v JobView) bool { return v.Status == StatusRunning })
	queued, _ := submit(t, ts, SubmitRequest{Spec: longSpec(214)}, "")
	cancelJob(t, ts, queued.ID)
	if listed := getDebugJobs(t, ts); len(listed.Jobs) != 2 || listed.Jobs[0].ID != queued.ID || listed.Jobs[0].Outcome != "cancelled" {
		t.Fatalf("/debug/jobs = %+v, want the queued-cancelled job %s first", listed, queued.ID)
	}
	cancelJob(t, ts, gate.ID)
	cancelJob(t, ts, gate2.ID)
}

// With telemetry off, the trace and /debug/jobs endpoints answer 404
// and jobs run untraced.
func TestTelemetryDisabledEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	v, _ := submit(t, ts, SubmitRequest{Spec: shortSpec(221)}, "?wait=1")
	if v.Status != StatusDone {
		t.Fatalf("job ended %s", v.Status)
	}
	for _, path := range []string{"/v1/jobs/" + v.ID + "/trace", "/debug/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	// The status page still lists the job: it reads the job table.
	resp, err := http.Get(ts.URL + "/debug/status")
	if err != nil {
		t.Fatal(err)
	}
	page := readAll(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(page, v.ID) {
		t.Errorf("/debug/status (status %d) does not list %s:\n%s", resp.StatusCode, v.ID, page)
	}
}

// getDebugJobs decodes GET /debug/jobs.
func getDebugJobs(t *testing.T, ts *httptest.Server) (listed struct {
	Total    int64       `json:"total"`
	Capacity int         `json:"capacity"`
	Jobs     []JobRecord `json:"jobs"`
}) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	return listed
}

// The new metric families appear once jobs have flowed through.
func TestMetricsTelemetrySeries(t *testing.T) {
	_, ts := newTestServer(t, Options{Telemetry: true})
	if v, _ := submit(t, ts, SubmitRequest{Spec: shortSpec(231), Priority: "high"}, "?wait=1"); v.Status != StatusDone {
		t.Fatalf("job ended %s", v.Status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, resp)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE delrepd_job_queue_seconds histogram",
		`delrepd_job_queue_seconds_count{priority="high"} 1`,
		`delrepd_job_exec_seconds_count{priority="high"} 1`,
		`delrepd_job_total_seconds_count{priority="high"} 1`,
		`delrepd_job_total_seconds_count{priority="normal"} 0`,
		`delrepd_rejects_total{reason="draining"} 0`,
		`delrepd_disk_cache_total{result="hit"} 0`,
		"delrepd_sse_subscribers 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// sseEvents collects one SSE stream: event names in order plus the
// decoded last status payload.
func sseEvents(t *testing.T, resp *http.Response) (names []string, last JobView) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	var lastData string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			names = append(names, strings.TrimPrefix(line, "event: "))
		}
		if strings.HasPrefix(line, "data: ") {
			lastData = strings.TrimPrefix(line, "data: ")
		}
	}
	if lastData != "" {
		_ = json.Unmarshal([]byte(lastData), &last)
	}
	return names, last
}

// Cancelling a running job still delivers the terminal status event to
// its SSE subscribers, and the stream then ends.
func TestEventsCancelTerminalDelivery(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Engine:           runner.New(runner.Options{Workers: 1}),
		ProgressInterval: 20 * time.Millisecond,
	})
	v, _ := submit(t, ts, SubmitRequest{Spec: longSpec(241)}, "")
	pollUntil(t, ts, v.ID, func(v JobView) bool { return v.Status == StatusRunning })

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan struct{})
	var names []string
	var final JobView
	go func() {
		defer close(done)
		names, final = sseEvents(t, resp)
	}()

	// Let at least one progress tick land before cancelling.
	time.Sleep(60 * time.Millisecond)
	if c := cancelJob(t, ts, v.ID); c.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", c.StatusCode)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SSE stream did not end after cancellation")
	}
	if len(names) == 0 || names[len(names)-1] != "status" {
		t.Fatalf("events = %v, want trailing status", names)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("final SSE status = %s, want cancelled", final.Status)
	}
	// status events never arrive after the terminal one ended the
	// stream; progress events never follow the last status.
	for i, n := range names[:len(names)-1] {
		if n != "status" && n != "progress" {
			t.Fatalf("unexpected event %q at %d in %v", n, i, names)
		}
	}
}

// A subscriber that disconnects mid-stream releases its subscription
// (the gauge drains to zero) without disturbing the job.
func TestEventsClientDisconnect(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Engine:           runner.New(runner.Options{Workers: 1}),
		ProgressInterval: 10 * time.Millisecond,
	})
	v, _ := submit(t, ts, SubmitRequest{Spec: longSpec(251)}, "")
	pollUntil(t, ts, v.ID, func(v JobView) bool { return v.Status == StatusRunning })

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The subscription registers...
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.mu.Lock()
		n := s.sseSubs
		s.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sse subscriber gauge = %d, want 1", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// ...and a dropped connection releases it.
	cancel()
	for {
		s.mu.Lock()
		n := s.sseSubs
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sse subscriber gauge = %d after disconnect, want 0", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The job is untouched by its watcher vanishing.
	if got := getJob(t, ts, v.ID); got.Status != StatusRunning {
		t.Fatalf("job status after subscriber disconnect = %s, want running", got.Status)
	}
	cancelJob(t, ts, v.ID)
}

// traceTree reads a job's span tree.
func traceTree(t *testing.T, ts *httptest.Server, id string) telemetry.SpanView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace?format=tree")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tree telemetry.SpanView
	if err := json.NewDecoder(resp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// A job's trace is read live, never frozen when the job finishes: job A
// starts a future, job B joins it while it runs, A is cancelled and B
// carries the future to completion. The simulation ran under A's
// runner.submit (the future records into the span of the job that
// started it), so A's trace, read once both jobs are terminal, holds its
// engine.run, closed, with its windows. The DELETE cancels A's context
// only: A's worker still waits on the future B keeps alive.
func TestTerminalTraceStillRecords(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 2}), Telemetry: true})
	spec := shortSpec(271)
	spec.Cycles = 40_000
	has := func(id, span string) func(JobView) bool {
		return func(JobView) bool {
			_, ok := traceTree(t, ts, id).Find(span)
			return ok
		}
	}
	a, _ := submit(t, ts, SubmitRequest{Spec: spec, Client: "a"}, "")
	pollUntil(t, ts, a.ID, has(a.ID, "engine.run"))
	b, _ := submit(t, ts, SubmitRequest{Spec: spec, Client: "b"}, "")
	pollUntil(t, ts, b.ID, has(b.ID, "dedup.join"))
	if join, _ := traceTree(t, ts, b.ID).Find("dedup.join"); !join.Open {
		t.Fatal("job B joined a future that had already completed")
	}
	cancelJob(t, ts, a.ID)

	terminal := func(v JobView) bool { return v.Status.Terminal() }
	if v := pollUntil(t, ts, b.ID, terminal); v.Status != StatusDone {
		t.Fatalf("job B ended %s (%s), want done", v.Status, v.Error)
	}
	pollUntil(t, ts, a.ID, terminal)
	tree := traceTree(t, ts, a.ID)
	sub, _ := tree.Find("runner.submit")
	eng, ok := sub.Find("engine.run")
	if !ok || eng.Open || len(eng.Children) == 0 || tree.Open {
		t.Fatalf("job A's trace: engine.run found %v, open %v, %d windows; root open %v; want a closed engine.run with windows under a closed root:\n%+v",
			ok, eng.Open, len(eng.Children), tree.Open, tree)
	}
}
