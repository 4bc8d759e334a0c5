package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/telemetry"
)

// target is one binary's job API under the wire-conformance suite: the
// daemon (serve.New over the local executor) or the coordinator
// (fleet.New over two in-process daemons). The five fields are
// everything the two are allowed to differ by on the shared surface.
type target struct {
	name         string
	idPattern    string   // job ids
	metricPrefix string   // /metrics family prefix
	ranMetric    string   // /metrics sample counting the simulations this target ran, or had a worker run
	spans        []string // span names a done job's trace must contain, besides the shared ones
	start        func(t *testing.T, telemetryOn bool) instance
}

// instance is one started target: its base URL, the Server behind it,
// and stop, which shuts that Server down and then closes every listener
// (and, behind a coordinator, the workers).
type instance struct {
	base string
	api  interface{ Shutdown(context.Context) error }
	stop func()
}

var targets = []target{
	{
		name: "delrepd", idPattern: `^j\d{6}$`, metricPrefix: "delrepd",
		ranMetric: `delrepd_engine_runs_total{source="executed"}`,
		spans:     []string{"queue.wait", "runner.submit", "encode", "reply"},
		start: func(t *testing.T, telemetryOn bool) instance {
			srv := serve.New(serve.Options{
				Engine: runner.New(runner.Options{Workers: 2}), Telemetry: telemetryOn,
				ProgressInterval: 20 * time.Millisecond,
			})
			ts := httptest.NewServer(srv.Handler())
			return instance{ts.URL, srv, func() {
				shutdown(t, srv)
				ts.Close()
			}}
		},
	},
	{
		name: "delrepfleet", idPattern: `^f\d{6}$`, metricPrefix: "delrepfleet",
		ranMetric: "delrepfleet_dispatch_total",
		spans:     []string{"fleet.attempt"},
		start: func(t *testing.T, telemetryOn bool) instance {
			w1, w2 := newWorker(t, t.TempDir()), newWorker(t, t.TempDir())
			coord, ts := newCoordinatorOpts(t, Options{Telemetry: telemetryOn}, w1, w2)
			return instance{ts.URL, coord, func() {
				shutdown(t, coord)
				ts.Close()
				for _, w := range []*testWorker{w1, w2} {
					shutdown(t, w.srv)
					w.ts.Close()
				}
			}}
		},
	},
}

func shutdown(t *testing.T, s interface{ Shutdown(context.Context) error }) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// call performs one request and returns the response with its body
// read. A JSON error envelope's message comes back in errMsg.
func call(t *testing.T, method, url string, body []byte) (resp *http.Response, raw []byte, errMsg string) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if raw, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &env) == nil {
		errMsg = env.Error
	}
	return resp, raw, errMsg
}

func submitBody(t *testing.T, req serve.SubmitRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post submits req (query is "" or "?wait=1") and decodes the job view.
func post(t *testing.T, base, query string, req serve.SubmitRequest) (serve.JobView, *http.Response) {
	t.Helper()
	resp, raw, _ := call(t, http.MethodPost, base+"/v1/jobs"+query, submitBody(t, req))
	var v serve.JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decoding submit response %q: %v", raw, err)
	}
	return v, resp
}

func gauge(t *testing.T, base, name string) string {
	t.Helper()
	_, raw, _ := call(t, http.MethodGet, base+"/metrics", nil)
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, raw)
	return ""
}

// statusEvents reads an SSE stream to its end and returns the event
// names in order plus every "status" payload.
func statusEvents(t *testing.T, body io.Reader) (names []string, views []serve.JobView) {
	t.Helper()
	err := readSSE(body, func(event string, data []byte) bool {
		names = append(names, event)
		if event == "status" {
			var v serve.JobView
			if err := json.Unmarshal(data, &v); err != nil {
				t.Errorf("status event %q: %v", data, err)
			}
			views = append(views, v)
		}
		return true
	})
	if err != nil {
		t.Errorf("reading event stream: %v", err)
	}
	return names, views
}

// The "same API" claim as a test: every case runs, unchanged, against
// the daemon and against the coordinator.
var conformanceCases = []struct {
	name      string
	telemetry bool
	run       func(t *testing.T, tg target, base string)
}{
	{"submit answers 202 with Location and a live view", false, func(t *testing.T, tg target, base string) {
		v, resp := post(t, base, "", serve.SubmitRequest{Spec: foreverSpec(601), Priority: "high", Client: "conf"})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("status %d, want 202", resp.StatusCode)
		}
		if !regexp.MustCompile(tg.idPattern).MatchString(v.ID) {
			t.Errorf("job id %q does not match %s", v.ID, tg.idPattern)
		}
		if got := resp.Header.Get("Location"); got != "/v1/jobs/"+v.ID {
			t.Errorf("Location = %q, want /v1/jobs/%s", got, v.ID)
		}
		if v.Status != serve.StatusQueued && v.Status != serve.StatusRunning {
			t.Errorf("status = %s, want queued or running", v.Status)
		}
		if v.Priority != "high" || v.Client != "conf" || v.Created == "" || v.Result != nil {
			t.Errorf("unexpected accepted view: %+v", v)
		}
		// DELETE converges within its grace: the answer is the terminal view.
		resp, raw, _ := call(t, http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
		var cv serve.JobView
		if err := json.Unmarshal(raw, &cv); err != nil || resp.StatusCode != http.StatusOK || cv.Status != serve.StatusCancelled {
			t.Errorf("cancel: status %d, view %s (%v), want 200 cancelled", resp.StatusCode, raw, err)
		}
	}},
	{"wait answers 200 with the direct run's result bytes", false, func(t *testing.T, tg target, base string) {
		spec := shortSpec(602)
		v, resp := post(t, base, "?wait=1", serve.SubmitRequest{Spec: spec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		if got, want := resultBytes(t, v), directResult(t, spec); !bytes.Equal(got, want) {
			t.Errorf("served result differs from the direct run:\n served: %s\n direct: %s", got, want)
		}
		if v.Started == "" || v.Finished == "" || v.Source != "executed" {
			t.Errorf("terminal view incomplete: %+v", v)
		}
	}},
	{"a spec's \"parallel\" is accepted and ignored: same job, same address, same bytes", false, func(t *testing.T, tg target, base string) {
		plain := shortSpec(613)
		hinted := plain
		hinted.Parallel = 8
		resp, raw, _ := call(t, http.MethodPost, base+"/v1/jobs?wait=1", submitBody(t, serve.SubmitRequest{Spec: hinted}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, body %s; want 200", resp.StatusCode, raw)
		}
		var keys struct {
			Parallel, Workers json.RawMessage
			Spec              struct{ Parallel json.RawMessage }
		}
		if err := json.Unmarshal(raw, &keys); err != nil || keys.Parallel != nil || keys.Workers != nil || keys.Spec.Parallel != nil {
			t.Errorf("job view carries a parallel or workers key (%v):\n%s", err, raw)
		}
		var first serve.JobView
		if err := json.Unmarshal(raw, &first); err != nil {
			t.Fatal(err)
		}
		want := directResult(t, plain)
		if got := resultBytes(t, first); first.Source != "executed" || !bytes.Equal(got, want) {
			t.Errorf("hinted job: source %s, result differs from the unhinted direct run:\n served: %s\n direct: %s", first.Source, got, want)
		}
		// The unhinted spec is the same content address: it does not run again.
		again, _ := post(t, base, "?wait=1", serve.SubmitRequest{Spec: plain})
		if got, ran := resultBytes(t, again), gauge(t, base, tg.ranMetric); !bytes.Equal(got, want) || ran != "1" {
			t.Errorf("unhinted repeat: %s = %s, want 1; result:\n served: %s\n direct: %s", tg.ranMetric, ran, got, want)
		}
	}},
	{"malformed submissions answer 400 in the error envelope", false, func(t *testing.T, tg target, base string) {
		for what, body := range map[string]string{
			"undecodable body":  `{"spec":`,
			"unknown field":     `{"spec":{"gpu":"HS","cpu":"vips"},"bogus":1}`,
			"bad priority":      `{"spec":{"gpu":"HS","cpu":"vips"},"priority":"urgent"}`,
			"unresolvable spec": `{"spec":{"gpu":"no-such-benchmark","cpu":"vips"}}`,
		} {
			resp, raw, msg := call(t, http.MethodPost, base+"/v1/jobs", []byte(body))
			if resp.StatusCode != http.StatusBadRequest || msg == "" {
				t.Errorf("%s: status %d, body %s; want 400 with {\"error\": …}", what, resp.StatusCode, raw)
			}
		}
	}},
	{"unknown ids answer 404 on get, cancel, events and trace", true, func(t *testing.T, tg target, base string) {
		for _, rq := range [][2]string{
			{http.MethodGet, "/v1/jobs/nope"}, {http.MethodDelete, "/v1/jobs/nope"},
			{http.MethodGet, "/v1/jobs/nope/events"}, {http.MethodGet, "/v1/jobs/nope/trace"},
		} {
			resp, raw, msg := call(t, rq[0], base+rq[1], nil)
			if resp.StatusCode != http.StatusNotFound || msg == "" {
				t.Errorf("%s %s: status %d, body %s; want 404 with {\"error\": …}", rq[0], rq[1], resp.StatusCode, raw)
			}
		}
	}},
	{"only a job's canonical id names it: every other spelling answers 404 on get, cancel, events and trace", true, func(t *testing.T, tg target, base string) {
		v, _ := post(t, base, "?wait=1", serve.SubmitRequest{Spec: shortSpec(618)})
		p, other := v.ID[:1], "f" // this binary's id prefix, and the other's
		if p == "f" {
			other = "j"
		}
		if v.ID != p+"000001" {
			t.Fatalf("first job id %q, want %s000001", v.ID, p)
		}
		if resp, raw, _ := call(t, http.MethodGet, base+"/v1/jobs/"+v.ID+"/trace", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("trace of %s: status %d, body %s; want 200", v.ID, resp.StatusCode, raw)
		}
		for _, id := range []string{
			p + "1", p + "0000001", p + "000000", p + "000002", other + "000001", p + "000001x",
		} {
			for _, rq := range [][2]string{
				{http.MethodGet, "/v1/jobs/" + id}, {http.MethodDelete, "/v1/jobs/" + id},
				{http.MethodGet, "/v1/jobs/" + id + "/events"}, {http.MethodGet, "/v1/jobs/" + id + "/trace"},
			} {
				resp, raw, msg := call(t, rq[0], base+rq[1], nil)
				if resp.StatusCode != http.StatusNotFound || msg == "" {
					t.Errorf("%s %s: status %d, body %s; want 404 with {\"error\": …}", rq[0], rq[1], resp.StatusCode, raw)
				}
			}
		}
	}},
	{"cancelling a terminal job answers 409; list omits results", false, func(t *testing.T, tg target, base string) {
		v, _ := post(t, base, "?wait=1", serve.SubmitRequest{Spec: shortSpec(603)})
		resp, raw, _ := call(t, http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
		var cv serve.JobView
		if err := json.Unmarshal(raw, &cv); err != nil || resp.StatusCode != http.StatusConflict || cv.Status != serve.StatusDone {
			t.Errorf("cancel of a done job: status %d, body %s; want 409 with the done view", resp.StatusCode, raw)
		}
		jobs := listJobs(t, base)
		if len(jobs) != 1 || jobs[0].ID != v.ID || jobs[0].Status != serve.StatusDone || jobs[0].Result != nil {
			t.Errorf("list = %+v, want the one done job without its result", jobs)
		}
		if got := getJob(t, base, v.ID); got.Result == nil {
			t.Error("GET of the job lost its result")
		}
	}},
	{"a hot job's ?wait, GET and DELETE-409 bodies are the encoder's rendering of their view", false, func(t *testing.T, tg target, base string) {
		spec := shortSpec(617)
		post(t, base, "?wait=1", serve.SubmitRequest{Spec: spec})
		resp, raw, _ := call(t, http.MethodPost, base+"/v1/jobs?wait=1", submitBody(t, serve.SubmitRequest{Spec: spec, Client: "x<&>"}))
		id := requireEncoded(t, "?wait", resp, raw, http.StatusOK).ID
		resp, raw, _ = call(t, http.MethodGet, base+"/v1/jobs/"+id, nil)
		requireEncoded(t, "GET", resp, raw, http.StatusOK)
		resp, raw, _ = call(t, http.MethodDelete, base+"/v1/jobs/"+id, nil)
		requireEncoded(t, "DELETE", resp, raw, http.StatusConflict)
	}},
	{"events: status first, transitions before the terminal status, then the stream ends", false, func(t *testing.T, tg target, base string) {
		v, _ := post(t, base, "", serve.SubmitRequest{Spec: foreverSpec(604)})
		resp, err := http.Get(base + "/v1/jobs/" + v.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
			t.Fatalf("events: status %d, Content-Type %q", resp.StatusCode, ct)
		}
		type stream struct {
			names []string
			views []serve.JobView
		}
		ended := make(chan stream, 1)
		go func() {
			n, vs := statusEvents(t, resp.Body)
			ended <- stream{n, vs}
		}()

		// A second subscriber that walks away is unregistered.
		ctx, drop := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+v.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp2.Body.Close()
		subs := tg.metricPrefix + "_sse_subscribers"
		waitFor(t, "both subscribers registered", func() bool { return gauge(t, base, subs) == "2" })
		drop()
		waitFor(t, "dropped subscriber unregistered", func() bool { return gauge(t, base, subs) == "1" })

		waitFor(t, "job running", func() bool { return getJob(t, base, v.ID).Status == serve.StatusRunning })
		call(t, http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
		var got stream
		select {
		case got = <-ended:
		case <-time.After(30 * time.Second):
			t.Fatal("stream did not end after the terminal status")
		}
		if len(got.names) == 0 || got.names[0] != "status" || got.names[len(got.names)-1] != "status" {
			t.Fatalf("events = %v, want status first and last", got.names)
		}
		for _, n := range got.names {
			if n != "status" && n != "progress" {
				t.Errorf("unexpected event %q in %v", n, got.names)
			}
		}
		// Exactly one terminal status, at the end: every buffered
		// transition was delivered before it.
		for i, sv := range got.views {
			if last := i == len(got.views)-1; sv.Status.Terminal() != last {
				t.Errorf("status events %d/%d is %s", i+1, len(got.views), sv.Status)
			}
		}
		if final := got.views[len(got.views)-1]; final.Status != serve.StatusCancelled {
			t.Errorf("final status = %s, want cancelled", final.Status)
		}
		waitFor(t, "subscriber gauge back at 0", func() bool { return gauge(t, base, subs) == "0" })
	}},
	{"a dropped ?wait connection cancels its job", false, func(t *testing.T, tg target, base string) {
		ctx, drop := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs?wait=1",
			bytes.NewReader(submitBody(t, serve.SubmitRequest{Spec: foreverSpec(605)})))
		if err != nil {
			t.Fatal(err)
		}
		gone := make(chan struct{})
		go func() {
			defer close(gone)
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		var id string
		waitFor(t, "job running", func() bool {
			for _, j := range listJobs(t, base) {
				id = j.ID
				return j.Status == serve.StatusRunning
			}
			return false
		})
		drop()
		<-gone
		waitFor(t, "job cancelled", func() bool { return getJob(t, base, id).Status == serve.StatusCancelled })
	}},
	{"trace answers 404 with telemetry off", false, func(t *testing.T, tg target, base string) {
		v, _ := post(t, base, "?wait=1", serve.SubmitRequest{Spec: shortSpec(606)})
		for _, path := range []string{"/v1/jobs/" + v.ID + "/trace", "/debug/jobs"} {
			if resp, raw, msg := call(t, http.MethodGet, base+path, nil); resp.StatusCode != http.StatusNotFound || msg == "" {
				t.Errorf("%s: status %d, body %s; want 404 with {\"error\": …}", path, resp.StatusCode, raw)
			}
		}
	}},
	{"trace tree has http.receive, admission and the executor's spans", true, func(t *testing.T, tg target, base string) {
		v, _ := post(t, base, "?wait=1", serve.SubmitRequest{Spec: shortSpec(607)})
		tree, raw := traceTree(t, base, v.ID)
		if tree.Name != "job" || tree.Open {
			t.Errorf("root span %q open=%v, want a closed \"job\"", tree.Name, tree.Open)
		}
		for _, name := range append([]string{"http.receive", "admission"}, tg.spans...) {
			if _, ok := tree.Find(name); !ok {
				t.Errorf("trace has no %q span:\n%s", name, raw)
			}
		}
		_, raw, _ = call(t, http.MethodGet, base+"/v1/jobs/"+v.ID+"/trace", nil)
		var chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &chrome); err != nil || len(chrome.TraceEvents) < 3 {
			t.Errorf("Chrome trace: %d events (%v)", len(chrome.TraceEvents), err)
		}
		_, raw, _ = call(t, http.MethodGet, base+"/debug/jobs", nil)
		var flight struct {
			Total int64             `json:"total"`
			Jobs  []serve.JobRecord `json:"jobs"`
		}
		if err := json.Unmarshal(raw, &flight); err != nil || flight.Total != 1 || len(flight.Jobs) != 1 || flight.Jobs[0].ID != v.ID {
			t.Errorf("/debug/jobs = %s (%v), want the one finished job", raw, err)
		}
	}},
	{"the oldest job keeps its root attrs, equal in the tree, the Chrome trace and /debug/jobs, after 1 000 newer jobs", true, func(t *testing.T, tg target, base string) {
		// The oldest job runs until the newer ones are done, so its end
		// is the newest and /debug/jobs lists it first.
		spec := foreverSpec(615)
		oldest, _ := post(t, base, "", serve.SubmitRequest{Spec: spec, Priority: "low", Client: "oldest"})
		const newer = 1000
		var first serve.JobView
		for i := 0; i < newer; i++ {
			v, resp := post(t, base, "?wait=1", serve.SubmitRequest{Spec: shortSpec(616), Client: "newer"})
			if resp.StatusCode != http.StatusOK || v.Status != serve.StatusDone {
				t.Fatalf("newer job %d: status %d, job %s (%s)", i, resp.StatusCode, v.Status, v.Error)
			}
			if i == 0 {
				first = v
			}
		}
		call(t, http.MethodDelete, base+"/v1/jobs/"+oldest.ID, nil)
		waitFor(t, "the oldest job cancelled", func() bool { return getJob(t, base, oldest.ID).Status == serve.StatusCancelled })
		if got := getJob(t, base, first.ID); !bytes.Equal(resultBytes(t, got), resultBytes(t, first)) {
			t.Errorf("the first newer job's result moved after %d more jobs", newer-1)
		}

		cfg, norm, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]any{
			"job": oldest.ID, "client": "oldest", "priority": "low", "outcome": "cancelled",
			"spec_key": runner.KeyHash(cfg, norm.GPU, norm.CPU),
		}
		rootAttrs := func(attrs map[string]any) map[string]any {
			got := map[string]any{}
			for k := range want {
				got[k] = attrs[k]
			}
			return got
		}
		tree, raw := traceTree(t, base, oldest.ID)
		if got := rootAttrs(tree.Attrs); !reflect.DeepEqual(got, want) {
			t.Errorf("tree root attrs = %v, want %v:\n%s", got, want, raw)
		}
		_, raw, _ = call(t, http.MethodGet, base+"/v1/jobs/"+oldest.ID+"/trace", nil)
		var chrome struct {
			TraceEvents []struct {
				Name  string         `json:"name"`
				Phase string         `json:"ph"`
				Args  map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &chrome); err != nil {
			t.Fatal(err)
		}
		var root map[string]any // the first span event is the root
		for _, ev := range chrome.TraceEvents {
			if ev.Phase == "X" {
				if ev.Name != "job" {
					t.Fatalf("first Chrome span event is %q, want the root \"job\":\n%s", ev.Name, raw)
				}
				root = ev.Args
				break
			}
		}
		if got := rootAttrs(root); !reflect.DeepEqual(got, want) {
			t.Errorf("Chrome root args = %v, want %v", got, want)
		}
		var listed struct {
			Total int               `json:"total"`
			Jobs  []serve.JobRecord `json:"jobs"`
		}
		getJSON(t, base+"/debug/jobs", &listed)
		if listed.Total != newer+1 || len(listed.Jobs) == 0 || listed.Jobs[0].ID != oldest.ID {
			t.Fatalf("/debug/jobs: total %d, %d listed, want %d with %s first", listed.Total, len(listed.Jobs), newer+1, oldest.ID)
		}
		rec := listed.Jobs[0]
		fields := map[string]any{"job": rec.ID, "client": rec.Client, "priority": rec.Priority, "outcome": rec.Outcome, "spec_key": rec.SpecKey}
		if got := rootAttrs(rec.Trace.Attrs); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(fields, want) {
			t.Errorf("/debug/jobs record %v with root attrs %v, want both %v", fields, got, want)
		}
	}},
}

// requireEncoded checks that raw, a done job view answered with status,
// is byte for byte what json.Encoder with the API's indent renders from
// the view it decodes to, and returns that view.
func requireEncoded(t *testing.T, what string, resp *http.Response, raw []byte, status int) serve.JobView {
	t.Helper()
	var v serve.JobView
	if err := json.Unmarshal(raw, &v); err != nil || resp.StatusCode != status || v.Status != serve.StatusDone || v.Result == nil {
		t.Fatalf("%s: status %d, body %s (%v); want %d with a done view", what, resp.StatusCode, raw, err, status)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Errorf("%s body differs from the encoder's rendering of its view:\n got: %s\nwant: %s", what, raw, want.Bytes())
	}
	return v
}

// traceTree reads a job's span tree.
func traceTree(t *testing.T, base, id string) (telemetry.SpanView, []byte) {
	t.Helper()
	_, raw, _ := call(t, http.MethodGet, base+"/v1/jobs/"+id+"/trace?format=tree", nil)
	var tree telemetry.SpanView
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatalf("tree %s: %v", raw, err)
	}
	return tree, raw
}

// A job finishes in one locked step, so the ?wait reply cannot outrun
// any part of it: right after each reply, the job's root span is
// closed with its outcome and /debug/jobs lists the job first. Repeats
// of one spec are the fast path (a memo hit on the daemon, a cache-tier
// revalidation on the coordinator), where a late close would show.
func TestWaitedJobIsClosedAndListed(t *testing.T) {
	const k = 8
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			in := tg.start(t, true)
			defer in.stop()
			for i := 1; i <= k; i++ {
				v, resp := post(t, in.base, "?wait=1", serve.SubmitRequest{Spec: shortSpec(614)})
				if resp.StatusCode != http.StatusOK || v.Status != serve.StatusDone {
					t.Fatalf("job %d: status %d, job %s (%s)", i, resp.StatusCode, v.Status, v.Error)
				}
				if tree, raw := traceTree(t, in.base, v.ID); tree.Open || tree.Attrs["outcome"] != "done" {
					t.Errorf("job %d (%s): root span open=%v outcome=%v, want closed with done:\n%s", i, v.ID, tree.Open, tree.Attrs["outcome"], raw)
				}
				_, raw, _ := call(t, http.MethodGet, in.base+"/debug/jobs", nil)
				var listed struct {
					Total int               `json:"total"`
					Jobs  []serve.JobRecord `json:"jobs"`
				}
				if err := json.Unmarshal(raw, &listed); err != nil || listed.Total != i || len(listed.Jobs) != i || listed.Jobs[0].ID != v.ID {
					t.Errorf("job %d (%s): /debug/jobs = %s (%v), want %d jobs, this one first", i, v.ID, raw, err, i)
				}
			}
		})
	}
}

func TestWireConformance(t *testing.T) {
	for _, tg := range targets {
		for _, c := range conformanceCases {
			t.Run(tg.name+"/"+c.name, func(t *testing.T) {
				in := tg.start(t, c.telemetry)
				defer in.stop()
				c.run(t, tg, in.base)
			})
		}
		t.Run(tg.name+"/after Shutdown: 503s, the reject is counted, no goroutine is left", func(t *testing.T) {
			http.DefaultClient.CloseIdleConnections()
			baseline := runtime.NumGoroutine()
			in := tg.start(t, false)
			defer in.stop()
			post(t, in.base, "?wait=1", serve.SubmitRequest{Spec: shortSpec(608)})

			// The listener outlives the Server's Shutdown, as in the
			// daemons' main: the handler must answer while it drains.
			shutdown(t, in.api)
			resp, raw, msg := call(t, http.MethodPost, in.base+"/v1/jobs", submitBody(t, serve.SubmitRequest{Spec: shortSpec(609)}))
			if resp.StatusCode != http.StatusServiceUnavailable || msg == "" {
				t.Errorf("submit while draining: status %d, body %s; want 503 with {\"error\": …}", resp.StatusCode, raw)
			}
			if resp, raw, _ := call(t, http.MethodGet, in.base+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable || string(raw) != "draining\n" {
				t.Errorf("readyz while draining: status %d, body %q; want 503 draining", resp.StatusCode, raw)
			}
			if got := gauge(t, in.base, tg.metricPrefix+`_rejects_total{reason="draining"}`); got != "1" {
				t.Errorf("%s_rejects_total{reason=\"draining\"} = %s, want 1", tg.metricPrefix, got)
			}

			in.stop()
			waitFor(t, "goroutine count back at its pre-server baseline", func() bool {
				http.DefaultClient.CloseIdleConnections()
				return runtime.NumGoroutine() <= baseline
			})
		})
	}

	// The coordinator's own rows. A repeat is answered from the cache
	// tier, and the wire cannot tell a revalidated answer from a fetched
	// one.
	t.Run("delrepfleet/a repeated spec returns the same result bytes, from disk, from its holder", func(t *testing.T) {
		w1, w2 := newWorker(t, t.TempDir()), newWorker(t, t.TempDir())
		_, ts := newCoordinatorOpts(t, Options{}, w1, w2)
		spec := shortSpec(612)
		ran, _ := post(t, ts.URL, "?wait=1", serve.SubmitRequest{Spec: spec})
		want := directResult(t, spec)
		if ran.Source != "executed" || !bytes.Equal(resultBytes(t, ran), want) {
			t.Fatalf("first run: source %s, result equal to the direct run's: %v", ran.Source, bytes.Equal(resultBytes(t, ran), want))
		}
		// A second coordinator has to fetch what the first revalidates.
		_, ts2 := newCoordinatorOpts(t, Options{}, w1, w2)
		for _, base := range []string{ts.URL, ts.URL, ts2.URL, ts2.URL} {
			v, _ := post(t, base, "?wait=1", serve.SubmitRequest{Spec: spec})
			if v.Source != "disk" || v.Worker != ran.Worker || !bytes.Equal(resultBytes(t, v), want) {
				t.Errorf("repeat: source %s from %q, result equal: %v; want disk from %s, equal",
					v.Source, v.Worker, bytes.Equal(resultBytes(t, v), want), ran.Worker)
			}
		}
	})

	// What the coordinator adds to a trace is where the job went.
	t.Run("delrepfleet/a spilled job's trace names both workers it touched", func(t *testing.T) {
		w1, w2 := newWorker(t, t.TempDir()), newWorker(t, t.TempDir())
		coord, ts := newCoordinatorOpts(t, Options{Telemetry: true}, w1, w2)
		// Three keys with one home: two jobs that never end take its two
		// slots, the third finds it full.
		spilled := shortSpec(610)
		home := homeOf(t, coord, spilled)
		for seed, n := int64(611), 0; n < 2; seed++ {
			if spec := foreverSpec(seed); homeOf(t, coord, spec) == home {
				v, _ := post(t, ts.URL, "", serve.SubmitRequest{Spec: spec})
				defer call(t, http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
				n++
			}
		}
		// Both reservations show on the status surfaces.
		waitFor(t, "the home's two slots reserved", func() bool {
			var fleet struct {
				Workers []WorkerInfo `json:"workers"`
			}
			getJSON(t, ts.URL+"/v1/workers", &fleet)
			for _, wi := range fleet.Workers {
				if wi.URL == home {
					return wi.Outstanding == 2
				}
			}
			return false
		})
		if got := gauge(t, ts.URL, `delrepfleet_worker_outstanding{worker="`+home+`"}`); got != "2" {
			t.Errorf("delrepfleet_worker_outstanding of the full home = %s, want 2", got)
		}

		v, _ := post(t, ts.URL, "?wait=1", serve.SubmitRequest{Spec: spilled})
		if v.Status != serve.StatusDone || v.Worker == home {
			t.Fatalf("job ended %s on %s, want done on the worker that is not its full home %s", v.Status, v.Worker, home)
		}
		tree, raw := traceTree(t, ts.URL, v.ID)
		var got []string
		for _, c := range tree.Children {
			if c.Name == "fleet.attempt" {
				got = append(got, fmt.Sprint(c.Attrs["phase"], " ", c.Attrs["placed"], " ", c.Attrs["worker"]))
			}
		}
		if want := []string{"locate home " + home, "run spill " + v.Worker}; !slices.Equal(got, want) {
			t.Errorf("fleet.attempt spans = %q, want %q:\n%s", got, want, raw)
		}
	})
}
