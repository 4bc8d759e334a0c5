package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unsafe"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
)

// specKeyOf is the spec_key a job of spec shows.
func specKeyOf(t *testing.T, spec simspec.Spec) string {
	t.Helper()
	cfg, norm, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return runner.HashKey(runner.Key(cfg, norm.GPU, norm.CPU))
}

// memoResolver answers every run as a remote end's memo hit.
type memoResolver struct{}

func (memoResolver) Resolve(context.Context, runner.Spec) (runner.Remote, error) {
	return runner.Remote{Results: core.Results{Cycles: 1}, Source: runner.SourceMemo}, nil
}

// failover is an Executor that finishes each job as a coordinator does
// after a failover: running on one worker, then on another, done there.
type failover struct{ from, to string }

func (x failover) Admit(j *Job, _ jobapi.SubmitRequest, _ config.Config, _ string) *Rejection {
	go func() {
		j.Running(x.from)
		j.Running(x.to)
		res, err := NewSharedResult(&simspec.Result{Spec: j.Spec()})
		if err != nil {
			panic(err)
		}
		j.Finish(Outcome{Status: jobapi.StatusDone, Source: "disk", Result: res, Worker: x.to})
	}()
	return nil
}

func (failover) Cancel(*Job)                {}
func (failover) Drain([]*Job)               {}
func (failover) Ready() (bool, string)      { return true, "" }
func (failover) Metrics(b *strings.Builder) {}
func (failover) Routes(*http.ServeMux)      {}

// A row codes its status and priority as bytes, its spec_key as 6
// bytes, its client and outcome as pointers to the server's interned
// copies and its times as offsets: every terminal path renders the
// fields and root trace attrs it rendered as strings.
func TestRowRendering(t *testing.T) {
	type job struct {
		name string
		ts   *httptest.Server
		id   string
		spec simspec.Spec
		// The view's fields.
		status                                jobapi.Status
		source, err, worker, client, priority string
	}
	var jobs []job
	terminal := func(v jobapi.JobView) bool { return v.Status.Terminal() }

	// Done, once per source, and cancelled while running and while
	// queued, on a one-worker daemon with a disk cache.
	dir := t.TempDir()
	daemon := func() (*Server, *httptest.Server) {
		cache, err := runner.OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1, Cache: cache})})
	}
	_, ts := daemon()
	spec := shortSpec(2701)
	v, _ := submit(t, ts, jobapi.SubmitRequest{Spec: spec, Client: "alice", Priority: "high"}, "?wait=1")
	jobs = append(jobs, job{"done, executed", ts, v.ID, spec, jobapi.StatusDone, "executed", "", "", "alice", "high"})
	_, ts2 := daemon()
	v, _ = submit(t, ts2, jobapi.SubmitRequest{Spec: spec, Client: "alice"}, "?wait=1")
	jobs = append(jobs, job{"done, disk", ts2, v.ID, spec, jobapi.StatusDone, "disk", "", "", "alice", "normal"})
	// A memo hit in this engine shares its future's source: memo is what
	// a remote end reports.
	_, memo := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1, Remote: memoResolver{}})})
	v, _ = submit(t, memo, jobapi.SubmitRequest{Spec: spec, Client: "alice"}, "?wait=1")
	jobs = append(jobs, job{"done, memo", memo, v.ID, spec, jobapi.StatusDone, "memo", "", "", "alice", "normal"})

	running, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(2702), Client: "bob", Priority: "low"}, "")
	pollUntil(t, ts, running.ID, func(v jobapi.JobView) bool { return v.Status == jobapi.StatusRunning })
	queued, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(2703), Client: "bob"}, "")
	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, running.ID)
	pollUntil(t, ts, running.ID, terminal)
	jobs = append(jobs,
		job{"cancelled while queued", ts, queued.ID, longSpec(2703), jobapi.StatusCancelled, "", "cancelled before start", "", "bob", "normal"},
		job{"cancelled while running", ts, running.ID, longSpec(2702), jobapi.StatusCancelled, "", "cancelled", "", "bob", "low"})

	// Failed with an error.
	_, nan := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1, Remote: nanResolver{}})})
	v, _ = submit(t, nan, jobapi.SubmitRequest{Spec: shortSpec(2704)}, "?wait=1")
	jobs = append(jobs, job{"failed", nan, v.ID, shortSpec(2704), jobapi.StatusFailed, "", "json: unsupported value: NaN", "", "", "normal"})

	// A coordinator job whose worker moved on failover.
	fleet := httptest.NewServer(NewServer(failover{"http://w1:8081", "http://w2:8081/<&>"}, "f", "delrepfleet", nil, 0).Handler())
	t.Cleanup(fleet.Close)
	v, _ = submit(t, fleet, jobapi.SubmitRequest{Spec: shortSpec(2705), Client: "carol"}, "?wait=1")
	jobs = append(jobs, job{"coordinator failover", fleet, v.ID, shortSpec(2705), jobapi.StatusDone, "disk", "", "http://w2:8081/<&>", "carol", "normal"})

	for _, j := range jobs {
		t.Run(j.name, func(t *testing.T) {
			v := getJob(t, j.ts, j.id)
			got := job{status: v.Status, source: v.Source, err: v.Error, worker: v.Worker, client: v.Client, priority: v.Priority}
			want := job{status: j.status, source: j.source, err: j.err, worker: j.worker, client: j.client, priority: j.priority}
			if got != want {
				t.Errorf("view fields %+v, want %+v", got, want)
			}
			times := []string{v.Created, v.Finished}
			if v.Started != "" {
				times = []string{v.Created, v.Started, v.Finished}
			} else if j.name != "cancelled while queued" {
				t.Errorf("a job that ran shows no started time")
			}
			var last time.Time
			for _, s := range times {
				at, err := time.Parse(time.RFC3339Nano, s)
				if err != nil || at.Before(last) {
					t.Errorf("times %q do not parse in order (%v)", times, err)
				}
				last = at
			}
			tree := traceTree(t, j.ts, j.id)
			if got, want := tree.Attrs["spec_key"], specKeyOf(t, j.spec); got != want {
				t.Errorf("root spec_key %v, want %v", got, want)
			}
			if got := tree.Attrs["outcome"]; got != string(j.status) {
				t.Errorf("root outcome %v, want %v", got, j.status)
			}
			if got := tree.Attrs["client"]; got != j.client {
				t.Errorf("root client %v, want %q", got, j.client)
			}
		})
	}
}

// A job's log lines carry job, client and spec_key ahead of their own
// attrs, byte for byte as a logger built With them writes them, in both
// formats.
func TestJobLogLines(t *testing.T) {
	spec := shortSpec(2711)
	key := specKeyOf(t, spec)
	// Time and duration are the two fields a run cannot pin.
	opts := &slog.HandlerOptions{ReplaceAttr: func(_ []string, a slog.Attr) slog.Attr {
		switch a.Key {
		case slog.TimeKey:
			return slog.Attr{}
		case "seconds":
			return slog.Float64("seconds", 0.5)
		}
		return a
	}}
	for _, format := range []struct {
		name    string
		handler func(*lockedBuffer) slog.Handler
		want    []string
	}{
		{"text", func(b *lockedBuffer) slog.Handler { return slog.NewTextHandler(b, opts) }, []string{
			`level=INFO msg="job accepted" job=j000002 client="hot <&>" spec_key=` + key + ` gpu=HS cpu=vips scheme=baseline priority=normal`,
			`level=INFO msg="job finished" job=j000002 client="hot <&>" spec_key=` + key + ` status=done source=executed error="" worker="" seconds=0.5`,
		}},
		{"json", func(b *lockedBuffer) slog.Handler { return slog.NewJSONHandler(b, opts) }, []string{
			`{"level":"INFO","msg":"job accepted","job":"j000002","client":"hot <&>","spec_key":"` + key + `","gpu":"HS","cpu":"vips","scheme":"baseline","priority":"normal"}`,
			`{"level":"INFO","msg":"job finished","job":"j000002","client":"hot <&>","spec_key":"` + key + `","status":"done","source":"executed","error":"","worker":"","seconds":0.5}`,
		}},
	} {
		t.Run(format.name, func(t *testing.T) {
			var buf lockedBuffer
			_, ts := newTestServer(t, Options{Logger: slog.New(format.handler(&buf))})
			for range 2 { // a cold job, then the hot one the lines are of
				submit(t, ts, jobapi.SubmitRequest{Spec: spec, Client: "hot <&>"}, "?wait=1")
			}
			var got []string
			for _, line := range strings.Split(buf.String(), "\n") {
				if strings.Contains(line, "j000002") {
					got = append(got, line)
				}
			}
			if strings.Join(got, "\n") != strings.Join(format.want, "\n") {
				t.Errorf("the hot job logged\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(format.want, "\n"))
			}
		})
	}
}

// A row is 96 bytes: one more field, or one that breaks the packing of
// the status byte next to the priority, moves every retained job into
// the next size class.
func TestRowSize(t *testing.T) {
	if got := unsafe.Sizeof(jobRow{}); got != 96 {
		t.Errorf("a job row is %d B, want 96", got)
	}
}

// serveLocal answers one in-process request through h.
func serveLocal(t *testing.T, h http.Handler, method, target string, body []byte, v any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("%s %s: %v", method, target, err)
	}
}

// A server interns every client name it admits, however many: a client
// after 4 096 others shows on the job's view, in /v1/jobs, on
// /debug/jobs and in its trace's root attrs like the first one did, and
// the rows of one client share one copy of its name.
func TestManyClients(t *testing.T) {
	const clients = 4200
	s, _ := hotSubmitter(t, 2721)
	h := s.Handler()
	name := func(i int) string { return fmt.Sprintf("client %d <&>", i) }
	ids := map[string]string{} // job id → client
	var first, again string
	for i := range clients + 1 {
		body, err := json.Marshal(jobapi.SubmitRequest{Spec: shortSpec(2721), Client: name(i % clients)})
		if err != nil {
			t.Fatal(err)
		}
		var v jobapi.JobView
		serveLocal(t, h, http.MethodPost, "/v1/jobs?wait=1", body, &v)
		if v.Status != jobapi.StatusDone || v.Client != name(i%clients) {
			t.Fatalf("submit %d answered %s for client %q, want done for %q", i, v.Status, v.Client, name(i%clients))
		}
		ids[v.ID] = v.Client
		first, again = cmp.Or(first, v.ID), v.ID
	}
	for id, client := range ids {
		var v jobapi.JobView
		serveLocal(t, h, http.MethodGet, "/v1/jobs/"+id, nil, &v)
		var tree telemetry.SpanView
		serveLocal(t, h, http.MethodGet, "/v1/jobs/"+id+"/trace?format=tree", nil, &tree)
		if v.Client != client || tree.Attrs["client"] != client {
			t.Fatalf("job %s shows client %q, its trace %v; want %q", id, v.Client, tree.Attrs["client"], client)
		}
	}
	var list struct{ Jobs []jobapi.JobView }
	serveLocal(t, h, http.MethodGet, "/v1/jobs", nil, &list)
	var debug struct{ Jobs []JobRecord }
	serveLocal(t, h, http.MethodGet, "/debug/jobs", nil, &debug)
	if len(list.Jobs) != clients+2 || len(debug.Jobs) != debugJobs {
		t.Fatalf("/v1/jobs lists %d jobs, /debug/jobs %d; want %d and %d", len(list.Jobs), len(debug.Jobs), clients+2, debugJobs)
	}
	for _, v := range list.Jobs {
		if want, ok := ids[v.ID]; ok && v.Client != want {
			t.Errorf("/v1/jobs lists job %s with client %q, want %q", v.ID, v.Client, want)
		}
	}
	for _, r := range debug.Jobs {
		if r.Client != ids[r.ID] || r.Trace.Attrs["client"] != ids[r.ID] {
			t.Errorf("/debug/jobs lists job %s with client %q, trace %v; want %q", r.ID, r.Client, r.Trace.Attrs["client"], ids[r.ID])
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.names) != clients+1 || s.rowLocked(first).client != s.rowLocked(again).client {
		t.Errorf("%d names interned for %d clients; the two jobs of %q share their name: %v",
			len(s.names), clients+1, ids[first], s.rowLocked(first).client == s.rowLocked(again).client)
	}
}

// A refused submission interns nothing, so that refused traffic cannot
// grow the server's tables: not when the queue is full, the client at
// its cap or the server draining. A client at its cap is one already
// admitted; the other refusals come under names never seen before.
func TestRefusedSubmitInternsNothing(t *testing.T) {
	s, ts := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1}), QueueDepth: 1, ClientInFlight: 1})
	running, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(2731), Client: "alice"}, "")
	pollUntil(t, ts, running.ID, func(v jobapi.JobView) bool { return v.Status == jobapi.StatusRunning })
	queued, _ := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(2732), Client: "bob"}, "")
	// tables is how many names and outcomes are interned, and how many
	// submissions were refused for reason.
	tables := func(reason string) [3]int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return [3]int{len(s.names), len(s.outcomes), int(s.rejects[reason])}
	}
	refuse := func(reason string, want int, client string) {
		t.Helper()
		before := tables(reason)
		if _, resp := submit(t, ts, jobapi.SubmitRequest{Spec: longSpec(2733), Client: client}, ""); resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d", reason, resp.StatusCode, want)
		}
		if after := tables(reason); after != [3]int{before[0], before[1], before[2] + 1} {
			t.Errorf("%s: names, outcomes and refusals %v before, %v after", reason, before, after)
		}
	}
	refuse("queue_full", http.StatusTooManyRequests, "carol")
	refuse("client_cap", http.StatusTooManyRequests, "alice")
	cancelJob(t, ts, queued.ID)
	cancelJob(t, ts, running.ID)
	pollUntil(t, ts, running.ID, func(v jobapi.JobView) bool { return v.Status.Terminal() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	refuse("draining", http.StatusServiceUnavailable, "dave")
}
