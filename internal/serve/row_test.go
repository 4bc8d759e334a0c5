package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/simspec"
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

// fillNames fills a server's name table, so that every later client
// name and worker URL stays literal.
func fillNames(s *Server) {
	for i := range maxRowNames {
		s.names.intern(fmt.Sprintf("filler %d", i))
	}
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

// A row codes its status, priority and source as bytes, its spec_key
// as 6 bytes, its client and worker as name table ids (or literally,
// past the table's bound) and its times as offsets: every terminal path
// renders the fields and root trace attrs it rendered as strings.
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
	s, ts := daemon()
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

	fillNames(s)
	v, _ = submit(t, ts, jobapi.SubmitRequest{Spec: spec, Client: "late <&>"}, "?wait=1")
	jobs = append(jobs, job{"client past the name table", ts, v.ID, spec, jobapi.StatusDone, "executed", "", "", "late <&>", "normal"})

	// Failed with an error.
	_, nan := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1, Remote: nanResolver{}})})
	v, _ = submit(t, nan, jobapi.SubmitRequest{Spec: shortSpec(2704)}, "?wait=1")
	jobs = append(jobs, job{"failed", nan, v.ID, shortSpec(2704), jobapi.StatusFailed, "", "json: unsupported value: NaN", "", "", "normal"})

	// Coordinator jobs whose worker moved on failover, to a worker in
	// the name table and to one past it.
	coordinator := func(x failover) (*Server, *httptest.Server) {
		c := NewServer(x, "f", "delrepfleet", nil, 0)
		ts := httptest.NewServer(c.Handler())
		t.Cleanup(ts.Close)
		return c, ts
	}
	_, fleet := coordinator(failover{"http://w1:8081", "http://w2:8081"})
	v, _ = submit(t, fleet, jobapi.SubmitRequest{Spec: shortSpec(2705), Client: "carol"}, "?wait=1")
	jobs = append(jobs, job{"coordinator failover", fleet, v.ID, shortSpec(2705), jobapi.StatusDone, "disk", "", "http://w2:8081", "carol", "normal"})
	c, fleet2 := coordinator(failover{"http://w1:8081", "http://w3:8081/<&>"})
	c.names.intern("http://w1:8081")
	fillNames(c)
	v, _ = submit(t, fleet2, jobapi.SubmitRequest{Spec: shortSpec(2705)}, "?wait=1")
	jobs = append(jobs, job{"coordinator failover past the name table", fleet2, v.ID, shortSpec(2705), jobapi.StatusDone, "disk", "", "http://w3:8081/<&>", "", "normal"})

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
