package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"delrep/internal/core"
	"delrep/internal/jobapi"
	"delrep/internal/runner"
)

// encoded is a view as writeJSON's encoder renders it, result included:
// what every job view reply was before the result was rendered once.
func encoded(t *testing.T, v jobapi.JobView) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The one view writer renders every kind of job view byte for byte as
// the encoder does, HTML escaping included, whether its result is the
// future's shared one or the job's own.
func TestViewWriterMatchesEncoder(t *testing.T) {
	cfg, norm, err := shortSpec(291).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	fut := runner.New(runner.Options{Workers: 1}).Submit(runner.Spec{Cfg: cfg, GPU: norm.GPU, CPU: norm.CPU})
	run := fut.Wait()
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	held, err := sharedResult(fut, norm, run)
	if err != nil {
		t.Fatal(err)
	}
	other := norm
	other.Scheme = "rp"
	own, err := sharedResult(fut, other, run)
	if err != nil || own == held {
		t.Fatalf("the differing spec's result is shared (%v)", err)
	}

	created := time.Date(2026, 10, 15, 12, 0, 0, 123456789, time.UTC)
	started, finished := time.Millisecond, time.Second
	cases := []struct {
		name   string
		status jobapi.Status
		row    jobRow
		source string
		err    string
	}{
		{"done cold", jobapi.StatusDone, jobRow{started: started, finished: finished, result: held}, "executed", ""},
		{"done hot", jobapi.StatusDone, jobRow{started: finished, finished: finished, result: held}, "memo", ""},
		{"done, result not shared", jobapi.StatusDone, jobRow{started: started, finished: finished, spec: &other, result: own}, "memo", ""},
		{"failed", jobapi.StatusFailed, jobRow{started: started, finished: finished}, "", "json: unsupported value: NaN <&>"},
		{"cancelled", jobapi.StatusCancelled, jobRow{finished: finished}, "", "cancelled before start"},
		{"queued", jobapi.StatusQueued, jobRow{}, "", ""},
		{"running", jobapi.StatusRunning, jobRow{started: started, live: &Job{progress: func() (int64, int64) { return 700, 2200 }}}, "", ""},
	}
	client := "x<&>"
	for _, c := range cases {
		for _, worker := range []string{"", "http://127.0.0.1:8081/x<&>"} {
			row := c.row
			row.prio, row.created = PrioHigh, created
			row.setStatus(c.status)
			row.client, row.out = &client, &rowOutcome{worker: worker, source: c.source, err: c.err}
			if row.spec == nil {
				row.spec = &norm
			}
			v, res := row.viewLocked("j000042")
			rec := httptest.NewRecorder()
			writeView(rec, http.StatusOK, v, res)
			if got, want := rec.Body.Bytes(), encoded(t, v); !bytes.Equal(got, want) {
				t.Errorf("%s, worker %q: the view writer differs from the encoder:\n got: %s\nwant: %s", c.name, worker, got, want)
			}
		}
	}
}

// nanResolver answers every run with a result the encoder refuses.
type nanResolver struct{}

func (nanResolver) Resolve(context.Context, runner.Spec) (runner.Remote, error) {
	return runner.Remote{Results: core.Results{Cycles: 1, GPUIPC: math.NaN()}, Source: runner.SourceExecuted}, nil
}

// A result that cannot be rendered fails its job with the encoder's
// error, on every submit of it: the future keeps nothing to share.
func TestUnrenderableResultFailsTheJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Engine: runner.New(runner.Options{Workers: 1, Remote: nanResolver{}})})
	const want = "json: unsupported value: NaN"
	for i := 0; i < 2; i++ {
		v, resp := submit(t, ts, jobapi.SubmitRequest{Spec: shortSpec(292)}, "?wait=1")
		if resp.StatusCode != http.StatusOK || v.Status != jobapi.StatusFailed || v.Error != want || v.Result != nil {
			t.Fatalf("submit %d: status %d, job %s (%q), result %v; want 200, failed with %q", i, resp.StatusCode, v.Status, v.Error, v.Result, want)
		}
		if got := getJob(t, ts, v.ID); got.Status != jobapi.StatusFailed || got.Error != want {
			t.Errorf("GET of job %s: %s (%q), want failed with %q", v.ID, got.Status, got.Error, want)
		}
	}
}

// hotSubmitter starts a daemon and returns one in-process POST ?wait=1
// through its handler, always of the same spec. Its first call, made
// here, is the one cold run; every later one is a memo hit.
func hotSubmitter(tb testing.TB, seed int64) (*Server, func()) {
	tb.Helper()
	s, _ := newTestServer(tb, Options{Engine: runner.New(runner.Options{Workers: 2})})
	body, err := json.Marshal(jobapi.SubmitRequest{Spec: shortSpec(seed), Client: "hot"})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	submit := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("submit: status %d: %s", rec.Code, rec.Body)
		}
	}
	submit()
	return s, submit
}

// A hot submit renders only its per-job fields and its trace: what it
// allocates, all goroutines together, stays within budget.
func TestHotSubmitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates every allocation")
	}
	const submits, budget = 3000, 23500
	_, submit := hotSubmitter(t, 293)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < submits; i++ {
		submit()
	}
	runtime.ReadMemStats(&after)
	perSubmit := (after.TotalAlloc - before.TotalAlloc) / submits
	t.Logf("%d B, %d allocations per hot submit", perSubmit, (after.Mallocs-before.Mallocs)/submits)
	if perSubmit > budget {
		t.Errorf("a hot submit allocates %d B, budget %d B", perSubmit, budget)
	}
}

// BenchmarkHotSubmit is one hot ?wait=1 submit through the daemon's
// handler: the serve layer's time, B/op and allocs/op.
func BenchmarkHotSubmit(b *testing.B) {
	_, submit := hotSubmitter(b, 294)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
}
