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
	"delrep/internal/runner"
)

// encoded is a view as writeJSON's encoder renders it, result included:
// what every job view reply was before the result was rendered once.
func encoded(t *testing.T, v JobView) []byte {
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
	started, finished := created.Add(time.Millisecond), created.Add(time.Second)
	cases := []struct {
		name string
		row  jobRow
	}{
		{"done cold", jobRow{status: StatusDone, started: started, finished: finished, source: "executed", result: held}},
		{"done hot", jobRow{status: StatusDone, started: finished, finished: finished, source: "memo", result: held}},
		{"done, result not shared", jobRow{status: StatusDone, started: started, finished: finished, spec: &other, source: "memo", result: own}},
		{"failed", jobRow{status: StatusFailed, started: started, finished: finished, err: "json: unsupported value: NaN <&>"}},
		{"cancelled", jobRow{status: StatusCancelled, finished: finished, err: "cancelled before start"}},
		{"queued", jobRow{status: StatusQueued}},
		{"running", jobRow{status: StatusRunning, started: started, live: &Job{progress: func() (int64, int64) { return 700, 2200 }}}},
	}
	for _, c := range cases {
		for _, worker := range []string{"", "http://127.0.0.1:8081/x<&>"} {
			row := c.row
			row.client, row.prio, row.created, row.worker = "x<&>", PrioHigh, created, worker
			if row.spec == nil {
				row.spec = &norm
			}
			v := row.viewLocked("j000042")
			rec := httptest.NewRecorder()
			writeView(rec, http.StatusOK, v)
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
		v, resp := submit(t, ts, SubmitRequest{Spec: shortSpec(292)}, "?wait=1")
		if resp.StatusCode != http.StatusOK || v.Status != StatusFailed || v.Error != want || v.Result != nil {
			t.Fatalf("submit %d: status %d, job %s (%q), result %v; want 200, failed with %q", i, resp.StatusCode, v.Status, v.Error, v.Result, want)
		}
		if got := getJob(t, ts, v.ID); got.Status != StatusFailed || got.Error != want {
			t.Errorf("GET of job %s: %s (%q), want failed with %q", v.ID, got.Status, got.Error, want)
		}
	}
}

// hotSubmitter starts a daemon and returns one in-process POST ?wait=1
// through its handler, always of the same spec. Its first call, made
// here, is the one cold run; every later one is a memo hit.
func hotSubmitter(tb testing.TB, telemetryOn bool, seed int64) (*Server, func()) {
	tb.Helper()
	s, _ := newTestServer(tb, Options{Engine: runner.New(runner.Options{Workers: 2}), Telemetry: telemetryOn})
	body, err := json.Marshal(SubmitRequest{Spec: shortSpec(seed), Client: "hot"})
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

// A hot submit renders only its per-job fields: what it allocates, all
// goroutines together, stays within budget with telemetry on (the
// daemon's default). Off is reported alongside.
func TestHotSubmitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates every allocation")
	}
	const submits, budget = 3000, 30000
	for _, telemetryOn := range []bool{true, false} {
		_, submit := hotSubmitter(t, telemetryOn, 293)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < submits; i++ {
			submit()
		}
		runtime.ReadMemStats(&after)
		perSubmit := (after.TotalAlloc - before.TotalAlloc) / submits
		t.Logf("telemetry %v: %d B, %d allocations per hot submit", telemetryOn, perSubmit, (after.Mallocs-before.Mallocs)/submits)
		if telemetryOn && perSubmit > budget {
			t.Errorf("a hot submit with telemetry on allocates %d B, budget %d B", perSubmit, budget)
		}
	}
}

// BenchmarkHotSubmit is one hot ?wait=1 submit through the daemon's
// handler, telemetry on: the serve layer's time, B/op and allocs/op.
func BenchmarkHotSubmit(b *testing.B) {
	_, submit := hotSubmitter(b, true, 294)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
}
