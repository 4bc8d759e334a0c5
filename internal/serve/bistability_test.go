package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/simspec"
)

// These tests pin the admission loop against batching bistability: a
// closed-loop system whose backoff feedback latches can fall into a
// stable low-throughput mode where clients back off together, the
// queue drains, workers idle, and the (stale, inflated) retry estimate
// keeps arrivals depressed — even though the high-throughput mode at
// the same offered load is also stable. The guard here is that
// Retry-After is computed from the *live* backlog (mean job latency ×
// (queued+1) / workers, clamped to [1, 600]), so the estimate shrinks
// as the queue drains and the feedback is proportional rather than
// latching. See DESIGN.md §12.

// The estimator must track the live backlog proportionally and clamp.
func TestRetryAfterTracksBacklog(t *testing.T) {
	srv := New(Options{Engine: runner.New(runner.Options{Workers: 2})})
	defer srv.Shutdown(t.Context())
	s := srv.exec.(*local)

	// No completed jobs yet: the estimate is the 1-second floor, not a
	// guess that could latch high.
	srv.mu.Lock()
	if got := s.retryAfterLocked(); got != 1 {
		t.Errorf("empty history: Retry-After = %d, want 1", got)
	}

	// Seed a known mean latency (4s) and grow the backlog: the estimate
	// must scale linearly with it — ceil(4 * (queued+1) / 2 workers).
	s.latency.Add(4)
	for _, tc := range []struct{ queued, want int }{
		{0, 2}, {1, 4}, {3, 8}, {9, 20},
	} {
		s.queuedCount = tc.queued
		if got := s.retryAfterLocked(); got != tc.want {
			t.Errorf("queued=%d: Retry-After = %d, want %d", tc.queued, got, tc.want)
		}
	}

	// And critically for recovery from a burst: when the queue drains,
	// the estimate falls back down instead of remembering the spike.
	s.queuedCount = 0
	if got := s.retryAfterLocked(); got != 2 {
		t.Errorf("drained queue: Retry-After = %d, want 2 (no latching)", got)
	}

	// The clamp bounds a pathological backlog estimate.
	s.queuedCount = 100_000
	if got := s.retryAfterLocked(); got != 600 {
		t.Errorf("huge backlog: Retry-After = %d, want the 600 clamp", got)
	}
	s.queuedCount = 0
	srv.mu.Unlock()
}

// Closed-loop regression: more clients than queue+worker slots, held
// near the knee for a couple of seconds. The system must keep serving
// at a healthy rate (no collapse into the bistable low mode) and the
// Retry-After estimates handed to rejected clients must stay on the
// order of a real job latency, not inflate and latch.
func TestNoBistableCollapseNearKnee(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop load test")
	}
	const (
		workers    = 2
		queueDepth = 2
		clients    = 8
		runFor     = 2500 * time.Millisecond
	)
	_, ts := newTestServer(t, Options{
		Engine:     runner.New(runner.Options{Workers: workers}),
		QueueDepth: queueDepth,
	})

	var (
		done         atomic.Int64 // jobs completed
		rejected     atomic.Int64 // 429 responses observed
		maxRetry     atomic.Int64 // largest Retry-After seen
		slowest      atomic.Int64 // longest started→finished of a completed job, ns
		lateDone     atomic.Int64 // completions in the second half
		halfway      = time.Now().Add(runFor / 2)
		deadline     = time.Now().Add(runFor)
		seed         atomic.Int64
		wg           sync.WaitGroup
		clientErr    error
		clientErrMu  sync.Mutex
		recordedBody = func(err error) {
			clientErrMu.Lock()
			if clientErr == nil {
				clientErr = err
			}
			clientErrMu.Unlock()
		}
	)
	seed.Store(700)

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := "knee-client-" + strconv.Itoa(c)
			for time.Now().Before(deadline) {
				// Unique seeds defeat memoization: every accepted job is
				// real work, so the loop genuinely loads the workers.
				spec := simspec.Spec{GPU: "HS", CPU: "vips", Warmup: 200, Cycles: 2000,
					Seed: seed.Add(1)}
				body, err := json.Marshal(jobapi.SubmitRequest{Spec: spec, Client: name})
				if err != nil {
					recordedBody(err)
					return
				}
				resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json",
					bytes.NewReader(body))
				if err != nil {
					recordedBody(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var v jobapi.JobView
					err := json.NewDecoder(resp.Body).Decode(&v)
					resp.Body.Close()
					if err != nil {
						recordedBody(err)
						return
					}
					atomicMax(&slowest, int64(jobTime(t, v.Finished).Sub(jobTime(t, v.Started))))
					done.Add(1)
					if time.Now().After(halfway) {
						lateDone.Add(1)
					}
				case http.StatusTooManyRequests:
					rejected.Add(1)
					ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
					resp.Body.Close()
					atomicMax(&maxRetry, int64(ra))
					// Honor the protocol, but cap the nap at the remaining
					// test budget.
					nap := time.Duration(ra) * time.Second
					if rem := time.Until(deadline); nap > rem {
						nap = rem
					}
					time.Sleep(nap)
				default:
					resp.Body.Close()
				}
			}
		}(c)
	}
	wg.Wait()
	if clientErr != nil {
		t.Fatal(clientErr)
	}

	t.Logf("completed=%d rejected=%d maxRetryAfter=%ds lateCompleted=%d",
		done.Load(), rejected.Load(), maxRetry.Load(), lateDone.Load())

	// Near the knee the admission control must have fired at least once
	// — otherwise the test is not exercising the feedback loop at all.
	if rejected.Load() == 0 {
		t.Fatal("no 429s observed: the load never reached the knee")
	}
	// No collapse: completions must continue into the second half at a
	// rate comparable to the first (a latched low mode serves a burst
	// early and then starves). A ratio, not a count: how many jobs fit
	// in the window is the host's speed, which -race divides by ten.
	if lateDone.Load() == 0 {
		t.Error("no completions in the second half: the loop latched into the low mode")
	}
	if 3*lateDone.Load() < done.Load() {
		t.Errorf("%d of %d completions in the second half, want at least a third: throughput collapsed",
			lateDone.Load(), done.Load())
	}
	// The retry estimate must stay on the order of a real job latency:
	// it is mean latency × backlog per worker, the backlog is at most
	// the queue plus the submission, and no mean exceeds the slowest
	// job (sub-second on an idle host: a ceiling of 1–2 s). A latching
	// estimator inflates far beyond this bound under the same load.
	ceiling := int64(math.Ceil(time.Duration(slowest.Load()).Seconds() * (queueDepth + 1) / workers))
	if maxRetry.Load() > max(ceiling, 1) {
		t.Errorf("Retry-After reached %ds, slowest job %v (ceiling %ds): estimator inflated",
			maxRetry.Load(), time.Duration(slowest.Load()), ceiling)
	}
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// jobTime parses a job view timestamp; called from client goroutines,
// so a bad one is an Error, not a Fatal.
func jobTime(t *testing.T, s string) time.Time {
	ts, err := time.Parse(time.RFC3339Nano, s)
	if err != nil {
		t.Errorf("job view timestamp %q: %v", s, err)
	}
	return ts
}
