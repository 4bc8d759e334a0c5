package fleet

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/url"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// fault is one scripted misbehaviour of the network between the
// coordinator and its workers. It applies to the first `times` requests
// (all of them when negative) matching method, host and path (a
// path.Match pattern; "" fields match anything): wait `delay`, then
// either fail like a refused connection (drop), or answer status and
// body without reaching the worker, or let the worker answer and break
// the response body off after cut bytes.
type fault struct {
	method, host, path string
	times              int
	delay              time.Duration
	drop               bool
	status             int
	body               string
	cut                int
}

// faultTransport is the http.RoundTripper the coordinator under test
// talks through.
type faultTransport struct {
	base *http.Transport

	mu     sync.Mutex
	faults []*fault
	seen   []*http.Request
}

func (ft *faultTransport) add(f fault) {
	ft.mu.Lock()
	ft.faults = append(ft.faults, &f)
	ft.mu.Unlock()
}

func matches(method, host, pattern string, r *http.Request) bool {
	ok, _ := path.Match(pattern, r.URL.Path)
	return (method == "" || method == r.Method) && (host == "" || host == r.URL.Host) && (pattern == "" || ok)
}

// count returns how many requests so far match.
func (ft *faultTransport) count(method, pattern string) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	n := 0
	for _, r := range ft.seen {
		if matches(method, "", pattern, r) {
			n++
		}
	}
	return n
}

// validators returns, per cache probe so far, whether it carried
// If-None-Match.
func (ft *faultTransport) validators() []bool {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var out []bool
	for _, r := range ft.seen {
		if matches("GET", "", "/v1/cache/*", r) {
			out = append(out, r.Header.Get("If-None-Match") != "")
		}
	}
	return out
}

func (ft *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ft.mu.Lock()
	ft.seen = append(ft.seen, r)
	var f *fault
	for _, c := range ft.faults {
		if c.times != 0 && matches(c.method, c.host, c.path, r) {
			if f = c; c.times > 0 {
				c.times--
			}
			break
		}
	}
	ft.mu.Unlock()
	if f == nil {
		return ft.base.RoundTrip(r)
	}
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-r.Context().Done():
			return nil, r.Context().Err()
		}
	}
	switch {
	case f.drop:
		return nil, errors.New("fault: connection refused")
	case f.status != 0:
		return &http.Response{
			StatusCode: f.status, Status: strconv.Itoa(f.status) + " " + http.StatusText(f.status),
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Request: r,
			Header: http.Header{}, Body: io.NopCloser(strings.NewReader(f.body)),
		}, nil
	}
	resp, err := ft.base.RoundTrip(r)
	if err == nil && f.cut > 0 {
		resp.Body = &cutBody{ReadCloser: resp.Body, left: f.cut}
	}
	return resp, err
}

// cutBody breaks a response body off after left bytes.
type cutBody struct {
	io.ReadCloser
	left int
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.left == 0 {
		return 0, io.ErrUnexpectedEOF
	}
	n, err := c.ReadCloser.Read(p[:min(len(p), c.left)])
	c.left -= n
	return n, err
}

// faultEnv is one table row's fleet: two real workers behind a
// coordinator whose every request passes through ft.
type faultEnv struct {
	ft          *faultTransport
	coord       *Server
	base        string
	spec        simspec.Spec
	addr        string
	home, other *testWorker // the spec's ring home, and the other worker
	submitted   int         // jobs submitted to the coordinator
}

func (e *faultEnv) host(w *testWorker) string {
	u, _ := url.Parse(w.ts.URL)
	return u.Host
}

func (e *faultEnv) submit(t *testing.T) serve.JobView {
	t.Helper()
	e.submitted++
	return submitWait(t, e.base, e.spec)
}

// corrupt overwrites the spec's entry in w's cache shard with bytes no
// decoder accepts. The entry must be there.
func (e *faultEnv) corrupt(t *testing.T, w *testWorker) {
	t.Helper()
	entry := filepath.Join(w.eng.DiskCache().Dir(), e.addr+".run")
	if _, err := os.Stat(entry); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// unblamed fails the test if any worker was ever marked failed.
func (e *faultEnv) unblamed(t *testing.T) {
	t.Helper()
	for _, wi := range e.coord.Registry().Infos() {
		if wi.Failures != 0 {
			t.Errorf("%s was marked failed: %+v", wi.URL, wi)
		}
	}
}

const failedEvent = "event: status\ndata: {\"id\":\"j000001\",\"status\":\"failed\",\"error\":\"boom\"}\n\n"

// Every way out of dispatch, each through a scripted fault: whatever
// happened on the way, the job ends exactly once with the right answer,
// no reservation is left behind, retries stay bounded and nothing leaks.
var faultCases = []struct {
	name    string
	forever bool                                          // the job runs until cancelled
	arrange func(t *testing.T, e *faultEnv)               // scripts the faults
	drive   func(t *testing.T, e *faultEnv) serve.JobView // nil: submit and wait
	status  serve.Status
	retries int64
	check   func(t *testing.T, e *faultEnv, v serve.JobView)
}{
	{name: "locate error: the home's probe answers 500, the job runs on the other worker",
		arrange: func(t *testing.T, e *faultEnv) {
			e.ft.add(fault{method: "GET", host: e.host(e.home), path: "/v1/cache/*", times: 1, status: 500})
		},
		status: serve.StatusDone, retries: 1,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if v.Worker != e.other.ts.URL {
				t.Errorf("ran on %s, want the worker whose probe did not fail", v.Worker)
			}
		}},
	{name: "locate hit: a slow probe of a warm home is the whole job",
		arrange: func(t *testing.T, e *faultEnv) {
			submitWait(t, e.home.ts.URL, e.spec)
			e.ft.add(fault{method: "GET", path: "/v1/cache/*", times: 1, delay: 30 * time.Millisecond})
		},
		status: serve.StatusDone,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if v.Source != "disk" || v.Worker != e.home.ts.URL || e.coord.nDispatch.Load() != 0 || e.ft.count("GET", "/v1/cache/*") != 1 {
				t.Errorf("source %s from %s after %d dispatches and %d probes, want disk from the home after 0 and 1",
					v.Source, v.Worker, e.coord.nDispatch.Load(), e.ft.count("GET", "/v1/cache/*"))
			}
			e.unblamed(t) // slow is not dead
		}},
	{name: "locate hit: a slow revalidation is the whole job too, and nobody is marked down",
		arrange: func(t *testing.T, e *faultEnv) {
			e.submit(t) // the coordinator learns the result from the worker's terminal view
			e.ft.add(fault{method: "GET", path: "/v1/cache/*", times: 1, delay: 30 * time.Millisecond})
		},
		status: serve.StatusDone,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if v.Source != "disk" || v.Worker != e.home.ts.URL || e.coord.nDispatch.Load() != 1 || !slices.Equal(e.ft.validators(), []bool{false, true}) {
				t.Errorf("source %s from %s after %d dispatches, validators %v; want disk from the home after the first job's 1, its miss unconditional and the repeat conditional",
					v.Source, v.Worker, e.coord.nDispatch.Load(), e.ft.validators())
			}
			e.unblamed(t)
		}},
	{name: "corrupt entry on the holder, unconditional probe: a miss, one result from the placement",
		arrange: func(t *testing.T, e *faultEnv) {
			submitWait(t, e.home.ts.URL, e.spec)
			e.corrupt(t, e.home)
		},
		status: serve.StatusDone,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			// The worker's decode error is its 404; the job then takes a slot.
			if v.Source == "disk" || e.coord.nDispatch.Load() != 1 || e.coord.nProbeHit.Load() != 0 || e.coord.nProbeMiss.Load() != 1 {
				t.Errorf("source %s after %d dispatches, %d probe hits, %d misses; want a run after one miss",
					v.Source, e.coord.nDispatch.Load(), e.coord.nProbeHit.Load(), e.coord.nProbeMiss.Load())
			}
			if got := gauge(t, e.home.ts.URL, `delrepd_disk_cache_total{result="corrupt"}`); got == "0" {
				t.Error("the holder never saw its corrupt entry")
			}
			e.unblamed(t)
		}},
	// A 304 attests that the worker is alive and has an entry file for
	// the address — presence, not content. The bytes served are the
	// coordinator's own copy, verified when it was learned, so an entry
	// that rots afterwards cannot reach a client through a revalidation.
	{name: "entry corrupted after the coordinator learned the result: the 304 answers the verified copy",
		arrange: func(t *testing.T, e *faultEnv) {
			e.submit(t)
			e.corrupt(t, e.home)
		},
		status: serve.StatusDone,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if v.Source != "disk" || v.Worker != e.home.ts.URL || e.coord.nDispatch.Load() != 1 || e.coord.nProbeHit.Load() != 1 {
				t.Errorf("source %s from %s after %d dispatches and %d probe hits, want disk from the home after the first job's 1 and 1",
					v.Source, v.Worker, e.coord.nDispatch.Load(), e.coord.nProbeHit.Load())
			}
		}},
	{name: "a 304 nobody asked for: asked again once, on the same worker, and the body is the job",
		arrange: func(t *testing.T, e *faultEnv) {
			submitWait(t, e.home.ts.URL, e.spec)
			e.ft.add(fault{method: "GET", path: "/v1/cache/*", times: 1, status: 304})
		},
		status: serve.StatusDone,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if v.Source != "disk" || v.Worker != e.home.ts.URL || e.coord.nDispatch.Load() != 0 ||
				e.coord.nProbeHit.Load() != 1 || e.coord.nProbeMiss.Load() != 0 || !slices.Equal(e.ft.validators(), []bool{false, false}) {
				t.Errorf("source %s from %s after %d dispatches, %d hits, %d misses, validators %v; want disk from the home by two unconditional probes, one hit, no miss",
					v.Source, v.Worker, e.coord.nDispatch.Load(), e.coord.nProbeHit.Load(), e.coord.nProbeMiss.Load(), e.ft.validators())
			}
			e.unblamed(t)
		}},
	{name: "a worker that answers 304 to everything: never a hit without a result, the job fails over",
		arrange: func(t *testing.T, e *faultEnv) {
			e.ft.add(fault{method: "GET", host: e.host(e.home), path: "/v1/cache/*", times: -1, status: 304})
		},
		status: serve.StatusDone, retries: 1,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if v.Source != "executed" || v.Worker != e.other.ts.URL || e.coord.nProbeHit.Load() != 0 {
				t.Errorf("source %s on %s after %d probe hits, want executed on the other worker after 0", v.Source, v.Worker, e.coord.nProbeHit.Load())
			}
		}},
	{name: "submit 429: a saturated worker is passed over, not marked down",
		arrange: func(t *testing.T, e *faultEnv) {
			e.ft.add(fault{method: "POST", path: "/v1/jobs", times: 1, status: 429})
		},
		status: serve.StatusDone, retries: 1,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if v.Worker != e.other.ts.URL || e.coord.Registry().Info(e.home.ts.URL).Failures != 0 {
				t.Errorf("ran on %s, home %+v; want the other worker and a home never marked failed", v.Worker, e.coord.Registry().Info(e.home.ts.URL))
			}
		}},
	{name: "submit 5xx: the job fails over",
		arrange: func(t *testing.T, e *faultEnv) {
			e.ft.add(fault{method: "POST", path: "/v1/jobs", times: 1, status: 503})
		},
		status: serve.StatusDone, retries: 1,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if v.Worker != e.other.ts.URL {
				t.Errorf("ran on %s, want the other worker", v.Worker)
			}
		}},
	{name: "watch break: the event stream is cut mid-event and one poll decides",
		arrange: func(t *testing.T, e *faultEnv) {
			e.ft.add(fault{method: "GET", path: "/v1/jobs/*/events", times: 1, cut: 10})
		},
		status: serve.StatusDone, retries: 1,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if n := e.ft.count("GET", "/v1/jobs/*"); n != 1 {
				t.Errorf("%d status polls after the stream broke, want 1", n)
			}
		}},
	{name: "client cancel: the worker's job is cancelled and the worker not blamed", forever: true,
		drive: func(t *testing.T, e *faultEnv) serve.JobView {
			e.submitted++
			v, _ := post(t, e.base, "", serve.SubmitRequest{Spec: e.spec})
			waitFor(t, "job running", func() bool { return getJob(t, e.base, v.ID).Status == serve.StatusRunning })
			call(t, http.MethodDelete, e.base+"/v1/jobs/"+v.ID, nil)
			return getJob(t, e.base, v.ID)
		},
		status: serve.StatusCancelled,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			waitFor(t, "worker job cancelled", func() bool {
				jobs := listJobs(t, v.Worker)
				return len(jobs) == 1 && jobs[0].Status == serve.StatusCancelled
			})
			if wi := e.coord.Registry().Info(v.Worker); wi.Failures != 0 {
				t.Errorf("the client's cancel was held against the worker: %+v", wi)
			}
		}},
	{name: "worker reports failed: permanent, no failover",
		arrange: func(t *testing.T, e *faultEnv) {
			e.ft.add(fault{method: "GET", path: "/v1/jobs/*/events", times: 1, status: 200, body: failedEvent})
		},
		status: serve.StatusFailed,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if !strings.Contains(v.Error, "boom") || e.coord.nDispatch.Load() != 1 {
				t.Errorf("error %q after %d dispatches, want the worker's error after 1", v.Error, e.coord.nDispatch.Load())
			}
		}},
	{name: "holder in memo but down: the job runs again at home and the memo forgets",
		arrange: func(t *testing.T, e *faultEnv) {
			// The other worker holds the result and the memo says so: found
			// there by one probe …
			submitWait(t, e.other.ts.URL, e.spec)
			e.coord.memo.put(e.addr, e.other.ts.URL)
			if v := e.submit(t); v.Worker != e.other.ts.URL || v.Source != "disk" || e.ft.count("GET", "/v1/cache/*") != 1 {
				t.Fatalf("remembered key: %s from %s after %d probes, want disk from the holder after 1", v.Source, v.Worker, e.ft.count("GET", "/v1/cache/*"))
			}
			// … until the holder drops off the network.
			// (Its /readyz still answers, so only the locate finds out.)
			e.ft.add(fault{host: e.host(e.other), path: "/v1/cache/*", times: -1, drop: true})
			e.ft.add(fault{host: e.host(e.other), path: "/v1/jobs", times: -1, drop: true})
		},
		status: serve.StatusDone, retries: 1,
		check: func(t *testing.T, e *faultEnv, v serve.JobView) {
			if _, ok := e.coord.memo.get(e.addr); ok || v.Worker != e.home.ts.URL || v.Source != "executed" {
				t.Errorf("%s on %s, memo entry kept: %v; want executed at home and forgotten", v.Source, v.Worker, ok)
			}
		}},
}

func TestDispatchExitPaths(t *testing.T) {
	const retries = 1
	for i, c := range faultCases {
		t.Run(c.name, func(t *testing.T) {
			http.DefaultClient.CloseIdleConnections()
			baseline := runtime.NumGoroutine()

			e := &faultEnv{ft: &faultTransport{base: &http.Transport{}}, spec: shortSpec(800 + int64(i))}
			if c.forever {
				e.spec = foreverSpec(800 + int64(i))
			}
			w0, w1 := newWorker(t, t.TempDir()), newWorker(t, t.TempDir())
			coord, ts := newCoordinatorOpts(t, Options{Retries: retries, HTTPClient: &http.Client{Transport: e.ft, Timeout: 30 * time.Second}}, w0, w1)
			e.coord, e.base = coord, ts.URL
			e.addr, e.home, e.other = runner.CacheAddr(keyOf(t, e.spec)), w0, w1
			if homeOf(t, coord, e.spec) == w1.ts.URL {
				e.home, e.other = w1, w0
			}

			if c.arrange != nil {
				c.arrange(t, e)
			}
			var v serve.JobView
			if c.drive != nil {
				v = c.drive(t, e)
			} else {
				v = e.submit(t)
			}

			if v.Status != c.status {
				t.Fatalf("job ended %s (%s), want %s", v.Status, v.Error, c.status)
			}
			if c.status == serve.StatusDone {
				if got, want := resultBytes(t, v), directResult(t, e.spec); !bytes.Equal(got, want) {
					t.Errorf("result differs from the direct run:\n fleet:  %s\n direct: %s", got, want)
				}
			}
			// Exactly one terminal result per job, and it stays.
			if again := getJob(t, e.base, v.ID); again.Status != v.Status {
				t.Errorf("job is %s on a second look, was %s", again.Status, v.Status)
			}
			terminal := 0
			for _, st := range []serve.Status{serve.StatusDone, serve.StatusFailed, serve.StatusCancelled} {
				n, _ := strconv.Atoi(gauge(t, e.base, `delrepfleet_jobs_total{status="`+string(st)+`"}`))
				terminal += n
			}
			if terminal != e.submitted {
				t.Errorf("%d terminal outcomes for %d jobs", terminal, e.submitted)
			}
			if got := coord.nRetry.Load(); got != c.retries || got > (retries+1)*2+1 {
				t.Errorf("retries = %d, want %d (and never above %d rounds of 2 workers plus the locate)", got, c.retries, retries+1)
			}
			for _, wi := range coord.Registry().Infos() {
				if wi.Outstanding != 0 {
					t.Errorf("%s outstanding = %d after the job ended", wi.URL, wi.Outstanding)
				}
			}
			if c.check != nil {
				c.check(t, e, v)
			}

			shutdown(t, coord)
			ts.Close()
			for _, w := range []*testWorker{w0, w1} {
				shutdown(t, w.srv)
				w.ts.Close()
			}
			waitFor(t, "goroutine count back at its baseline", func() bool {
				http.DefaultClient.CloseIdleConnections()
				e.ft.base.CloseIdleConnections()
				return runtime.NumGoroutine() <= baseline
			})
		})
	}
}
