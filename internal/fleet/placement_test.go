package fleet

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// heldFleet is a set of delrepd stand-ins on the test's clock: a job a
// worker admits stays there until the test releases it, so which worker
// was busy when is decided by the order of the test's steps, never by
// host time. Each worker is the real job API (serve.NewServer) over an
// executor that holds instead of simulating, and its cache tier is the
// real one: a daemon's GET /v1/cache/{key} over a disk cache of its own.
type heldFleet struct {
	workers []*heldWorker
	// admitted carries every admission, in order. The buffer is above
	// the admissions of any test here (48 keys, each run at most twice),
	// so Admit, which runs under the job API's lock, never blocks on it.
	admitted chan admission
	arrived  atomic.Int32 // POST /v1/jobs requests that reached a worker

	mu        sync.Mutex
	gate      chan struct{} // non-nil: POST /v1/jobs waits at the door until it is closed
	queued    int           // admissions to a worker with no free slot
	colocated int           // … while another worker had one
}

type admission struct {
	w    *heldWorker
	addr string
}

// heldWorker implements serve.Executor. Everything below ts is guarded
// by f.mu.
type heldWorker struct {
	f     *heldFleet
	slots int
	url   string
	ts    *httptest.Server

	cache *runner.DiskCache // this worker's shard
	tier  http.Handler      // a real daemon over cache, asked for /v1/cache/ only

	held       []heldJob
	keys       map[string]string // run key by content address, of every job admitted
	probes     int               // GET /v1/cache requests answered
	bodiless   int               // … of them with 304
	admissions int
}

type heldJob struct {
	addr string
	j    *serve.Job
}

// newHeldFleet starts one worker per entry of slots.
func newHeldFleet(t *testing.T, slots ...int) *heldFleet {
	t.Helper()
	f := &heldFleet{admitted: make(chan admission, 256)}
	for _, n := range slots {
		cache, err := runner.OpenDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		daemon := serve.New(serve.Options{Engine: runner.New(runner.Options{Workers: 1, Cache: cache})})
		w := &heldWorker{f: f, slots: n, cache: cache, tier: daemon.Handler(), keys: map[string]string{}}
		srv := serve.NewServer(w, "j", "delrepd", nil, false, 0)
		w.ts = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				f.arrived.Add(1)
				f.mu.Lock()
				gate := f.gate
				f.mu.Unlock()
				if gate != nil {
					<-gate
				}
			}
			srv.Handler().ServeHTTP(rw, r)
		}))
		w.url = w.ts.URL
		f.workers = append(f.workers, w)
		t.Cleanup(func() {
			w.ts.Close()
			shutdown(t, srv)
			shutdown(t, daemon)
		})
	}
	return f
}

// coordinator starts a coordinator (with an empty memo) over the fleet.
func (f *heldFleet) coordinator(t *testing.T) (*Server, string) {
	t.Helper()
	var ws []*testWorker
	for _, w := range f.workers {
		ws = append(ws, &testWorker{ts: w.ts})
	}
	coord, ts := newCoordinatorOpts(t, Options{}, ws...)
	// A failed test leaves jobs held, and the coordinator's listener
	// does not close under a ?wait for one of them: finish them first.
	t.Cleanup(func() {
		for _, w := range f.workers {
			var addr string
			first := func(h heldJob) bool { addr = h.addr; return true }
			for j := w.take(first); j != nil; j = w.take(first) {
				w.finish(j, addr)
			}
		}
	})
	return coord, ts.URL
}

func (f *heldFleet) nextAdmission(t *testing.T) admission {
	t.Helper()
	select {
	case a := <-f.admitted:
		return a
	case <-time.After(10 * time.Second):
		t.Fatal("no worker admitted the job")
		return admission{}
	}
}

func (f *heldFleet) admissions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, w := range f.workers {
		n += w.admissions
	}
	return n
}

// probeCount is how many probes a worker has answered, and how many of
// them without a body.
type probeCount struct{ all, bodiless int }

// probes returns each worker's probe counts, by URL.
func (f *heldFleet) probes() map[string]probeCount {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[string]probeCount{}
	for _, w := range f.workers {
		out[w.url] = probeCount{w.probes, w.bodiless}
	}
	return out
}

func (w *heldWorker) Admit(j *serve.Job, _ serve.SubmitRequest, _ config.Config, key string) *serve.Rejection {
	addr := runner.CacheAddr(key)
	f := w.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(w.held) >= w.slots {
		f.queued++
		for _, o := range f.workers {
			if o != w && len(o.held) < o.slots {
				f.colocated++
				break
			}
		}
	}
	w.held = append(w.held, heldJob{addr, j})
	w.keys[addr] = key
	w.admissions++
	f.admitted <- admission{w, addr}
	return nil
}

// take removes the held job matching pick and returns it, nil if none.
func (w *heldWorker) take(pick func(heldJob) bool) *serve.Job {
	w.f.mu.Lock()
	defer w.f.mu.Unlock()
	for i, h := range w.held {
		if pick(h) {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return h.j
		}
	}
	return nil
}

// release finishes the held job for addr as done: the worker's cache
// holds its result from here on.
func (w *heldWorker) release(t *testing.T, addr string) {
	t.Helper()
	j := w.take(func(h heldJob) bool { return h.addr == addr })
	if j == nil {
		t.Fatalf("worker %s holds no job for %s", w.url, addr)
	}
	w.finish(j, addr)
}

func (w *heldWorker) finish(j *serve.Job, addr string) {
	w.f.mu.Lock()
	key := w.keys[addr]
	w.f.mu.Unlock()
	w.store(key)
	res, err := serve.NewSharedResult(&simspec.Result{Spec: j.Spec(), Digest: addr[:16]})
	if err != nil {
		panic(err)
	}
	j.Finish(serve.Outcome{Status: serve.StatusDone, Source: "executed", Result: res})
}

// store puts the stand-in result for key — no results, and the first 16
// digits of its address for a digest — into the worker's shard.
func (w *heldWorker) store(key string) {
	digest, err := strconv.ParseUint(runner.CacheAddr(key)[:16], 16, 64)
	if err == nil {
		err = w.cache.Put(key, digest, core.Results{})
	}
	if err != nil {
		panic(err)
	}
}

func (w *heldWorker) Cancel(j *serve.Job) {
	if w.take(func(h heldJob) bool { return h.j == j }) != nil {
		j.Finish(serve.Outcome{Status: serve.StatusCancelled, Error: "cancelled"})
	}
}

func (w *heldWorker) Drain(live []*serve.Job) {
	for _, j := range live {
		j.Cancel()
	}
}

func (w *heldWorker) Ready() (bool, string) { return true, "" }

func (w *heldWorker) Metrics(b *strings.Builder) { fmt.Fprintf(b, "delrepd_workers %d\n", w.slots) }

func (w *heldWorker) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/cache/{key}", func(rw http.ResponseWriter, r *http.Request) {
		w.f.mu.Lock()
		w.probes++
		w.f.mu.Unlock()
		w.tier.ServeHTTP(&probeWriter{rw, w}, r)
	})
}

// probeWriter counts the 304s among a worker's probe answers, before
// the answer leaves.
type probeWriter struct {
	http.ResponseWriter
	w *heldWorker
}

func (pw *probeWriter) WriteHeader(code int) {
	if code == http.StatusNotModified {
		pw.w.f.mu.Lock()
		pw.w.bodiless++
		pw.w.f.mu.Unlock()
	}
	pw.ResponseWriter.WriteHeader(code)
}

// keyOf returns spec's routing key, as the coordinator computes it.
func keyOf(t *testing.T, spec simspec.Spec) string {
	t.Helper()
	cfg, norm, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return runner.Key(cfg, norm.GPU, norm.CPU)
}

// homeOf returns the ring home of spec's key under coord.
func homeOf(t *testing.T, coord *Server, spec simspec.Spec) string {
	t.Helper()
	return coord.ring.Sequence(keyOf(t, spec))[0]
}

// submitAsync posts spec with ?wait=1 and delivers the terminal view.
func submitAsync(t *testing.T, base string, spec simspec.Spec) <-chan serve.JobView {
	reply := make(chan serve.JobView, 1)
	go func() {
		v, err := trySubmitWait(base, spec)
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		reply <- v
	}()
	return reply
}

// The placement guard, on the test's clock: 2 closed-loop clients over
// 48 keys against two single-slot workers.
func TestPlacementGuard(t *testing.T) {
	f := newHeldFleet(t, 1, 1)
	coord, base := f.coordinator(t)

	const n = 48
	specs := make([]simspec.Spec, n)
	addrs := make([]string, n)
	homes := make([]string, n)
	for i := range specs {
		specs[i] = shortSpec(700 + int64(i))
		addrs[i], homes[i] = runner.CacheAddr(keyOf(t, specs[i])), homeOf(t, coord, specs[i])
	}

	// Cold. Both clients always have a job in flight, so every
	// submission but the first finds exactly one worker busy; which job
	// finishes next is the PRNG's choice.
	type flight struct {
		i     int
		on    *heldWorker
		reply <-chan serve.JobView
	}
	var inflight []flight
	next := 0
	launch := func() {
		reply := submitAsync(t, base, specs[next])
		a := f.nextAdmission(t)
		if a.addr != addrs[next] {
			t.Fatalf("admitted %s, submitted %s", a.addr, addrs[next])
		}
		inflight = append(inflight, flight{next, a.w, reply})
		next++
	}
	launch()
	launch()
	rng := rand.New(rand.NewSource(16))
	placed := make([]string, n) // the worker that ran, and so holds, each key
	for len(inflight) > 0 {
		k := rng.Intn(len(inflight))
		fl := inflight[k]
		inflight = append(inflight[:k], inflight[k+1:]...)
		fl.on.release(t, addrs[fl.i])
		v := <-fl.reply
		if v.Status != serve.StatusDone || v.Worker != fl.on.url {
			t.Fatalf("key %d: %s on %q, want done on %s", fl.i, v.Status, v.Worker, fl.on.url)
		}
		placed[fl.i] = v.Worker
		if next < n {
			launch()
		}
	}
	f.mu.Lock()
	queued, colocated := f.queued, f.colocated
	f.mu.Unlock()
	if queued != 0 || colocated != 0 {
		t.Errorf("%d jobs queued behind a busy worker, %d of them while another worker had a free slot; want 0", queued, colocated)
	}
	offHome := 0
	for i := range placed {
		if placed[i] != homes[i] {
			offHome++
		}
	}
	if offHome == 0 {
		t.Fatal("no key was placed off its home: the guard exercised nothing")
	}
	if got := coord.nDispatch.Load(); got != n {
		t.Errorf("dispatches = %d, want %d", got, n)
	}
	if got := coord.nSteal.Load(); got != int64(offHome) {
		t.Errorf("steals = %d, want the %d off-home placements", got, offHome)
	}
	// The memo remembers exactly what the ring would not find.
	if got := len(coord.memo.cur) + len(coord.memo.prev); got != offHome || got > memoBound {
		t.Errorf("memo holds %d entries, want %d (bound %d)", got, offHome, memoBound)
	}
	for _, wi := range coord.Registry().Infos() {
		if wi.Outstanding != 0 {
			t.Errorf("%s outstanding = %d with nothing in flight", wi.URL, wi.Outstanding)
		}
	}

	// Repeat: every key, off-home ones included, is one probe to the
	// worker that holds it and no dispatch.
	for i := range specs {
		before := f.probes()
		v := submitWait(t, base, specs[i])
		after := f.probes()
		if v.Worker != placed[i] || v.Source != "disk" {
			t.Errorf("key %d repeated: %s from %q, want disk from %s", i, v.Source, v.Worker, placed[i])
		}
		for url := range after {
			want := 0
			if url == placed[i] {
				want = 1
			}
			if got := after[url].all - before[url].all; got != want {
				t.Errorf("key %d repeated: %d probes to %s, want %d", i, got, url, want)
			}
		}
	}
	if got := f.admissions(); got != n {
		t.Errorf("admissions = %d after the repeat pass, want %d: a repeat was re-simulated", got, n)
	}

	// Restart: a coordinator that forgot everything pays at most one
	// re-simulation per off-home key, on its home, and none after.
	_, base2 := f.coordinator(t)
	resims := 0
	for i := range specs {
		reply := submitAsync(t, base2, specs[i])
		select {
		case a := <-f.admitted:
			if placed[i] == homes[i] || a.w.url != homes[i] {
				t.Errorf("key %d (home %s, held by %s) re-simulated on %s", i, homes[i], placed[i], a.w.url)
			}
			resims++
			a.w.release(t, a.addr)
			<-reply
		case <-reply:
		}
	}
	if resims > offHome {
		t.Errorf("%d re-simulations after the restart, want at most %d", resims, offHome)
	}
	for i := range specs {
		submitWait(t, base2, specs[i])
	}
	if got := f.admissions(); got != n+resims {
		t.Errorf("admissions = %d, want %d: a key was re-simulated twice", got, n+resims)
	}
}

// A slot is reserved when the worker is chosen, not when its answer to
// the submission arrives: two simultaneous submissions whose keys share
// a home land on two different single-slot workers.
func TestPlacementReservesAtSelection(t *testing.T) {
	f := newHeldFleet(t, 1, 1)
	coord, base := f.coordinator(t)

	// Two keys with the same home.
	pair := []simspec.Spec{shortSpec(760), shortSpec(761)}
	for homeOf(t, coord, pair[1]) != homeOf(t, coord, pair[0]) {
		pair[1].Seed++
	}

	// Hold both submissions at the workers' doors, so neither dispatch
	// has an answer when the other selects.
	gate := make(chan struct{})
	f.mu.Lock()
	f.gate = gate
	f.mu.Unlock()
	r0, r1 := submitAsync(t, base, pair[0]), submitAsync(t, base, pair[1])
	waitFor(t, "both submissions at a worker's door", func() bool { return f.arrived.Load() == 2 })
	for _, wi := range coord.Registry().Infos() {
		if wi.Outstanding != 1 {
			t.Errorf("%s outstanding = %d before any submit was answered, want 1", wi.URL, wi.Outstanding)
		}
	}
	close(gate)
	a0, a1 := f.nextAdmission(t), f.nextAdmission(t)
	if a0.w == a1.w {
		t.Fatalf("both jobs were admitted by %s while the other worker idled", a0.w.url)
	}
	a0.w.release(t, a0.addr)
	a1.w.release(t, a1.addr)
	<-r0
	<-r1
	for _, wi := range coord.Registry().Infos() {
		if wi.Outstanding != 0 {
			t.Errorf("%s outstanding = %d after both jobs finished", wi.URL, wi.Outstanding)
		}
	}
}

// The memo never exceeds its bound, keeps what was written last, and
// forgets on drop — whatever it holds.
func TestMemoBounded(t *testing.T) {
	t.Run("placement", func(t *testing.T) {
		testMemoBounded(t, func(i int) string { return fmt.Sprint("w", i) })
	})
	t.Run("resident", func(t *testing.T) {
		testMemoBounded(t, func(i int) *serve.SharedResult {
			return &serve.SharedResult{Result: &simspec.Result{Digest: fmt.Sprint(i)}}
		})
	})
}

func testMemoBounded[V comparable](t *testing.T, val func(i int) V) {
	const bound = 8
	m := newMemo[V](bound)
	first := val(0)
	for i := 0; i < 100; i++ {
		m.put(fmt.Sprint("addr", i), val(i))
		m.put("addr0", first) // a key in use is re-put by every job that finds it
		if v, ok := m.get("addr0"); !ok || v != first {
			t.Fatalf("after %d puts the entry written every time was evicted or replaced (%v, %v)", i+1, v, ok)
		}
		if n := len(m.cur) + len(m.prev); n > bound {
			t.Fatalf("memo holds %d entries after %d puts, bound %d", n, i+1, bound)
		}
	}
	if _, ok := m.get("addr99"); !ok {
		t.Error("the newest entry is gone")
	}
	if _, ok := m.get("addr50"); ok {
		t.Error("an entry 49 puts old survived a bound of 8")
	}
	m.drop("addr0")
	if _, ok := m.get("addr0"); ok {
		t.Error("a dropped entry is still there")
	}
}
