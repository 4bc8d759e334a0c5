package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeWorker is a minimal delrepd stand-in: /readyz toggles with the
// up flag, /metrics exposes the three load gauges.
func fakeWorker(up *atomic.Bool, slots int) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "delrepd_workers %d\ndelrepd_jobs_queued 3\ndelrepd_jobs_running 1\n", slots)
	})
	return mux
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestRegistryProbesAndRecovers(t *testing.T) {
	var up atomic.Bool
	up.Store(true)
	ts := httptest.NewServer(fakeWorker(&up, 4))
	defer ts.Close()

	reg := NewRegistry([]string{ts.URL}, 20*time.Millisecond, nil, nil)
	defer reg.Close()

	waitFor(t, "worker ready", func() bool { return reg.Ready(ts.URL) })
	info := reg.Info(ts.URL)
	if info.Slots != 4 || info.Queued != 3 || info.Running != 1 {
		t.Fatalf("scraped info = %+v, want slots=4 queued=3 running=1", info)
	}

	// A failing readyz takes the worker down…
	up.Store(false)
	waitFor(t, "worker down", func() bool { return !reg.Ready(ts.URL) })
	// …and recovery brings it back once the backoff allows a re-probe.
	up.Store(true)
	waitFor(t, "worker recovered", func() bool { return reg.Ready(ts.URL) })
}

func TestRegistryMarkFailedIsImmediate(t *testing.T) {
	var up atomic.Bool
	up.Store(true)
	ts := httptest.NewServer(fakeWorker(&up, 2))
	defer ts.Close()

	// A long probe interval isolates MarkFailed from the probe loop.
	reg := NewRegistry([]string{ts.URL}, time.Hour, nil, nil)
	defer reg.Close()
	waitFor(t, "worker ready", func() bool { return reg.Ready(ts.URL) })

	reg.MarkFailed(ts.URL, "connection refused")
	if reg.Ready(ts.URL) {
		t.Fatal("worker still ready immediately after MarkFailed")
	}
	if info := reg.Info(ts.URL); info.Failures == 0 || info.LastError == "" {
		t.Fatalf("failure not recorded: %+v", info)
	}
}

// A worker whose /metrics fails is still ready: readiness comes from
// /readyz alone. It reports no slots, and placement counts it as one.
func TestRegistryMetricsFailureIsOneSlot(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { fmt.Fprintln(w, "ready") })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "scrape failed", http.StatusInternalServerError)
	})
	sick := httptest.NewServer(mux)
	defer sick.Close()
	var up atomic.Bool
	up.Store(true)
	healthy := httptest.NewServer(fakeWorker(&up, 2))
	defer healthy.Close()

	seq := []string{sick.URL, healthy.URL}
	reg := NewRegistry(seq, time.Hour, nil, nil)
	defer reg.Close()
	waitFor(t, "workers ready", func() bool { return reg.ReadyCount() == 2 })
	if info := reg.Info(sick.URL); !info.Ready || info.Slots != 0 || info.Queued != 0 || info.Running != 0 {
		t.Fatalf("worker with a failing /metrics = %+v, want ready with no gauges", info)
	}
	for i, want := range []string{
		sick.URL,    // one slot assumed, and it is free
		healthy.URL, // sick is full at 1/1
		healthy.URL,
		sick.URL, // both full at 1.0: the tie goes to ring order
	} {
		if got, ok := reg.Reserve(seq, nil); !ok || got != want {
			t.Fatalf("reservation %d went to %q (ok=%v), want %s (%+v)", i, got, ok, want, reg.Infos())
		}
	}
}

// setWorker puts a registry record into a known state without a
// probe (use a registry whose probe interval is an hour).
func setWorker(reg *Registry, url string, ready bool, slots int) {
	w := reg.byURL[url]
	reg.mu.Lock()
	w.ready, w.slots = ready, slots
	reg.mu.Unlock()
}

// Reserve is the placement rule: first ready worker in ring order with
// a free slot, else the least loaded relative to its slots with ties in
// ring order; a reservation counts at once and Release returns it.
func TestRegistryOutstanding(t *testing.T) {
	seq := []string{"http://a.invalid", "http://b.invalid", "http://c.invalid", "http://down.invalid"}
	a, b, c := seq[0], seq[1], seq[2]
	reg := NewRegistry(seq, time.Hour, nil, nil)
	defer reg.Close()
	// The first sweep finds nobody; wait it out so it cannot undo setWorker.
	waitFor(t, "first probe sweep", func() bool { return reg.Info(seq[3]).Failures > 0 && reg.Info(a).Failures > 0 })
	setWorker(reg, a, true, 1)
	setWorker(reg, b, true, 2)
	setWorker(reg, c, true, 0) // never scraped: one slot assumed

	reserve := func(tried ...string) string {
		t.Helper()
		w, ok := reg.Reserve(seq, tried)
		if !ok {
			t.Fatalf("Reserve(tried %v) found no worker", tried)
		}
		return w
	}
	for i, want := range []string{
		a, b, b, c, // free slots, in ring order
		a, // all full at 1.0: the tie goes to ring order
		b, // a 2/1, b 2/2, c 1/1: b and c tie at 1.0
		c, // a 2/1, b 3/2, c 1/1
	} {
		if got := reserve(); got != want {
			t.Fatalf("reservation %d went to %s, want %s (%+v)", i, got, want, reg.Infos())
		}
	}
	if got := reg.Info(b).Outstanding; got != 3 {
		t.Fatalf("b outstanding = %d, want 3: a reservation counts when it is taken", got)
	}
	// tried workers and workers that are not ready are passed over.
	if got := reserve(a, c); got != b {
		t.Fatalf("Reserve skipping a and c chose %s, want b", got)
	}
	if w, ok := reg.Reserve(seq, []string{a, b, c}); ok {
		t.Fatalf("Reserve chose %s with every ready worker tried", w)
	}
	for url, n := range map[string]int{a: 2, b: 4, c: 2} {
		for ; n > 0; n-- {
			reg.Release(url)
		}
		if got := reg.Info(url).Outstanding; got != 0 {
			t.Errorf("%s outstanding = %d after releasing every reservation, want 0", url, got)
		}
	}
}
