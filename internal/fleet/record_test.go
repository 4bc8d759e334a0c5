package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"delrep/internal/serve"
)

// The coordinator's job table never evicts either, so it too grows by a
// bounded record per job. 5 000 hot ?wait=1 submits with telemetry on,
// through the coordinator's handler in process, each answered by a
// revalidation (one bodiless 304 from the holder): the live heap they
// leave behind, per job, must stay within budget.
func TestCoordinatorJobRecordBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates every allocation")
	}
	const jobs, budget = 5000, 1000
	w1, w2 := newWorker(t, t.TempDir()), newWorker(t, t.TempDir())
	// One probe sweep, at start: a registry scrape still in flight at
	// the final collection would hold its /metrics bodies live.
	coord, err := New(Options{Workers: []string{w1.ts.URL, w2.ts.URL}, ProbeInterval: time.Hour, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, coord) })
	waitFor(t, "both workers ready", func() bool { return coord.reg.ReadyCount() == 2 })
	body, err := json.Marshal(serve.SubmitRequest{Spec: shortSpec(631), Client: "hot"})
	if err != nil {
		t.Fatal(err)
	}
	h := coord.Handler()
	submit := func() serve.JobView {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body)))
		var v serve.JobView
		if err := json.Unmarshal(rec.Body.Bytes(), &v); rec.Code != http.StatusOK || err != nil || v.Status != serve.StatusDone {
			t.Fatalf("submit: status %d (%v): %s", rec.Code, err, rec.Body)
		}
		return v
	}
	submit() // the one cold run; the coordinator keeps its result
	if v := submit(); v.Source != "disk" || coord.nProbeHit.Load() != 1 {
		t.Fatalf("a repeat came from %q with %d probe hits, want a revalidation", v.Source, coord.nProbeHit.Load())
	}

	before := liveHeap()
	for i := 0; i < jobs; i++ {
		submit()
	}
	after := liveHeap()
	runtime.KeepAlive(coord)
	perJob := (int64(after) - int64(before)) / jobs
	t.Logf("live heap per terminal coordinator job: %d B (budget %d B)", perJob, budget)
	if perJob > budget {
		t.Errorf("a terminal coordinator job holds %d B of live heap, budget %d B", perJob, budget)
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
