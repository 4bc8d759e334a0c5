package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"testing"

	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/simspec"
)

// A terminal job is a row of the job table — which never evicts — so
// the table grows by a bounded record per job, its trace included.
// 5 000 hot ?wait=1 submits through the handler in process: the live
// heap they leave behind, per job, must stay within budget.
func TestJobRecordBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates every allocation")
	}
	const jobs, budget = 5000, 320
	s, submitHot := hotSubmitter(t, 261)
	before := liveHeap()
	for i := 0; i < jobs; i++ {
		submitHot()
	}
	after := liveHeap()
	runtime.KeepAlive(s)
	perJob := (int64(after) - int64(before)) / jobs
	t.Logf("live heap per terminal job: %d B (budget %d B)", perJob, budget)
	if perJob > budget {
		t.Errorf("a terminal job holds %d B of live heap, budget %d B", perJob, budget)
	}
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Hot jobs of one content address hold one decoded result: the daemon
// keeps it on the runner future, as the coordinator's resident table
// keeps one per address. The repeats run concurrently, on both workers.
func TestHotJobsShareOneResult(t *testing.T) {
	const hot = 16
	s, ts := newTestServer(t, Options{})
	body, err := json.Marshal(jobapi.SubmitRequest{Spec: shortSpec(262)})
	if err != nil {
		t.Fatal(err)
	}
	post := func() (jobapi.JobView, error) {
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return jobapi.JobView{}, err
		}
		defer resp.Body.Close()
		var v jobapi.JobView
		return v, json.NewDecoder(resp.Body).Decode(&v)
	}
	first, err := post()
	if err != nil || first.Status != jobapi.StatusDone {
		t.Fatalf("first job: %+v (%v)", first, err)
	}
	ids := make([]string, hot)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := post()
			if err != nil || v.Status != jobapi.StatusDone {
				t.Errorf("hot job %d: %+v (%v)", i, v, err)
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	held := s.rowLocked(first.ID).result
	for _, id := range ids {
		if row := s.rowLocked(id); row == nil || row.result != held {
			t.Fatalf("job %s does not hold the shared result %p", id, held)
		}
	}
}

// A shared result echoes its spec, so a job whose canonical spec
// differs from it never receives it, even on the same future, and
// does not displace it either.
func TestSharedResultKeepsItsSpec(t *testing.T) {
	cfg, norm, err := shortSpec(263).Resolve()
	if err != nil {
		t.Fatal(err)
	}
	fut := runner.New(runner.Options{Workers: 1}).Submit(runner.Spec{Cfg: cfg, GPU: norm.GPU, CPU: norm.CPU})
	run := fut.Wait()
	if run.Err != nil {
		t.Fatal(run.Err)
	}
	share := func(spec simspec.Spec) *SharedResult {
		t.Helper()
		r, err := sharedResult(fut, spec, run)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	held := share(norm)
	if again := share(norm); again != held {
		t.Fatalf("a second job of the spec got %p, want the shared %p", again, held)
	}
	other := norm
	other.Scheme = "rp"
	own := share(other)
	if own == held || own.Result.Spec != other || held.Result.Spec != norm {
		t.Fatalf("a job of spec %+v got a result echoing %+v (shared: %v)", other, own.Result.Spec, own == held)
	}
	if want := simspec.NewResult(other, run.Results, run.Digest); *own.Result != want {
		t.Fatalf("own result = %+v, want %+v", *own.Result, want)
	}
	if again := share(norm); again != held {
		t.Fatal("a differing spec displaced the shared result")
	}
}
