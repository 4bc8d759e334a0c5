package fleet

import (
	"bytes"
	"testing"

	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// The revalidation guard, on the test's clock: 6 keys sitting in the
// shards of two workers, each asked for 4 times. A result crosses the
// hop once per coordinator that learns it; every later answer is the
// same Result, vouched for by a bodiless probe of a live holder.
func TestRevalidationGuard(t *testing.T) {
	f := newHeldFleet(t, 1, 1)
	coord, base := f.coordinator(t)
	byURL := map[string]*heldWorker{}
	for _, w := range f.workers {
		byURL[w.url] = w
	}

	const keys, repeats = 6, 4
	specs := make([]simspec.Spec, keys)
	addrs := make([]string, keys)
	homes := make([]string, keys)
	for i := range specs {
		specs[i] = shortSpec(900 + int64(i))
		key := keyOf(t, specs[i])
		addrs[i], homes[i] = runner.CacheAddr(key), homeOf(t, coord, specs[i])
		byURL[homes[i]].store(key)
	}

	// ask submits key i and checks the answer came from worker's shard by
	// exactly one probe, of that worker, with or without a body.
	ask := func(base string, i int, worker string, bodiless bool) jobapi.JobView {
		t.Helper()
		before := f.probes()
		v := submitWait(t, base, specs[i])
		if v.Source != "disk" || v.Worker != worker {
			t.Errorf("key %d: %s from %q, want disk from %s", i, v.Source, v.Worker, worker)
		}
		for url, after := range f.probes() {
			want := probeCount{}
			if url == worker {
				want.all = 1
				if bodiless {
					want.bodiless = 1
				}
			}
			got := probeCount{after.all - before[url].all, after.bodiless - before[url].bodiless}
			if got != want {
				t.Errorf("key %d: probes to %s = %+v, want %+v", i, url, got, want)
			}
		}
		return v
	}

	first := make([][]byte, keys)
	shared := make([]*serve.SharedResult, keys)
	for r := 0; r < repeats; r++ {
		for i := range specs {
			v := ask(base, i, homes[i], r > 0)
			// The table hands every repeat the Result the one body was
			// decoded into: with no second body and no dispatch below, that
			// pointer is what each of these jobs was finished with.
			res, _ := coord.resident.get(addrs[i])
			if r == 0 {
				first[i], shared[i] = resultBytes(t, v), res
			} else if !bytes.Equal(resultBytes(t, v), first[i]) || res != shared[i] || res == nil {
				t.Errorf("key %d, repeat %d: result bytes equal the first's: %v; resident %p, first held %p",
					i, r, bytes.Equal(resultBytes(t, v), first[i]), res, shared[i])
			}
		}
	}
	if hits, misses := coord.nProbeHit.Load(), coord.nProbeMiss.Load(); hits != keys*repeats || misses != 0 {
		t.Errorf("probe hits %d, misses %d; want %d and 0: a 304 is a hit", hits, misses, keys*repeats)
	}
	if got := len(coord.resident.cur) + len(coord.resident.prev); got != keys || got > residentBound {
		t.Errorf("resident table holds %d results, want %d (bound %d)", got, keys, residentBound)
	}

	// Restart: a coordinator that holds nothing sends no validator, so
	// its first repeat carries the body again, and only that one.
	_, base2 := f.coordinator(t)
	for i := range specs {
		if v := ask(base2, i, homes[i], false); !bytes.Equal(resultBytes(t, v), first[i]) {
			t.Errorf("key %d after the restart: result bytes differ", i)
		}
		ask(base2, i, homes[i], true)
	}
	if got := f.admissions() + int(coord.nDispatch.Load()); got != 0 {
		t.Fatalf("%d admissions or dispatches so far, want 0: a repeat was re-simulated", got)
	}

	// Failover: the holder of key 0 dies. The coordinator still holds the
	// result, and sends its validator to the survivor — whose shard does
	// not have the entry, so it must say 404 and run the job: a 304 names
	// a worker that is alive and holds the bytes, or it means nothing.
	dead := byURL[homes[0]]
	var survivor *heldWorker
	for _, w := range f.workers {
		if w != dead {
			survivor = w
		}
	}
	dead.ts.Close()
	reply := submitAsync(t, base, specs[0])
	select {
	case a := <-f.admitted:
		if a.w != survivor || a.addr != addrs[0] {
			t.Fatalf("key 0 re-ran on %s (%s), want on the survivor %s", a.w.url, a.addr, survivor.url)
		}
		survivor.release(t, addrs[0])
	case v := <-reply:
		t.Fatalf("key 0 after its holder died: %s (%s) from %q without running: nobody holds it", v.Status, v.Source, v.Worker)
	}
	if v := <-reply; v.Status != jobapi.StatusDone || v.Worker != survivor.url || v.Source != "executed" || !bytes.Equal(resultBytes(t, v), first[0]) {
		t.Errorf("key 0 after its holder died: %s, %s on %q; want done, executed on the survivor %s, same bytes", v.Status, v.Source, v.Worker, survivor.url)
	}
	// The survivor's terminal view was the body: the next repeat is a
	// revalidation there.
	if v := ask(base, 0, survivor.url, true); !bytes.Equal(resultBytes(t, v), first[0]) {
		t.Error("key 0 from the survivor: result bytes differ")
	}
}
