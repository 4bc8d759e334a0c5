package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"delrep/internal/fleet"
	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/stats"
	"delrep/internal/telemetry"
)

// Per-layer numbers of serve and fleet. What the daemons already
// publish is read from their public surfaces (/metrics and
// /v1/jobs/{id}/trace?format=tree); the rest times in-process calls
// into serve.New / fleet.New handlers.

// serveSurface reads delrepd's /metrics after the hot phase and
// derives what the growing job table costs from the per-batch figures.
func serveSurface(res *Result, svc *service, run *serviceRun, batchSize int) {
	n := len(run.tput)
	res.set("serve.rss_per_kjob_kb", (run.rssKB[n-1]-run.rssKB[0])/(float64((n-1)*batchSize)/1000))
	res.set("serve.hot_drift_pct", pct(run.tput[n-1], run.tput[0]))
	msScrape, body, err := scrape(svc.front.url)
	if err != nil {
		res.problem("serve /metrics: %v", err)
		return
	}
	res.set("serve.metrics_scrape_ms", msScrape)
	res.set("serve.rejects", promValue(body, "delrepd_rejects_total", ""))
}

// fleetSurface reads the coordinator's /metrics and derives the cold
// phase's placement figures from the worker each reply names.
func fleetSurface(res *Result, svc *service, run *serviceRun) {
	_, body, err := scrape(svc.front.url)
	if err != nil {
		res.problem("fleet /metrics: %v", err)
		return
	}
	res.set("fleet.probe_hits", promValue(body, "delrepfleet_cache_probes_total", `result="hit"`))
	res.set("fleet.probe_misses", promValue(body, "delrepfleet_cache_probes_total", `result="miss"`))
	res.set("fleet.dispatches", promValue(body, "delrepfleet_dispatch_total", ""))
	res.set("fleet.retries", promValue(body, "delrepfleet_retries_total", ""))
	res.set("fleet.steals", promValue(body, "delrepfleet_steals_total", ""))

	workers := svc.all[1:]
	slots := atLeast(1, procs()/2)
	perWorker := map[string]int{}
	var ok []reqResult
	for _, r := range run.cold {
		if r.err == nil {
			ok = append(ok, r)
			perWorker[r.reply.Worker]++
		}
	}
	if len(ok) == 0 {
		return
	}
	most := 0
	for _, n := range perWorker {
		if n > most {
			most = n
		}
	}
	res.set("fleet.worker_imbalance", float64(most)/(float64(len(ok))/float64(len(workers))))

	// A cold job was co-located if, when it was submitted, its worker
	// already ran `slots` jobs while another worker had a free slot.
	colocated := 0
	for _, j := range ok {
		busy := map[string]int{}
		for _, k := range ok {
			if k.start.Before(j.start) && k.end.After(j.start) {
				busy[k.reply.Worker]++
			}
		}
		if busy[j.reply.Worker] < slots {
			continue
		}
		for _, w := range workers {
			if w.url != j.reply.Worker && busy[w.url] < slots {
				colocated++
				break
			}
		}
	}
	res.set("fleet.colocated_pct", 100*float64(colocated)/float64(len(ok)))
}

// spanDurations fetches one job's span tree from a daemon and adds
// each span's duration (µs) under its name.
func spanDurations(client *http.Client, base, id string, into map[string][]float64) error {
	b, err := httpGet(client, base+"/v1/jobs/"+id+"/trace?format=tree")
	if err != nil {
		return err
	}
	var root telemetry.SpanView
	if err := json.Unmarshal(b, &root); err != nil {
		return err
	}
	var walk func(v telemetry.SpanView)
	walk = func(v telemetry.SpanView) {
		into[v.Name] = append(into[v.Name], float64(v.DurUS))
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(root)
	return nil
}

// jobSpans collects the daemon's own spans over up to max of the jobs.
func jobSpans(base string, rs []reqResult, max int) (map[string][]float64, error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	spans := map[string][]float64{}
	n := 0
	for _, r := range rs {
		if r.err != nil || n == max {
			continue
		}
		if err := spanDurations(client, base, r.reply.ID, spans); err != nil {
			return nil, err
		}
		n++
	}
	return spans, nil
}

// inproc drives a handler's POST /v1/jobs?wait=1 directly, one request
// at a time, and returns per-request microseconds.
func inproc(h http.Handler, body []byte) (float64, *jobReply, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", bytes.NewReader(body))
	w := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(w, req)
	d := us(time.Since(start))
	if w.Code != http.StatusOK {
		return d, nil, fmt.Errorf("HTTP %d: %.200s", w.Code, w.Body.Bytes())
	}
	var r jobReply
	if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
		return d, nil, err
	}
	if r.Status != string(serve.StatusDone) || r.Result == nil {
		return d, &r, fmt.Errorf("job ended %q: %s", r.Status, r.Error)
	}
	return d, &r, nil
}

// inprocHot sends n hot requests round-robin over the bodies.
func inprocHot(h http.Handler, bodies [][]byte, n int) ([]float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, _, err := inproc(h, bodies[i%len(bodies)])
		if err != nil {
			return nil, err
		}
		lat = append(lat, d)
	}
	return lat, nil
}

// newInprocServe builds a serve.Server over a cache dir.
func newInprocServe(cacheDir string, workers int, telemetryOn bool) (*serve.Server, error) {
	cache, err := runner.OpenDiskCache(cacheDir)
	if err != nil {
		return nil, err
	}
	eng := runner.New(runner.Options{Workers: workers, Cache: cache})
	return serve.New(serve.Options{Engine: eng, Telemetry: telemetryOn}), nil
}

func shutdown(s interface{ Shutdown(context.Context) error }) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

// traceServe yields the serve layer metrics of a traced run.
func traceServe(res *Result, e *env, svc *service, run *serviceRun, sc scale, rec *recorder) {
	t := newTally(res, "serve layers")
	defer t.done("layers")

	// The daemon's own spans: hot means over a sample, cold means over
	// every cold job.
	hotSpans, err := jobSpans(svc.front.url, run.hot, 200)
	if t.ok("hot span trees", err) {
		for metric, span := range map[string]string{
			"serve.span.http_receive_us":  "http.receive",
			"serve.span.admission_us":     "admission",
			"serve.span.queue_wait_us":    "queue.wait",
			"serve.span.runner_submit_us": "runner.submit",
			"serve.span.encode_us":        "encode",
			"serve.span.reply_us":         "reply",
		} {
			res.set(metric, stats.Mean(hotSpans[span]))
		}
	}
	coldSpans, err := jobSpans(svc.front.url, run.cold, len(run.cold))
	if t.ok("cold span trees", err) {
		res.set("serve.span.engine_run_ms", stats.Mean(coldSpans["engine.run"])/1000)
		res.set("serve.span.cache_lookup_us", stats.Mean(coldSpans["cache.lookup"]))
	}

	// The same submit through serve.New(...).Handler() with no HTTP in
	// between, over the daemon's (now warm) cache dir; telemetry on
	// (the daemon's default) and off, in alternating blocks.
	bodies := submitBodies(run.cases)
	var on, off []float64
	srvOn, err1 := newInprocServe(svc.cacheDirs[0], procs(), true)
	srvOff, err2 := newInprocServe(svc.cacheDirs[0], procs(), false)
	if t.ok("in-process servers", firstErr(err1, err2)) {
		defer shutdown(srvOn)
		defer shutdown(srvOff)
		s := rec.begin("serve.inprocess-hot", noSpan, 0)
		var herr error
		for block := 0; block < 3 && herr == nil; block++ {
			var a, b []float64
			if a, herr = inprocHot(srvOn.Handler(), bodies, sc.iters(1000)); herr == nil {
				b, herr = inprocHot(srvOff.Handler(), bodies, sc.iters(1000))
			}
			if block > 0 { // block 0 turns disk hits into memo entries
				on, off = append(on, a...), append(off, b...)
			}
		}
		rec.end(s)
		if t.ok("in-process hot submits", herr) {
			res.set("serve.submit_hot_us.p50", median(on))
			res.set("serve.submit_hot_us.p99", percentile(on, 0.99))
			res.set("serve.http_overhead_us", 1000*run.hotP50-median(on))
			res.set("serve.telemetry_overhead_pct", pct(median(on), median(off)))
		}
	}

	// The same spec family straight through the CLI, at the same
	// concurrency, with no cache: what a served job costs over that.
	direct, err := directRuns(e, run, atLeast(1, len(run.cases)/2), rec)
	if t.ok("delrepsim -json runs", err) {
		res.set("serve.overhead_vs_direct_pct", pct(median(latenciesMS(run.cold)), median(direct)))
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// directRuns executes the first k served specs with the real
// delrepsim -spec FILE -json -cache off, P at a time, checks each
// digest against the served one, and returns the wall times (ms).
func directRuns(e *env, run *serviceRun, k int, rec *recorder) ([]float64, error) {
	dir, err := e.mkdir("direct-specs")
	if err != nil {
		return nil, err
	}
	served := map[int]string{}
	for _, r := range run.cold {
		if r.err == nil {
			served[r.spec] = r.reply.Result.Digest
		}
	}
	walls := make([]float64, k)
	errs := make([]error, k)
	var next atomic.Int64
	var wg sync.WaitGroup
	root := rec.begin("direct-runs", noSpan, 0)
	for w := 0; w < procs(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				path := filepath.Join(dir, fmt.Sprintf("spec%d.json", i))
				b, _ := json.Marshal(run.cases[i].spec)
				if errs[i] = os.WriteFile(path, b, 0o644); errs[i] != nil {
					continue
				}
				cmd := e.command("delrepsim", "-spec", path, "-json", "-cache", "off")
				s := rec.begin("delrepsim", root, uint64(i+1))
				start := time.Now()
				out, err := cmd.Output()
				walls[i] = ms(time.Since(start))
				rec.end(s)
				var got struct {
					Digest string `json:"digest"`
				}
				switch {
				case err != nil:
					errs[i] = err
				case json.Unmarshal(out, &got) != nil || got.Digest != served[i]:
					errs[i] = fmt.Errorf("%s: delrepsim digest %q, served %q", run.cases[i].name, got.Digest, served[i])
				}
			}
		}()
	}
	wg.Wait()
	rec.end(root)
	return walls, firstErr(errs...)
}

// traceFleet yields the fleet layer metrics that need an in-process
// coordinator: fleet.New over two httptest workers.
func traceFleet(res *Result, e *env, run *serviceRun, sc scale, rec *recorder) {
	t := newTally(res, "fleet layers")
	defer t.done("layers")

	// The real coordinator's own spans over a sample of hot jobs.
	// (run.hot came through the real delrepfleet.)
	// fleet.attempt covers the cache-tier probe that answers a hot job.
	if spans, err := jobSpans(run.frontURL, run.hot, 200); t.ok("hot span trees", err) {
		res.set("fleet.span.attempt_us", stats.Mean(spans["fleet.attempt"]))
	}

	slots := atLeast(1, procs()/2)
	type worker struct {
		srv *serve.Server
		ts  *httptest.Server
	}
	mk := func(name string) (*worker, error) {
		dir, err := e.mkdir(name)
		if err != nil {
			return nil, err
		}
		srv, err := newInprocServe(dir, slots, true)
		if err != nil {
			return nil, err
		}
		return &worker{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
	}
	w0, err0 := mk("inproc-worker0")
	w1, err1 := mk("inproc-worker1")
	solo, err2 := mk("inproc-solo") // a plain delrepd equivalent, for the serve side of each pair
	if !t.ok("in-process workers", firstErr(err0, err1, err2)) {
		return
	}
	workers := []*worker{w0, w1, solo}
	defer func() {
		for _, w := range workers {
			w.ts.Close()
			shutdown(w.srv)
		}
	}()
	coord, err := fleet.New(fleet.Options{
		Workers: []string{w0.ts.URL, w1.ts.URL}, Telemetry: true, ProbeInterval: 100 * time.Millisecond,
	})
	if !t.ok("fleet.New", err) {
		return
	}
	defer shutdown(coord)
	fh := coord.Handler()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		w := httptest.NewRecorder()
		fh.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if w.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.ok("coordinator readiness", fmt.Errorf("not ready after 5 s"))
			return
		}
	}

	// Cold at one client: four specs through the coordinator, four of
	// the same schemes straight through a serve handler, interleaved.
	bodies := submitBodies(run.cases)
	var fleetCold, serveCold []float64
	var home0, digest0 string // spec 0's worker and digest, for the failover check
	s := rec.begin("fleet.inprocess-cold", noSpan, 0)
	for i := 0; i < 4 && err == nil; i++ {
		var d float64
		var r *jobReply
		if d, r, err = inproc(fh, bodies[i]); err == nil {
			fleetCold = append(fleetCold, d)
			if i == 0 {
				home0, digest0 = r.Worker, r.Result.Digest
			}
			d, _, err = inproc(solo.srv.Handler(), bodies[i+4])
			serveCold = append(serveCold, d)
		}
	}
	rec.end(s)
	if !t.ok("in-process cold submits", err) {
		return
	}
	res.set("fleet.cold_overhead_pct", pct(median(fleetCold), median(serveCold)))

	// Hot through the coordinator (cache-tier probe) and through the
	// serve handler (memo hit): the difference is the fleet hop.
	s = rec.begin("fleet.inprocess-hot", noSpan, 0)
	fleetHot, errF := inprocHot(fh, bodies[:4], sc.iters(1500))
	serveHot, errS := inprocHot(solo.srv.Handler(), bodies[4:8], sc.iters(1500))
	rec.end(s)
	if t.ok("in-process hot submits", firstErr(errF, errS)) {
		res.set("fleet.submit_hot_us.p50", median(fleetHot))
		res.set("fleet.submit_hot_us.p99", percentile(fleetHot, 0.99))
		res.set("fleet.hop_overhead_us", median(fleetHot)-median(serveHot))
	}

	// Failover: give the other worker spec 0's result, close spec 0's
	// home worker, and time the next request for it.
	victim, other := w0, w1
	if home0 == w1.ts.URL {
		victim, other = w1, w0
	}
	if _, _, err = inproc(other.srv.Handler(), bodies[0]); !t.ok("pre-warming the surviving worker", err) {
		return
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()
	s = rec.begin("fleet.failover", noSpan, 1)
	d, r, err := inproc(fh, bodies[0])
	rec.end(s)
	if err == nil && (r.Result.Digest != digest0 || r.Worker != other.ts.URL) {
		err = fmt.Errorf("after failover: digest %s from %s, want %s from %s", r.Result.Digest, r.Worker, digest0, other.ts.URL)
	}
	if t.ok("failover", err) {
		res.set("fleet.failover_recovery_ms", d/1000)
	}
}
