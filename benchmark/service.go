package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"delrep/internal/core"
	"delrep/internal/stats"
)

// service is a running job service under test: the front door the
// clients talk to and every daemon behind it (the same one for serve).
type service struct {
	layer string // "serve" | "fleet": prefixes the layer's own metrics
	front *proc
	all   []*proc
	// cacheDirs are the result-cache directories of the delrepd
	// daemons, in start order.
	cacheDirs []string
}

// startServe starts one delrepd -j P with a fresh cache dir.
func startServe(e *env) (*service, error) {
	dir, err := e.mkdir("serve-cache")
	if err != nil {
		return nil, err
	}
	d, err := e.startDaemon("delrepd", "delrepd", "-j", strconv.Itoa(procs()), "-cache", dir)
	if err != nil {
		return nil, err
	}
	return &service{layer: "serve", front: d, all: []*proc{d}, cacheDirs: []string{dir}}, nil
}

// startFleet starts two delrepd -j max(1,P/2) workers with separate
// cache dirs and a delrepfleet coordinator in front of them.
func startFleet(e *env) (*service, error) {
	slots := atLeast(1, procs()/2)
	s := &service{layer: "fleet"}
	args := []string{}
	for i := 0; i < 2; i++ {
		dir, err := e.mkdir(fmt.Sprintf("worker%d-cache", i))
		if err != nil {
			return nil, err
		}
		w, err := e.startDaemon(fmt.Sprintf("worker%d", i), "delrepd", "-j", strconv.Itoa(slots), "-cache", dir)
		if err != nil {
			return nil, err
		}
		s.all = append(s.all, w)
		s.cacheDirs = append(s.cacheDirs, dir)
		args = append(args, "-worker", w.url)
	}
	f, err := e.startDaemon("delrepfleet", "delrepfleet", args...)
	if err != nil {
		return nil, err
	}
	s.front = f
	s.all = append([]*proc{f}, s.all...)
	return s, nil
}

func (s *service) stop() {
	for _, p := range s.all {
		p.stop()
	}
}

func (s *service) rssKB() float64 {
	var kb float64
	for _, p := range s.all {
		kb += p.rssKB()
	}
	return kb
}

func (s *service) peakRSSMB() float64 {
	var mb float64
	for _, p := range s.all {
		mb += p.peakRSSMB()
	}
	return mb
}

func (s *service) stderrTails() string {
	var b strings.Builder
	for _, p := range s.all {
		fmt.Fprintf(&b, "--- %s stderr (tail) ---\n%s\n", p.name, p.stderrTail())
	}
	return b.String()
}

// serviceRun is what the two phases produced, kept for the per-layer
// analysis of a traced run.
type serviceRun struct {
	frontURL string
	cases    []simCase
	cold     []reqResult
	hot      []reqResult // traced batches excluded
	coldWall time.Duration
	hotP50   float64 // ms
	// Per hot batch: throughput (requests/s) and the daemons' summed
	// RSS (KB) right after it.
	tput, rssKB []float64
}

// latenciesMS returns the latencies of the successful requests.
func latenciesMS(rs []reqResult) []float64 {
	var out []float64
	for _, r := range rs {
		if r.err == nil {
			out = append(out, ms(r.latency()))
		}
	}
	return out
}

// runService drives the cold then the hot phase against a service and
// fills the end-to-end metrics plus the layer's own client-visible
// ones. In a traced run every second hot batch carries client spans;
// the untraced batches in between are the overhead baseline.
func runService(res *Result, s *service, sc scale, batches int, rec *recorder) *serviceRun {
	cases := jobCases(res.Seed, sc)
	lc := newLoadClient(s.front.url, cases, procs())
	defer lc.close()
	run := &serviceRun{frontURL: s.front.url, cases: cases}
	cpu := startCPU(s.all...)

	// Cold: every distinct spec once; simulation dominates.
	order := make([]int, len(cases))
	for i := range order {
		order[i] = i
	}
	coldSpan := rec.begin(s.layer+".cold-phase", noSpan, 0)
	run.cold, run.coldWall = lc.run(order, rec, coldSpan)
	rec.end(coldSpan)
	coldDigest := make([]string, len(cases))
	failed := 0
	for _, r := range run.cold {
		if r.err != nil {
			failed++
			res.problem("%s cold %s: %v", s.layer, cases[r.spec].name, r.err)
			continue
		}
		coldDigest[r.spec] = r.reply.Result.Digest
		res.Digests[cases[r.spec].name] = r.reply.Result.Digest
	}
	res.phase("cold", len(order), failed, run.coldWall)

	// Hot: the same specs again in seeded shuffled order, so every
	// request is a memo or cache hit; fixed-size batches.
	hot := hotOrder(res.Seed, len(cases), batches*sc.batchSize)
	var wallU, wallT []float64
	var hotWall time.Duration
	failed = 0
	for b := 0; b < batches; b++ {
		batchRec := rec
		if b%2 == 0 {
			batchRec = nil // untraced baseline batch
		}
		span := batchRec.begin(s.layer+".hot-batch", noSpan, 0)
		rs, wall := lc.run(hot[b*sc.batchSize:(b+1)*sc.batchSize], batchRec, span)
		batchRec.end(span)
		hotWall += wall
		run.tput = append(run.tput, float64(len(rs))/wall.Seconds())
		run.rssKB = append(run.rssKB, s.rssKB())
		if batchRec == nil {
			wallU = append(wallU, wall.Seconds())
			run.hot = append(run.hot, rs...)
		} else {
			wallT = append(wallT, wall.Seconds())
		}
		for _, r := range rs {
			switch {
			case r.err != nil:
				failed++
				res.problem("%s hot %s: %v", s.layer, cases[r.spec].name, r.err)
			case r.reply.Result.Digest != coldDigest[r.spec]:
				failed++
				res.problem("%s hot %s: digest %s, cold digest %s", s.layer, cases[r.spec].name, r.reply.Result.Digest, coldDigest[r.spec])
			}
		}
	}
	res.phase("hot", len(hot), failed, hotWall)
	cpuS := cpu.seconds()

	coldLat, hotLat := latenciesMS(run.cold), latenciesMS(run.hot)
	run.hotP50 = median(hotLat)
	simCycles := float64(len(cases)) * float64(cases[0].cycles())
	res.set("wall_s", (run.coldWall + hotWall).Seconds())
	res.set("cpu_s", cpuS)
	res.set("peak_rss_mb", s.peakRSSMB())
	res.set("sim_cycles_per_s", simCycles/run.coldWall.Seconds())
	res.set("cold_jobs_per_s", float64(len(cases))/run.coldWall.Seconds())
	res.set("cold_latency_p50_ms", median(coldLat))
	res.set("hot_jobs_per_s", median(run.tput))
	res.set("hot_latency_p50_ms", run.hotP50)
	res.set(s.layer+".cold_latency_p75_ms", percentile(coldLat, 0.75))
	res.set(s.layer+".hot_latency_p99_ms", percentile(hotLat, 0.99))
	res.note(s.layer+".hot_latency_p99.9_ms", percentile(hotLat, 0.999), "ms")
	if rec != nil && len(wallT) > 0 {
		res.set("trace.overhead_pct", pct(stats.Mean(wallT), stats.Mean(wallU)))
	}

	verifyServed(res, cases, coldDigest, sc.verifySpecs)
	if len(res.Problems) > 0 {
		res.Diag = s.stderrTails()
	}
	return run
}

// verifyServed re-runs a seeded sample of the served specs in-process
// and requires the same digests.
func verifyServed(res *Result, cases []simCase, served []string, k int) {
	idx := sample(res.Seed, len(cases), k)
	start := time.Now()
	var wg sync.WaitGroup
	got := make([]string, len(idx))
	errs := make([]error, len(idx))
	for i, ci := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cases[ci]
			a, err := core.RunAuditCtrl(core.RunControl{}, c.cfg, c.spec.GPU, c.spec.CPU)
			got[i], errs[i] = digestHex(a.Digest), err
		}()
	}
	wg.Wait()
	failed := 0
	for i, ci := range idx {
		if errs[i] != nil || got[i] != served[ci] {
			failed++
			res.problem("verify %s: in-process digest %s (err %v), served %s", cases[ci].name, got[i], errs[i], served[ci])
		}
	}
	res.phase("verify", len(idx), failed, time.Since(start))
}

// promValue sums every sample of a metric family in a Prometheus text
// exposition whose labels contain the given substring ("" = any).
func promValue(body []byte, family, label string) float64 {
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, family) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(family):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer family name
		}
		if label != "" && !strings.Contains(rest, label) {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err == nil {
			total += v
		}
	}
	return total
}

// scrape times GET /metrics (median of five) and returns the last body.
func scrape(url string) (medianMS float64, body []byte, err error) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	var t []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if body, err = httpGet(client, url+"/metrics"); err != nil {
			return 0, nil, err
		}
		t = append(t, ms(time.Since(start)))
	}
	return median(t), body, nil
}
