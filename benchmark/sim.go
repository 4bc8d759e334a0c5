package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"delrep/internal/core"
	"delrep/internal/obs"
	"delrep/internal/par"
)

// simRun is one finished in-process simulation.
type simRun struct {
	wall    time.Duration
	cycles  int64
	digest  uint64
	res     core.Results
	segs    []segment     // wall and CPU per checkpoint segment (untraced runs only)
	measure time.Duration // wall of the measurement window (traced runs only)
	windows []float64     // simulated cycles per host second, per checkpoint window (traced runs only)
	sys     *core.System  // kept for steady-state ticking (traced serial runs only)
}

// simWindow is the checkpoint spacing, in simulated cycles, of the
// timed runs. RunControl chunks the same tick sequence whatever the
// window (the digest checks prove it), so this only sets how finely a
// run's wall and CPU time are sampled: 17 windows of 65-110 ms.
const simWindow = 1000

// segment is the host cost of one stretch of a run between two
// checkpoints, in seconds. The first segment of a run includes the
// build, the last one is the digest.
type segment struct{ wall, cpu float64 }

// undisturbed folds the repetitions of one spec into the cost of one
// run that no neighbour interrupted: per checkpoint segment, the
// fastest of the repetitions, summed. Every repetition executes the
// same tick sequence, so segment k is the same work each time, and on
// a shared host interference only ever adds time (whole seconds of a
// run 20% slow are common; see README.md). A repetition that failed
// and so has fewer segments is left out.
func undisturbed(reps []simRun) segment {
	n := 0
	for _, r := range reps {
		n = max(n, len(r.segs))
	}
	var sum segment
	for k := 0; k < n; k++ {
		best := segment{math.Inf(1), math.Inf(1)}
		for _, r := range reps {
			if len(r.segs) == n {
				best.wall = math.Min(best.wall, r.segs[k].wall)
				best.cpu = math.Min(best.cpu, r.segs[k].cpu)
			}
		}
		sum.wall += best.wall
		sum.cpu += best.cpu
	}
	return sum
}

func digestHex(d uint64) string { return fmt.Sprintf("%016x", d) }

// runCase executes one simulation. Untraced it is exactly the call the
// issue names, core.RunAuditCtrl, with a checkpoint every simWindow
// cycles that reads the two clocks; traced it makes the same three
// calls RunAuditCtrl makes (build, run, digest) with a span around each
// and one span per cycle window.
func runCase(c simCase, parallel int, rec *recorder, job uint64) (simRun, error) {
	gpu, cpu := c.spec.GPU, c.spec.CPU
	start := time.Now()
	if rec == nil {
		segs := make([]segment, 0, c.cycles()/simWindow+2)
		last, lastCPU := start, selfCPU()
		mark := func() {
			now, cpu := time.Now(), selfCPU()
			segs = append(segs, segment{now.Sub(last).Seconds(), (cpu - lastCPU).Seconds()})
			last, lastCPU = now, cpu
		}
		rc := core.RunControl{Parallel: parallel, Window: simWindow, OnProgress: func(_, _ int64) { mark() }}
		a, err := core.RunAuditCtrl(rc, c.cfg, gpu, cpu)
		mark()
		return simRun{wall: time.Since(start), cycles: a.Cycles, digest: a.Digest, res: a.Results, segs: segs}, err
	}
	root := rec.begin("sim.run "+c.tag, noSpan, job)
	b := rec.begin("core.build", root, job)
	sys := core.NewSystem(c.cfg, gpu, cpu)
	if parallel > 1 {
		sys.SetParallel(parallel)
		defer sys.Close()
	}
	rec.end(b)

	var out simRun
	run := rec.begin("core.run", root, job)
	last, lastDone := time.Now(), int64(0)
	var measureStart time.Time
	res, err := sys.RunWorkloadCtx(core.RunControl{OnProgress: func(done, total int64) {
		now := time.Now()
		rec.add("core.window", run, job, last, now)
		if d := now.Sub(last).Seconds(); d > 0 {
			out.windows = append(out.windows, float64(done-lastDone)/d)
		}
		if done == c.cfg.WarmupCycles {
			measureStart = now
		}
		last, lastDone = now, done
	}})
	rec.end(run)
	if err != nil {
		rec.end(root)
		return out, err
	}
	out.measure = time.Since(measureStart)
	d := rec.begin("core.digest", root, job)
	out.digest = sys.StatsDigest()
	rec.end(d)
	rec.end(root)
	out.wall, out.cycles, out.res = time.Since(start), sys.Cycle(), res
	if parallel <= 1 {
		out.sys = sys
	}
	return out, nil
}

// checkRun folds one run into the result's correctness accounting:
// repetitions of a spec must agree, and a spec the golden file knows
// must match it. It reports whether the run counts as failed.
func checkRun(res *Result, golden map[string]string, c simCase, r simRun, err error) bool {
	if err != nil {
		res.problem("%s: %v", c.name, err)
		return true
	}
	got := digestHex(r.digest)
	if r.cycles != c.cycles() {
		res.problem("%s: ran %d cycles, want %d", c.name, r.cycles, c.cycles())
		return true
	}
	if prev, ok := res.Digests[c.name]; ok && prev != got {
		res.problem("%s: digest %s differs from an earlier run's %s", c.name, got, prev)
		return true
	}
	res.Digests[c.name] = got
	if want, ok := golden[c.name]; ok && want != got {
		res.problem("%s: digest %s, golden %s", c.name, got, want)
		return true
	}
	return false
}

// medianRunMS is the plain estimate, printed as a note beside the
// undisturbed one: the median over specs of the median whole-run wall.
func medianRunMS(runs [][]simRun) float64 {
	var meds []float64
	for _, reps := range runs {
		var walls []float64
		for _, r := range reps {
			walls = append(walls, ms(r.wall))
		}
		meds = append(meds, median(walls))
	}
	return median(meds)
}

// simMetrics fills the end-to-end metrics of an in-process workload.
// timed[i] is the undisturbed cost of one run of cases[i] the way the
// workload is about (serial, or Parallel: P); list is the undisturbed
// cost of the whole fixed operation list. There is no cache below the
// runner, so a repeat request costs a full run and the hot figures
// equal the cold ones.
func simMetrics(res *Result, cases []simCase, timed []segment, list segment) {
	var cyc, sum float64
	var walls []float64
	for i, c := range cases {
		cyc += float64(c.cycles())
		sum += timed[i].wall
		walls = append(walls, timed[i].wall)
	}
	res.set("wall_s", list.wall)
	res.set("cpu_s", list.cpu)
	res.set("peak_rss_mb", selfPeakRSSMB())
	res.set("sim_cycles_per_s", cyc/sum)
	res.set("cold_jobs_per_s", float64(len(cases))/sum)
	res.set("cold_latency_p50_ms", 1000*median(walls))
	res.set("hot_jobs_per_s", float64(len(cases))/sum)
	res.set("hot_latency_p50_ms", 1000*median(walls))
}

// runSimSerial: the four specs, interleaved, serial ticking.
func runSimSerial(res *Result, sc scale, golden map[string]string) {
	cases := simCases(res.Seed, sc)
	runs := make([][]simRun, len(cases))
	failed := 0
	cpu := startCPU()
	start := time.Now()
	for rep := 0; rep < sc.serialReps; rep++ {
		for i, c := range cases {
			r, err := runCase(c, 1, nil, 0)
			if checkRun(res, golden, c, r, err) {
				failed++
			}
			runs[i] = append(runs[i], r)
		}
	}
	total := time.Since(start)
	res.phase("run", sc.serialReps*len(cases), failed, total)
	res.note("elapsed_s", total.Seconds(), "s")
	res.note("elapsed_cpu_s", cpu.seconds(), "s")
	res.note("median_run_ms", medianRunMS(runs), "ms")

	timed := make([]segment, len(cases))
	var list segment
	for i := range cases {
		timed[i] = undisturbed(runs[i])
		list.wall += float64(sc.serialReps) * timed[i].wall
		list.cpu += float64(sc.serialReps) * timed[i].cpu
	}
	simMetrics(res, cases, timed, list)
}

// runSimParallel: the two mesh specs as interleaved (serial, parallel)
// pairs. The end-to-end figures are those of the Parallel: P runs;
// wall_s and cpu_s cover both halves of every pair.
func runSimParallel(res *Result, sc scale, golden map[string]string) {
	cases := simCases(res.Seed, sc)[:2]
	p := procs()
	serial := make([][]simRun, len(cases))
	parallel := make([][]simRun, len(cases))
	var speedups []float64
	failed := 0
	cpu := startCPU()
	start := time.Now()
	for k := 0; k < sc.parallelPairs; k++ {
		for i, c := range cases {
			ser, err := runCase(c, 1, nil, 0)
			if checkRun(res, golden, c, ser, err) {
				failed++
			}
			pr, err := runCase(c, p, nil, 0)
			if checkRun(res, golden, c, pr, err) {
				failed++
			}
			serial[i] = append(serial[i], ser)
			parallel[i] = append(parallel[i], pr)
			speedups = append(speedups, ser.wall.Seconds()/pr.wall.Seconds())
		}
	}
	total := time.Since(start)
	res.phase("pairs", 2*sc.parallelPairs*len(cases), failed, total)
	res.note("elapsed_s", total.Seconds(), "s")
	res.note("elapsed_cpu_s", cpu.seconds(), "s")
	res.note("median_run_ms", medianRunMS(parallel), "ms")

	timed := make([]segment, len(cases))
	var list segment
	for i := range cases {
		timed[i] = undisturbed(parallel[i])
		ser := undisturbed(serial[i])
		list.wall += float64(sc.parallelPairs) * (ser.wall + timed[i].wall)
		list.cpu += float64(sc.parallelPairs) * (ser.cpu + timed[i].cpu)
	}
	simMetrics(res, cases, timed, list)
	res.set("core.parallel_speedup", median(speedups))
}

// --- traced runs -----------------------------------------------------------

// steadyTick measures System.Tick on a system that has finished its
// run: nanoseconds and heap allocations per cycle.
func steadyTick(sys *core.System, n int) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		sys.Tick()
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func phasePct(part, total time.Duration) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}

// profiled runs one case under the existing PhaseProfile and re-checks
// its digest.
func profiled(res *Result, c simCase, parallel int) (core.PhaseProfile, bool) {
	var p core.PhaseProfile
	sys := core.NewSystem(c.cfg, c.spec.GPU, c.spec.CPU)
	if parallel > 1 {
		sys.SetParallel(parallel)
		defer sys.Close()
	}
	sys.SetPhaseProfile(&p)
	_, err := sys.RunWorkloadCtx(core.RunControl{})
	r := simRun{cycles: sys.Cycle(), digest: sys.StatsDigest()}
	return p, checkRun(res, nil, c, r, err)
}

// traceSimSerial yields the noc, core, model and obs layer metrics.
func traceSimSerial(res *Result, sc scale, golden map[string]string, rec *recorder) {
	cases := simCases(res.Seed, sc)
	tl := newTally(res, "traced runs")
	count := tl.count

	var wallU, wallT, measureWall, flitHops float64
	var builds, digests []float64
	var windows []float64
	for i, c := range cases {
		u, err := runCase(c, 1, nil, 0)
		count(checkRun(res, golden, c, u, err))
		t, err := runCase(c, 1, rec, uint64(i+1))
		count(checkRun(res, golden, c, t, err))
		if err != nil {
			continue
		}
		wallU += u.wall.Seconds()
		wallT += t.wall.Seconds()
		measureWall += t.measure.Seconds()
		flitHops += float64(t.res.FlitHops)
		windows = append(windows, t.windows...)
		if c.tag == "dragonfly" {
			continue
		}
		// The three HS+vips schemes carry the per-scheme figures.
		n := int(sc.simMeasure / 4)
		ns, allocs := steadyTick(t.sys, n)
		res.set("core.cycle_ns."+c.tag, ns)
		res.set("model.gpu_ipc."+c.tag, t.res.GPUIPC)
		res.set("model.mem_blocked_rate."+c.tag, t.res.MemBlockedRate)
		res.set("model.cpu_lat."+c.tag, t.res.CPULatAvg)
		if c.tag == "delegated" {
			res.set("core.cycle_allocs", allocs)
			res.set("model.fwd_miss_frac", t.res.Breakdown.ForwardedFrac())
			res.set("model.remote_hit_frac", t.res.Breakdown.RemoteHitFrac())
			res.set("model.l1_miss_rate", t.res.L1MissRate)
			res.set("model.llc_hit_rate", t.res.LLCHitRate)
			res.set("model.delegations", float64(t.res.Delegations))
			res.set("model.flit_hops", float64(t.res.FlitHops))
		}
	}
	for _, d := range rec.durations("core.build") {
		builds = append(builds, ms(d))
	}
	for _, d := range rec.durations("core.digest") {
		digests = append(digests, ms(d))
	}
	res.set("core.build_ms", median(builds))
	res.set("core.digest_ms", median(digests))
	res.set("core.window_cps.p10", percentile(windows, 0.10))
	res.set("core.window_cps.p50", median(windows))
	if flitHops > 0 {
		res.set("core.ns_per_flit_hop", 1e9*measureWall/flitHops)
	}
	res.set("trace.overhead_pct", pct(wallT, wallU))

	// Amdahl split of the serial tick, from the existing profiler.
	p, bad := profiled(res, cases[0], 1)
	count(bad)
	res.set("core.phase.net_pct", phasePct(p.NetCompute, p.Total()))
	res.set("core.phase.node_pct", phasePct(p.NodeCompute, p.Total()))
	res.set("core.phase.serial_pct", phasePct(p.Begin+p.NetCommit+p.NodeCommit+p.Serial, p.Total()))

	// The baseline spec with an observer attached, between two bare runs
	// of it (successive runs in one process get a little faster).
	{
		c := cases[0]
		before, err := runCase(c, 1, nil, 0)
		count(checkRun(res, golden, c, before, err))
		s := rec.begin("obs.observed-run", noSpan, uint64(len(cases)+1))
		t0 := time.Now()
		sys := core.NewSystem(c.cfg, c.spec.GPU, c.spec.CPU)
		sys.AttachObserver(obs.New(obs.Options{}))
		_, err = sys.RunWorkloadCtx(core.RunControl{})
		wall := time.Since(t0).Seconds()
		rec.end(s)
		count(checkRun(res, golden, c, simRun{cycles: sys.Cycle(), digest: sys.StatsDigest()}, err))
		after, err := runCase(c, 1, nil, 0)
		count(checkRun(res, golden, c, after, err))
		res.set("obs.observer_overhead_pct", pct(wall, (before.wall+after.wall).Seconds()/2))
	}

	h := newMeshHarness(nil, 1)
	h.warm()
	ns, allocs := h.measure(sc.iters(20_000))
	res.set("noc.router_tick_ns", ns)
	res.set("noc.tick_allocs", allocs)
	res.set("noc.idle_tick_ns", idleTickNS(sc.iters(200_000)))

	tl.done("traced-runs")
}

// traceSimParallel yields the parallel-engine layer metrics.
func traceSimParallel(res *Result, sc scale, golden map[string]string, rec *recorder) {
	cases := simCases(res.Seed, sc)[:2]
	p := procs()
	tl := newTally(res, "traced runs")
	count := tl.count
	var wallU, wallT float64
	var speedups []float64
	for i, c := range cases {
		ser, err := runCase(c, 1, nil, 0)
		count(checkRun(res, golden, c, ser, err))
		u, err := runCase(c, p, nil, 0)
		count(checkRun(res, golden, c, u, err))
		t, err := runCase(c, p, rec, uint64(i+1))
		count(checkRun(res, golden, c, t, err))
		wallU += u.wall.Seconds()
		wallT += t.wall.Seconds()
		speedups = append(speedups, ser.wall.Seconds()/u.wall.Seconds())
	}
	res.set("core.parallel_speedup", median(speedups))
	res.set("trace.overhead_pct", pct(wallT, wallU))

	pp, bad := profiled(res, cases[0], p)
	count(bad)
	res.set("core.par.net_pct", phasePct(pp.NetCompute, pp.Total()))
	res.set("core.par.node_pct", phasePct(pp.NodeCompute, pp.Total()))
	res.set("core.par.commit_pct", phasePct(pp.NetCommit+pp.NodeCommit, pp.Total()))
	res.set("core.par.serial_pct", phasePct(pp.Begin+pp.Serial, pp.Total()))

	pool := par.NewPool(p)
	defer pool.Close()
	h := newMeshHarness(pool, p)
	h.warm()
	ns, _ := h.measure(sc.iters(20_000))
	res.set("noc.tiled_tick_ns", ns)
	tight, spaced := dispatchNS(pool, sc.iters(50_000), sc.iters(10_000))
	res.set("par.dispatch_ns.tight", tight)
	res.set("par.dispatch_ns.spaced", spaced)

	tl.done("traced-runs")
}
