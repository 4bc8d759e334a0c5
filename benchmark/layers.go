package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/noc"
	"delrep/internal/par"
	"delrep/internal/runner"
	"delrep/internal/simspec"
)

// Micro-harnesses for the layers below the programs. Each times calls
// into a layer's existing public functions; none reaches inside.

// meshHarness drives an 8x8 mesh at saturation with a fixed pool of
// recycled packets — the internal/perf harness, rebuilt on the public
// noc API so a number can be committed (internal/perf is test-only).
type meshHarness struct {
	net  *noc.Network
	free []*noc.Packet
}

const (
	meshNodes   = 64
	poolPackets = 256
	pktFlits    = 5
)

func newMesh() *noc.Network {
	topo := noc.NewMesh(8, 8, noc.MeshPolicy{
		Alg: config.RoutingCDR, ReqOrder: config.OrderXY, RepOrder: config.OrderXY,
	})
	return noc.NewNetwork("bench", topo, config.Default().NoC, meshNodes, noc.Params{
		InjCapCore: 8, InjCapMem: 8, EjCap: 24, AsmCap: 4,
	})
}

// newMeshHarness builds the saturated mesh; with a pool and workers > 1
// the network ticks tiled.
func newMeshHarness(pool *par.Pool, workers int) *meshHarness {
	h := &meshHarness{net: newMesh(), free: make([]*noc.Packet, 0, poolPackets)}
	if workers > 1 {
		h.net.SetParallel(pool, workers)
	}
	for n := 0; n < meshNodes; n++ {
		h.net.NI(n).Handler = func(p *noc.Packet) bool {
			h.free = append(h.free, p)
			return true
		}
	}
	for i := 0; i < poolPackets; i++ {
		h.free = append(h.free, &noc.Packet{
			ID: uint64(i + 1), Class: noc.ClassRequest, Prio: noc.PrioGPU, SizeFlits: pktFlits,
		})
	}
	return h
}

func (h *meshHarness) cycle() {
	for n := 0; n < meshNodes && len(h.free) > 0; n++ {
		ni := h.net.NI(n)
		if !ni.CanInject(noc.ClassRequest) {
			continue
		}
		p := h.free[len(h.free)-1]
		h.free = h.free[:len(h.free)-1]
		p.Src, p.Dst = n, (n+17)%meshNodes
		p.Injected, p.Ejected, p.ReadyAt, p.Hops = 0, 0, 0, 0
		ni.Inject(p)
	}
	h.net.Tick()
}

func (h *meshHarness) warm() {
	for i := 0; i < 2000; i++ {
		h.cycle()
	}
}

// measure returns nanoseconds and heap allocations per saturated cycle.
func (h *meshHarness) measure(n int) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		h.cycle()
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// idleTickNS times one cycle of a quiescent mesh: the active-set
// scheduler's skip path.
func idleTickNS(n int) float64 {
	net := newMesh()
	for i := 0; i < meshNodes; i++ {
		net.NI(i).Handler = func(*noc.Packet) bool { return true }
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		net.Tick()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// dispatchNS times par.Pool.Run of an empty section: back to back, and
// with a 20 µs busy gap before each dispatch (about a third of a system
// cycle, long enough for parked workers to go to sleep).
func dispatchNS(pool *par.Pool, nTight, nSpaced int) (tight, spaced float64) {
	empty := func(int) {}
	start := time.Now()
	for i := 0; i < nTight; i++ {
		pool.Run(empty)
	}
	tight = float64(time.Since(start).Nanoseconds()) / float64(nTight)
	var in time.Duration
	for i := 0; i < nSpaced; i++ {
		for gap := time.Now(); time.Since(gap) < 20*time.Microsecond; {
		}
		t := time.Now()
		pool.Run(empty)
		in += time.Since(t)
	}
	return tight, float64(in.Nanoseconds()) / float64(nSpaced)
}

// perCall times f over n calls and returns microseconds per call.
func perCall(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return us(time.Since(start)) / float64(n)
}

// traceRunnerLayers yields the simspec and runner micro-metrics. It
// also runs a small cold batch through runner.Engine twice, untraced
// and traced, which is where the sweep's trace.overhead_pct comes from.
func traceRunnerLayers(res *Result, e *env, sc scale, rec *recorder) error {
	jobs := jobCases(res.Seed, sc)
	c := jobs[0]
	rspec := func(c simCase) runner.Spec { return runner.Spec{Cfg: c.cfg, GPU: c.spec.GPU, CPU: c.spec.CPU} }

	res.set("simspec.resolve_us", perCall(sc.iters(5_000), func(int) { c.spec.Resolve() }))
	res.set("runner.key_us", perCall(sc.iters(5_000), func(int) { runner.KeyHash(c.cfg, c.spec.GPU, c.spec.CPU) }))

	// One real run supplies results for the encode and cache timings,
	// and is the bare side of the cold-overhead pair.
	bare := func(c simCase) (core.AuditRun, time.Duration, error) {
		t := time.Now()
		a, err := core.RunAuditCtrl(core.RunControl{}, c.cfg, c.spec.GPU, c.spec.CPU)
		return a, time.Since(t), err
	}
	a, _, err := bare(c)
	if err != nil {
		return err
	}
	res.set("simspec.encode_us", perCall(sc.iters(2_000), func(int) {
		json.Marshal(simspec.NewResult(c.spec, a.Results, a.Digest))
	}))

	dir, err := e.mkdir("layer-cache")
	if err != nil {
		return err
	}
	cache, err := runner.OpenDiskCache(dir)
	if err != nil {
		return err
	}
	key := runner.Key(c.cfg, c.spec.GPU, c.spec.CPU)
	puts := sc.iters(300)
	res.set("runner.disk_put_us", perCall(puts, func(i int) {
		cache.Put(fmt.Sprintf("%s#%d", key, i), a.Digest, a.Results)
	}))
	res.set("runner.disk_get_us", perCall(10*puts, func(i int) {
		cache.Get(fmt.Sprintf("%s#%d", key, i%puts))
	}))

	// Memo hit: a resolved spec submitted again. Dedup join: Submit of a
	// spec that is still in flight (the call, not the wait).
	eng := runner.New(runner.Options{Workers: procs()})
	eng.Run(rspec(c))
	res.set("runner.memo_hit_us", perCall(sc.iters(20_000), func(int) {
		eng.SubmitCtx(context.Background(), rspec(c)).Wait()
	}))
	inflight := eng.Submit(rspec(jobs[1]))
	res.set("runner.dedup_join_us", perCall(sc.iters(2_000), func(int) { eng.Submit(rspec(jobs[1])) }))
	inflight.Wait()

	// Engine.Run (cache lookup, execute, cache put) against the bare
	// call, as interleaved pairs on specs neither side has seen.
	var over []float64
	pairs := jobs[2:]
	if len(pairs) > 3 {
		pairs = pairs[:3]
	}
	for _, pc := range pairs {
		_, bw, err := bare(pc)
		if err != nil {
			return err
		}
		pe := runner.New(runner.Options{Workers: 1, Cache: cache})
		t := time.Now()
		run := pe.Run(rspec(pc))
		ew := time.Since(t)
		if run.Err != nil {
			return run.Err
		}
		over = append(over, pct(ew.Seconds(), bw.Seconds()))
	}
	res.set("runner.cold_overhead_pct", median(over))

	// The traced-vs-untraced pair: the same cold batch through a fresh
	// engine and cache, once with spans around every submit and wait.
	batch := func(rec *recorder) (time.Duration, error) {
		d, err := e.mkdir("batch-cache")
		if err != nil {
			return 0, err
		}
		bc, err := runner.OpenDiskCache(d)
		if err != nil {
			return 0, err
		}
		be := runner.New(runner.Options{Workers: procs(), Cache: bc})
		t := time.Now()
		root := rec.begin("runner.batch", noSpan, 0)
		futs := make([]*runner.Future, len(pairs))
		for i, pc := range pairs {
			s := rec.begin("runner.submit", root, uint64(i+1))
			futs[i] = be.Submit(rspec(pc))
			rec.end(s)
		}
		for i, f := range futs {
			s := rec.begin("runner.wait", root, uint64(i+1))
			run := f.Wait()
			rec.end(s)
			if run.Err != nil {
				return 0, run.Err
			}
		}
		rec.end(root)
		return time.Since(t), nil
	}
	u, err := batch(nil)
	if err != nil {
		return err
	}
	t, err := batch(rec)
	if err != nil {
		return err
	}
	res.set("trace.overhead_pct", pct(t.Seconds(), u.Seconds()))
	return nil
}
