// Command delrepsim runs one simulation configuration and prints its
// results: GPU IPC, CPU latency/throughput, memory-node blocking, the
// L1 miss breakdown, and NoC statistics.
//
// Usage:
//
//	delrepsim -gpu HS -cpu vips -scheme delegated -warm 20000 -cycles 60000
//	delrepsim -sweep -gpu HS,BP,2DCON -cpu vips -scheme baseline,delegated -j 8
//	delrepsim -spec run.json -json
//	delrepsim -cache-prune 512M
//
// With -sweep, the -gpu, -cpu and -scheme flags accept comma-separated
// lists and the cross product runs concurrently on -j workers through
// the shared result cache (see internal/runner).
//
// With -spec, the run is described by a JSON spec (see internal/simspec;
// "-" reads stdin) — the same wire form the delrepd daemon accepts, so
// a spec can be replayed locally to verify a served result. -json
// prints the canonical simspec.Result (spec, results, determinism
// digest), byte-comparable with the daemon's "result" field.
//
// With -parallel N, the single run's cycle is spread over N workers —
// network tiles and node shards on one pool (see DESIGN.md §11).
// Results and digests are bit-identical at every N, so -parallel
// composes with -json verification: the same spec run at different
// worker counts prints the same bytes. The engine clamps N to what the
// topology can use, and to 1 when an observer is attached
// (-metrics-out, -trace-out, -clog); when that happens the effective
// count is reported on stderr. -phase-profile prints the per-phase
// wall-time breakdown (the Amdahl view of the tick) to stderr after
// the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/obs"
	"delrep/internal/prof"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
	"delrep/internal/workload"
)

func main() {
	var (
		gpuBench  = flag.String("gpu", "HS", "GPU benchmark (see -list); comma-separated list with -sweep")
		cpuBench  = flag.String("cpu", "vips", "CPU benchmark (see -list); comma-separated list with -sweep")
		scheme    = flag.String("scheme", "baseline", "baseline | delegated | rp; comma-separated list with -sweep")
		layout    = flag.String("layout", "Baseline", "Baseline | B | C | D")
		topo      = flag.String("topo", "mesh", "mesh | fbfly | dragonfly | crossbar")
		routing   = flag.String("routing", "cdr", "cdr | dyxy | footprint | hare")
		org       = flag.String("l1org", "private", "private | dcl1 | dyneb")
		channel   = flag.Int("channel", 16, "NoC channel width in bytes")
		warm      = flag.Int64("warm", 20000, "warmup cycles")
		cycles    = flag.Int64("cycles", 60000, "measured cycles")
		seed      = flag.Int64("seed", 1, "random seed")
		parallel  = flag.Int("parallel", 0, "tick the system across this many workers (results are bit-identical at any value; 0/1 = inline on one)")
		phaseProf = flag.Bool("phase-profile", false, "print the per-phase wall-time breakdown of the tick to stderr after the run")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		heatmap   = flag.Bool("heatmap", false, "print link-utilization heatmaps (mesh only)")
		vcdepth   = flag.Int("vcdepth", 0, "override VC buffer depth in flits")
		jsonOut   = flag.Bool("json", false, "emit results as JSON")

		metricsOut    = flag.String("metrics-out", "", "write windowed metric time series (.csv extension selects CSV, else JSON)")
		metricsWindow = flag.Int64("metrics-window", 1000, "metric sampling window in cycles")
		traceOut      = flag.String("trace-out", "", "write Chrome trace-event JSON of sampled packet lifecycles")
		traceSample   = flag.Uint64("trace-sample", 64, "trace every Nth packet (with -trace-out)")
		telemOut      = flag.String("telemetry-out", "", "write Chrome trace-event JSON of the run's wall-clock phases (resolve, build, simulate, flush)")
		clogFlag      = flag.Bool("clog", false, "print the clog-detector narrative after the run")
		clogUtil      = flag.Float64("clog-util", 0.85, "clog-detector port-utilization threshold")

		specFile = flag.String("spec", "", `run one JSON simulation spec from this file ("-" reads stdin)`)
		remote   = flag.String("remote", "", "run via a delrepd or delrepfleet endpoint at this base URL instead of locally")

		sweep      = flag.Bool("sweep", false, "run the -gpu x -cpu x -scheme cross product in parallel")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations (with -sweep)")
		cacheDir   = flag.String("cache", "auto", `on-disk result cache: directory path, "auto" (per-user dir), or "off"`)
		cachePrune = flag.String("cache-prune", "", `prune the result cache to this size (e.g. 512M, 2GiB) and exit`)

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	if *list {
		var g, c []string
		for _, p := range workload.GPUProfiles() {
			g = append(g, p.Name)
		}
		for _, p := range workload.CPUProfiles() {
			c = append(c, p.Name)
		}
		fmt.Println("GPU benchmarks:", strings.Join(g, " "))
		fmt.Println("CPU benchmarks:", strings.Join(c, " "))
		return
	}

	if *cachePrune != "" {
		pruneCache(*cacheDir, *cachePrune)
		return
	}

	if *sweep {
		if *specFile != "" {
			fatalf("-spec and -sweep are mutually exclusive")
		}
		cfg := config.Default()
		cfg.WarmupCycles = *warm
		cfg.MeasureCycles = *cycles
		cfg.Seed = *seed
		cfg.NoC.ChannelBytes = *channel
		if *vcdepth > 0 {
			cfg.NoC.FlitsPerVC = *vcdepth
		}
		if cfg.Layout, err = simspec.ParseLayout(*layout); err != nil {
			fatalf("%v", err)
		}
		cfg.NoC.ReqOrder = cfg.Layout.ReqOrder
		cfg.NoC.RepOrder = cfg.Layout.RepOrder
		if cfg.NoC.Topology, err = simspec.ParseTopo(*topo); err != nil {
			fatalf("%v", err)
		}
		if cfg.NoC.Routing, err = simspec.ParseRouting(*routing); err != nil {
			fatalf("%v", err)
		}
		if cfg.GPU.Org, err = simspec.ParseOrg(*org); err != nil {
			fatalf("%v", err)
		}
		runSweep(cfg, *gpuBench, *cpuBench, *scheme, *jobs, *cacheDir, *remote)
		return
	}

	// A single run is described by a spec — from -spec, or assembled
	// from the individual flags — so both paths share one validation
	// and one canonical rendering.
	var spec simspec.Spec
	if *specFile != "" {
		if spec, err = readSpecFile(*specFile); err != nil {
			fatalf("%v", err)
		}
	} else {
		spec = simspec.Spec{
			GPU: *gpuBench, CPU: *cpuBench, Scheme: *scheme, Layout: *layout,
			Topo: *topo, Routing: *routing, L1Org: *org, ChannelBytes: *channel,
			VCDepth: *vcdepth, Warmup: *warm, Cycles: *cycles, Seed: *seed,
			Parallel: *parallel,
		}
	}
	if *parallel > 0 {
		// The flag wins over a spec file's hint; both are pure
		// execution hints, so the override cannot change results.
		spec.Parallel = *parallel
	}
	if *remote != "" {
		// Everything observer- or instrumentation-shaped needs the
		// simulation in this process; the remote end runs headless.
		for _, bad := range []struct {
			name string
			set  bool
		}{
			{"-heatmap", *heatmap}, {"-phase-profile", *phaseProf}, {"-clog", *clogFlag},
			{"-metrics-out", *metricsOut != ""}, {"-trace-out", *traceOut != ""},
			{"-telemetry-out", *telemOut != ""},
		} {
			if bad.set {
				fatalf("%s needs a local simulation and cannot combine with -remote", bad.name)
			}
		}
		runRemote(*remote, spec, *jsonOut)
		return
	}

	// The phase trace is wall-clock instrumentation of the CLI itself —
	// the same span layer the daemon uses per job — and never touches
	// the simulation, so results and digests are identical with or
	// without -telemetry-out.
	var tr *telemetry.Trace
	if *telemOut != "" {
		tr = telemetry.New("delrepsim", telemetry.A("gpu", *gpuBench), telemetry.A("cpu", *cpuBench))
	}
	resolveSpan := tr.Root().Start("resolve")
	cfg, norm, err := spec.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	resolveSpan.End()

	buildSpan := tr.Root().Start("build")
	sys := core.NewSystem(cfg, norm.GPU, norm.CPU)
	// Resolve stripped the hint from norm (execution hints are not run
	// identity), so read it from the submitted spec.
	sys.SetParallel(spec.Parallel)
	defer sys.Close()
	var profile *core.PhaseProfile
	if *phaseProf {
		profile = &core.PhaseProfile{}
		sys.SetPhaseProfile(profile)
	}
	var observer *obs.Observer
	if *metricsOut != "" || *traceOut != "" || *clogFlag {
		sample := uint64(0)
		if *traceOut != "" {
			sample = *traceSample
		}
		observer = obs.New(obs.Options{
			Window:      *metricsWindow,
			TraceSample: sample,
			ClogUtil:    *clogUtil,
		})
		sys.AttachObserver(observer)
	}
	if eff := sys.Parallel(); eff < spec.Parallel {
		// The engine clamps to what the topology can use, and to one
		// worker under an observer (its trace hooks run inside the
		// compute sections); say so rather than silently running at a
		// different width.
		fmt.Fprintf(os.Stderr, "delrepsim: -parallel %d clamped to %d effective workers\n",
			spec.Parallel, eff)
	}
	buildSpan.End()
	runSpan := tr.Root().Start("simulate")
	r := sys.RunWorkload()
	runSpan.Set("cycles", r.Cycles)
	runSpan.End()
	flushSpan := tr.Root().Start("flush")
	flushObserver(observer, *metricsOut, *traceOut)
	flushSpan.End()
	writePhaseTrace(tr, *telemOut)
	if profile != nil {
		// Stderr, so -json on stdout stays the canonical Result bytes.
		fmt.Fprint(os.Stderr, profile.String())
	}

	if *jsonOut {
		out := simspec.NewResult(norm, r, sys.StatsDigest())
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatalf("encoding results: %v", err)
		}
		return
	}

	printResults(cfg, norm, r)

	if *heatmap {
		printHeatmaps(sys)
	}
	if *clogFlag && observer != nil {
		fmt.Println()
		if err := observer.Clog.Narrative(os.Stdout); err != nil {
			fatalf("writing clog narrative: %v", err)
		}
	}
}

// printResults renders the human-readable report for one finished run.
// Shared by the local and -remote paths, so a remotely served result
// reads identically to a local one.
func printResults(cfg config.Config, norm simspec.Spec, r core.Results) {
	fmt.Printf("workload           %s + %s\n", norm.GPU, norm.CPU)
	fmt.Printf("scheme             %s  layout %s  topo %s  routing %s\n",
		cfg.Scheme, cfg.Layout.Name, cfg.NoC.Topology, cfg.NoC.Routing)
	fmt.Printf("cycles             %d (after %d warmup)\n", r.Cycles, cfg.WarmupCycles)
	fmt.Printf("GPU IPC            %.2f (%.0f insts)\n", r.GPUIPC, float64(r.GPUInsts))
	fmt.Printf("GPU recv rate      %.3f flits/cycle/core\n", r.GPURecvRate)
	fmt.Printf("GPU L1 miss rate   %.1f%%\n", 100*r.L1MissRate)
	fmt.Printf("inter-core local.  %.1f%%\n", 100*r.InterCoreLocal)
	bd := r.Breakdown
	fmt.Printf("miss breakdown     LLC-direct %.1f%%  remote-hit %.1f%%  remote-miss %.1f%%\n",
		100*frac(bd.LLCDirect, bd.Total()), 100*frac(bd.RemoteHit, bd.Total()), 100*frac(bd.RemoteMiss, bd.Total()))
	fmt.Printf("delegations        %d\n", r.Delegations)
	if r.ProbesSent > 0 {
		fmt.Printf("RP probes          %d sent, %.1f%% hit\n", r.ProbesSent, 100*frac(r.ProbeHits, r.ProbesSent))
	}
	fmt.Printf("CPU latency        %.1f cycles (max %.1f)\n", r.CPULatAvg, r.CPULatMax)
	fmt.Printf("CPU throughput     %.4f req/cycle\n", r.CPUThroughput)
	fmt.Printf("mem blocked rate   %.1f%%\n", 100*r.MemBlockedRate)
	fmt.Printf("mem reply util     %.1f%%\n", 100*r.MemReplyLinkUtil)
	fmt.Printf("LLC hit rate       %.1f%%\n", 100*r.LLCHitRate)
	fmt.Printf("NoC flits          req %d, rep %d, hops %d\n", r.ReqFlits, r.RepFlits, r.FlitHops)
	fmt.Printf("load latency       avg %.0f  llc %.0f  dram %.0f  remoteHit %.0f  remoteMiss %.0f\n",
		r.GPULoadLatAvg, r.LatLLCHit, r.LatDRAM, r.LatRemoteHit, r.LatRemoteMiss)
	fmt.Printf("DRAM               bus util %.1f%%  avg lat %.0f\n", 100*r.DRAMBusUtil, r.DRAMAvgLat)
	fmt.Printf("MSHR               allocs %d merges %d  primary miss %.1f%%\n", r.MSHRAllocs, r.MSHRMerges, 100*r.PrimaryMissRate)
	fmt.Printf("net transit (GPU)  request %.0f  reply %.0f cycles\n", r.ReqNetLatGPU, r.RepNetLatGPU)
	lb := r.LoadBreak
	if lb.Count > 0 {
		fmt.Printf("load breakdown     queue %.0f  transit %.0f  serialize %.0f  deleg-wait %.0f  service %.0f  (%.1f legs, %.1f hops)\n",
			lb.QueueAvg, lb.XferAvg, lb.SerAvg, lb.DelegWaitAvg, lb.ServiceAvg, lb.LegsAvg, lb.HopsAvg)
	}
}

// writePhaseTrace finalizes and writes the CLI phase trace; nil trace
// (no -telemetry-out) is a no-op.
func writePhaseTrace(tr *telemetry.Trace, path string) {
	if tr == nil {
		return
	}
	tr.End()
	f, err := os.Create(path)
	if err != nil {
		fatalf("creating %s: %v", path, err)
	}
	err = tr.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatalf("writing %s: %v", path, err)
	}
}

// readSpecFile reads one simulation spec from a file ("-" is stdin).
func readSpecFile(path string) (simspec.Spec, error) {
	if path == "-" {
		return simspec.Read(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return simspec.Spec{}, err
	}
	defer f.Close()
	return simspec.Read(f)
}

// flushObserver writes the metric and trace files after the run (file
// I/O stays outside the simulated tick path).
func flushObserver(o *obs.Observer, metricsOut, traceOut string) {
	if o == nil {
		return
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fatalf("creating %s: %v", metricsOut, err)
		}
		if strings.HasSuffix(strings.ToLower(metricsOut), ".csv") {
			err = o.Reg.WriteCSV(f)
		} else {
			err = o.Reg.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("writing %s: %v", metricsOut, err)
		}
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatalf("creating %s: %v", traceOut, err)
		}
		err = o.WriteTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("writing %s: %v", traceOut, err)
		}
	}
}

// printHeatmaps renders per-link utilization of the mesh as ASCII
// shades; the clogged memory-node reply links stand out as the dark
// column next to the memory nodes.
func printHeatmaps(sys *core.System) {
	dirs := []struct {
		name string
		port int
	}{
		{"east", 1}, {"west", 2}, {"north", 3}, {"south", 4},
	}
	shades := []rune(" .:-=+*#%@")
	for _, net := range []struct {
		name  string
		reply bool
	}{{"request", false}, {"reply", true}} {
		for _, d := range dirs {
			grid := sys.MeshLinkUtil(net.reply, d.port)
			if grid == nil {
				fmt.Println("heatmaps are only available for the mesh topology")
				return
			}
			fmt.Printf("\n%s network, %s links (utilization, @=100%%):\n", net.name, d.name)
			for _, row := range grid {
				for _, u := range row {
					idx := int(u * float64(len(shades)-1))
					if idx >= len(shades) {
						idx = len(shades) - 1
					}
					fmt.Printf("%c", shades[idx])
				}
				fmt.Println()
			}
		}
	}
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "delrepsim: "+format+"\n", args...)
	os.Exit(2)
}
