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
// A run is a simspec.Spec — the wire form the delrepd daemon accepts.
// The run-identity flags (-gpu … -seed) fill one in, -spec reads one
// as JSON ("-" is stdin), and either way Spec.Resolve is the only
// validation. -json prints the canonical simspec.Result (spec,
// results, determinism digest), byte-comparable with the daemon's
// "result" field, so a served result can be verified by replaying its
// spec here.
//
// With -sweep, the -gpu, -cpu and -scheme flags accept comma-separated
// lists; every point of the cross product is resolved like a single
// run and they execute as one more figure of internal/experiment, on
// the engine experiment.EngineFlags describes (-j, -cache, -remote,
// the profiles — shared with expdriver).
//
// -phase-profile prints the per-phase wall-time breakdown of the tick
// to stderr after the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"unicode"

	"delrep/internal/config"
	"delrep/internal/core"
	"delrep/internal/experiment"
	"delrep/internal/obs"
	"delrep/internal/runner"
	"delrep/internal/simspec"
	"delrep/internal/telemetry"
	"delrep/internal/workload"
)

// modeFlag is a flag one of the run modes cannot honour, and whether
// the command line set it.
type modeFlag struct {
	name string
	set  bool
}

// rejectFlags exits with a usage error if any of the flags is set.
func rejectFlags(mode string, flags []modeFlag) {
	for _, f := range flags {
		if f.set {
			fatalf("%s reports on one local simulation and cannot combine with %s", f.name, mode)
		}
	}
}

func main() {
	// The run-identity flags are the fields of a spec.
	var spec simspec.Spec
	flag.StringVar(&spec.GPU, "gpu", "HS", "GPU benchmark (see -list); comma-separated list with -sweep")
	flag.StringVar(&spec.CPU, "cpu", "vips", "CPU benchmark (see -list); comma-separated list with -sweep")
	flag.StringVar(&spec.Scheme, "scheme", "baseline", "baseline | delegated | rp; comma-separated list with -sweep")
	flag.StringVar(&spec.Layout, "layout", "Baseline", "Baseline | B | C | D")
	flag.StringVar(&spec.Topo, "topo", "mesh", "mesh | fbfly | dragonfly | crossbar")
	flag.StringVar(&spec.Routing, "routing", "cdr", "cdr | dyxy | footprint | hare")
	flag.StringVar(&spec.L1Org, "l1org", "private", "private | dcl1 | dyneb")
	flag.IntVar(&spec.ChannelBytes, "channel", 16, "NoC channel width in bytes")
	flag.IntVar(&spec.VCDepth, "vcdepth", 0, "override VC buffer depth in flits")
	flag.Int64Var(&spec.Warmup, "warm", 20000, "warmup cycles")
	flag.Int64Var(&spec.Cycles, "cycles", 60000, "measured cycles")
	flag.Int64Var(&spec.Seed, "seed", 1, "random seed")
	var (
		engine    = experiment.BindEngineFlags(flag.CommandLine)
		phaseProf = flag.Bool("phase-profile", false, "print the per-phase wall-time breakdown of the tick to stderr after the run")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		heatmap   = flag.Bool("heatmap", false, "print link-utilization heatmaps (mesh only)")
		jsonOut   = flag.Bool("json", false, "emit results as JSON")

		metricsOut    = flag.String("metrics-out", "", "write windowed metric time series (.csv extension selects CSV, else JSON)")
		metricsWindow = flag.Int64("metrics-window", 1000, "metric sampling window in cycles")
		traceOut      = flag.String("trace-out", "", "write Chrome trace-event JSON of sampled packet lifecycles")
		traceSample   = flag.Uint64("trace-sample", 64, "trace every Nth packet (with -trace-out)")
		telemOut      = flag.String("telemetry-out", "", "write Chrome trace-event JSON of the run's wall-clock phases (resolve, build, simulate, flush)")
		clogFlag      = flag.Bool("clog", false, "print the clog-detector narrative after the run")
		clogUtil      = flag.Float64("clog-util", 0.85, "clog-detector port-utilization threshold")

		specFile   = flag.String("spec", "", `run one JSON simulation spec from this file ("-" reads stdin)`)
		sweep      = flag.Bool("sweep", false, "run the -gpu x -cpu x -scheme cross product on the engine (-j at a time)")
		cachePrune = flag.String("cache-prune", "", `prune the result cache to this size (e.g. 512M, 2GiB) and exit`)
	)
	flag.Parse()

	stopProf, err := engine.StartProfile()
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	if *list {
		fmt.Println("GPU benchmarks:", strings.Join(workload.GPUNames(), " "))
		fmt.Println("CPU benchmarks:", strings.Join(workload.CPUNames(), " "))
		return
	}

	if *cachePrune != "" {
		pruneCache(engine, *cachePrune)
		return
	}

	// Everything observer- or instrumentation-shaped needs the one
	// simulation in this process: a sweep has many, and a remote end
	// runs headless.
	localOnly := []modeFlag{
		{"-heatmap", *heatmap}, {"-phase-profile", *phaseProf}, {"-clog", *clogFlag},
		{"-metrics-out", *metricsOut != ""}, {"-trace-out", *traceOut != ""},
		{"-telemetry-out", *telemOut != ""},
	}
	if *sweep {
		rejectFlags("-sweep", append(localOnly, modeFlag{"-json", *jsonOut}, modeFlag{"-spec", *specFile != ""}))
		runSweep(spec, engine)
		return
	}

	if *specFile != "" {
		if spec, err = readSpecFile(*specFile); err != nil {
			fatalf("%v", err)
		}
	}
	if engine.Remote != "" {
		rejectFlags("-remote", localOnly)
		runRemote(engine, spec, *jsonOut)
		return
	}

	// The phase trace is wall-clock instrumentation of the CLI itself —
	// the same span layer the daemon uses per job — and never touches
	// the simulation, so results and digests are identical with or
	// without -telemetry-out.
	var tr *telemetry.Trace
	if *telemOut != "" {
		tr = telemetry.New("delrepsim", telemetry.A("gpu", spec.GPU), telemetry.A("cpu", spec.CPU))
	}
	resolveSpan := tr.Root().Start("resolve")
	cfg, norm, err := spec.Resolve()
	if err != nil {
		fatalf("%v", err)
	}
	resolveSpan.End()

	buildSpan := tr.Root().Start("build")
	sys := core.NewSystem(cfg, norm.GPU, norm.CPU)
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
	buildSpan.End()
	runSpan := tr.Root().Start("simulate")
	r := sys.RunWorkload()
	runSpan.Set("cycles", r.Cycles)
	runSpan.End()
	flushSpan := tr.Root().Start("flush")
	flushObserver(observer, *metricsOut, *traceOut)
	flushSpan.End()
	if tr != nil {
		tr.End()
		writeFile(*telemOut, tr.WriteChrome)
	}
	if profile != nil {
		// Stderr, so -json on stdout stays the canonical Result bytes.
		fmt.Fprint(os.Stderr, profile.String())
	}

	printRun(cfg, simspec.NewResult(norm, r, sys.StatsDigest()), *jsonOut)
	if *jsonOut {
		return
	}
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

// runSweep runs the cross product of the comma-separated -gpu, -cpu
// and -scheme lists as one figure and prints its table: one row per
// run, schemes outermost, then GPU, then CPU benchmarks. With -remote,
// cache-missing points run on the fleet; the table is byte-identical
// either way.
func runSweep(base simspec.Spec, engine *experiment.EngineFlags) {
	split := func(list string) []string {
		return strings.FieldsFunc(list, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
	}
	var points []simspec.Spec
	for _, scheme := range split(base.Scheme) {
		for _, g := range split(base.GPU) {
			for _, c := range split(base.CPU) {
				pt := base
				pt.Scheme, pt.GPU, pt.CPU = scheme, g, c
				points = append(points, pt)
			}
		}
	}
	if len(points) == 0 {
		fatalf("-sweep needs at least one GPU benchmark, one CPU benchmark and one scheme")
	}
	fig, err := experiment.Sweep(points)
	if err != nil {
		fatalf("%v", err)
	}
	eng, err := engine.Engine("delrepsim")
	if err != nil {
		fatalf("%v", err)
	}
	plan := experiment.NewPlan(false, base.Seed, eng)
	plan.Log = os.Stderr
	fmt.Print(plan.Eval(fig))
	if status := plan.Finish("delrepsim"); status != 0 {
		os.Exit(status)
	}
}

// pruneCache implements -cache-prune: shrink the on-disk result cache
// to the given size budget (oldest entries first) and report what was
// evicted.
func pruneCache(engine *experiment.EngineFlags, sizeSpec string) {
	maxBytes, err := runner.ParseSize(sizeSpec)
	if err != nil {
		fatalf("-cache-prune: %v", err)
	}
	cache, err := engine.OpenCache("delrepsim")
	if err != nil {
		fatalf("%v", err)
	}
	if cache == nil {
		fatalf("-cache-prune needs a cache (-cache is %q)", engine.Cache)
	}
	before, err := cache.Size()
	if err != nil {
		fatalf("sizing cache %s: %v", cache.Dir(), err)
	}
	removed, freed, err := cache.Prune(maxBytes)
	if err != nil {
		fatalf("pruning cache %s: %v", cache.Dir(), err)
	}
	fmt.Printf("cache %s: %d -> %d bytes, %d entries removed (%d bytes freed)\n",
		cache.Dir(), before, before-freed, removed, freed)
}

// printRun renders one finished run, as the canonical simspec.Result
// JSON or as the human-readable report. Shared by the local and
// -remote paths, so a remotely served result reads identically to a
// local one.
func printRun(cfg config.Config, res simspec.Result, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("encoding results: %v", err)
		}
		return
	}
	norm, r := res.Spec, res.Results
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

// writeFile creates path and fills it with write; any failure is fatal.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatalf("creating %s: %v", path, err)
	}
	err = write(f)
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
	if strings.HasSuffix(strings.ToLower(metricsOut), ".csv") {
		writeFile(metricsOut, o.Reg.WriteCSV)
	} else if metricsOut != "" {
		writeFile(metricsOut, o.Reg.WriteJSON)
	}
	if traceOut != "" {
		writeFile(traceOut, o.WriteTrace)
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
