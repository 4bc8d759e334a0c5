// Command expdriver regenerates every table and figure of the paper's
// evaluation. Each subcommand reproduces one experiment and prints an
// aligned table, including the paper's reference values where the paper
// states them, so shape can be compared directly.
//
// Usage:
//
//	expdriver [-quick] [-j N] [-cache DIR|auto|off] [-warm N] [-cycles N] <experiment> [...]
//	expdriver all            # every experiment in paper order
//	expdriver list           # list experiments
//
// -quick shrinks the simulation windows and the workload set; use it to
// validate the harness before a full run.
//
// Independent simulations run concurrently on -j workers (default
// GOMAXPROCS) and are memoized on disk, so a rerun with a warm cache
// performs zero simulations. -parallel N additionally ticks each
// simulation on N workers (network tiles + node shards, DESIGN.md
// §11) — useful when a figure has fewer independent runs than the
// machine has cores. Everything printed to stdout is byte-identical at
// any -j or -parallel value and any cache state; progress, timing, and
// cache accounting go to stderr.
//
// -remote URL delegates cache-missing simulations to a delrepd daemon
// or a delrepfleet coordinator (see cmd/delrepfleet): points the wire
// spec can express run on the fleet, exotic sensitivity points run
// locally, and stdout remains byte-identical to a fully local run.
// On failure the exit summary names each failed spec, the worker that
// ran it, and the last error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"delrep/internal/fleet"
	"delrep/internal/prof"
	"delrep/internal/runner"
)

// experiment is one reproducible table/figure.
type experiment struct {
	name  string
	about string
	run   func(*Runner)
}

func experiments() []experiment {
	return []experiment{
		{"tableI", "simulated CPU-GPU architecture parameters", tableI},
		{"tableII", "heterogeneous CPU-GPU workload pairings", tableII},
		{"fig2", "inter-core locality of GPU benchmarks", fig2},
		{"fig5", "NoC topology and bandwidth study (+ blocking rates)", fig5},
		{"fig6", "asymmetric VC partitioning (AVCP)", fig6},
		{"fig7", "adaptive routing schemes", fig7},
		{"fig9", "chip layout and routing policy study", fig9},
		{"fig10", "GPU performance: Delegated Replies vs RP vs baseline", fig10},
		{"fig11", "received data rate per GPU core", fig11},
		{"fig12", "CPU network latency", fig12},
		{"fig13", "CPU performance", fig13},
		{"fig14", "L1 miss breakdown (LLC hit / remote hit / remote miss)", fig14},
		{"fig15", "Delegated Replies on shared-L1 organisations", fig15},
		{"fig16", "Delegated Replies across NoC topologies", fig16},
		{"fig17", "GPU performance across chip layouts", fig17},
		{"fig18", "CPU performance across chip layouts", fig18},
		{"fig19", "sensitivity: L1/LLC size, NoC bandwidth, VCs, nodes, buffers", fig19},
		{"breakdown", "load latency attribution by phase (Figure 4 analogue)", breakdown},
		{"clog", "Figure-1 clog-detector narrative: baseline vs Delegated Replies", clogExp},
		{"nodemix", "CPU/GPU/memory node mix study", nodeMix},
		{"ablation", "Delegated Replies design-space ablations", ablation},
		{"energy", "NoC dynamic energy and system energy", energy},
		{"area", "NoC and mechanism area model (DSENT/CACTI analogue)", area},
	}
}

// openCache resolves the -cache flag: "off" disables the on-disk
// cache, "auto" selects the per-user default directory (and degrades
// to no cache if unavailable), anything else is a directory path.
func openCache(flagVal string) *runner.DiskCache {
	switch flagVal {
	case "off":
		return nil
	case "auto":
		dir, err := runner.DefaultCacheDir()
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: no user cache dir (%v); running uncached\n", err)
			return nil
		}
		c, err := runner.OpenDiskCache(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: opening cache %s: %v; running uncached\n", dir, err)
			return nil
		}
		return c
	default:
		c, err := runner.OpenDiskCache(flagVal)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: opening cache %s: %v\n", flagVal, err)
			os.Exit(2)
		}
		return c
	}
}

func main() {
	var (
		quick    = flag.Bool("quick", false, "small windows and workload subset")
		warm     = flag.Int64("warm", 0, "override warmup cycles")
		cycles   = flag.Int64("cycles", 0, "override measured cycles")
		seed     = flag.Int64("seed", 1, "random seed")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "max concurrent simulations")
		parallel = flag.Int("parallel", 0, "intra-run workers per simulation (stdout is byte-identical at any value; 0/1 = inline on one)")
		cacheDir = flag.String("cache", "auto", `on-disk result cache: directory path, "auto" (per-user dir), or "off"`)
		remote   = flag.String("remote", "", "delegate cache-missing simulations to a delrepd or delrepfleet endpoint at this base URL")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
		os.Exit(2)
	}
	defer stopProf()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	if args[0] == "list" {
		for _, e := range experiments() {
			fmt.Printf("  %-8s %s\n", e.name, e.about)
		}
		return
	}

	cache := openCache(*cacheDir)
	var resolver runner.Resolver
	if *remote != "" {
		client := fleet.NewClient(*remote, "expdriver", nil)
		if err := client.Ping(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
			os.Exit(2)
		}
		resolver = client
		fmt.Fprintf(os.Stderr, "expdriver: delegating cache misses to %s\n", *remote)
	}
	eng := runner.New(runner.Options{Workers: *jobs, RunParallel: *parallel, Cache: cache, Progress: os.Stderr, Remote: resolver})
	r := NewRunner(*quick, *seed, eng)
	if *warm > 0 {
		r.Warm = *warm
	}
	if *cycles > 0 {
		r.Measure = *cycles
	}

	want := map[string]bool{}
	if args[0] == "all" {
		for _, e := range experiments() {
			want[e.name] = true
		}
	} else {
		for _, a := range args {
			want[a] = true
		}
	}
	known := map[string]bool{}
	for _, e := range experiments() {
		known[e.name] = true
	}
	var unknown []string
	for a := range want {
		if !known[a] {
			unknown = append(unknown, a)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "expdriver: unknown experiments: %v\n", unknown)
		usage()
		os.Exit(2)
	}
	// failureDetail pairs each figure with the failed runs it consumed,
	// for the exit summary: which spec failed, on which worker, and why.
	type figureFailures struct {
		figure string
		runs   []runner.Run
	}
	var failureDetail []figureFailures
	var failed int64
	for _, e := range experiments() {
		if !want[e.name] {
			continue
		}
		start := time.Now()
		before := eng.Counters()
		failsBefore := len(eng.Failures())
		obsBefore, simsBefore := r.observed, r.obsSims

		fmt.Printf("### %s — %s\n\n", e.name, e.about)
		e.run(r)

		// The run count on stdout is the number of results the figure
		// consumed — identical however they were obtained — so stdout
		// stays byte-identical across -j values and cache states.
		// The variable accounting (simulated vs cached vs shared, and
		// wall-clock) goes to stderr.
		after := eng.Counters()
		delivered := int(after.Executed+after.DiskHits+after.MemoHits-
			before.Executed-before.DiskHits-before.MemoHits) + r.observed - obsBefore
		fmt.Printf("(%s, %d runs)\n\n", e.name, delivered)
		fmt.Fprintf(os.Stderr, "  %s: %d simulated, %d from disk cache, %d shared in-process, %s\n",
			e.name,
			after.Executed-before.Executed+int64(r.obsSims-simsBefore),
			after.DiskHits-before.DiskHits+int64((r.observed-obsBefore)-(r.obsSims-simsBefore)),
			after.MemoHits-before.MemoHits,
			time.Since(start).Round(time.Second))
		if d := after.Failed - before.Failed; d > 0 {
			failed += d
			fmt.Fprintf(os.Stderr, "  %s: %d simulation(s) FAILED\n", e.name, d)
		}
		if fails := eng.Failures(); len(fails) > failsBefore {
			failureDetail = append(failureDetail, figureFailures{e.name, fails[failsBefore:]})
		}
	}

	c := eng.Counters()
	where := "off"
	if cache != nil {
		where = cache.Dir()
	}
	fmt.Fprintf(os.Stderr, "expdriver: %d simulations executed, %d disk-cache hits, %d in-process shares (-j %d, cache %s)\n",
		c.Executed+int64(r.obsSims), c.DiskHits+int64(r.observed-r.obsSims), c.MemoHits,
		eng.Workers(), where)
	// A figure built on failed runs is quietly wrong; make the failure
	// impossible to miss in scripts and CI, and say exactly which spec
	// broke, where it ran, and why, so a fleet-wide sweep failure is
	// debuggable from the exit output alone.
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "expdriver: %d simulation(s) failed:\n", failed)
		for _, fd := range failureDetail {
			for _, run := range fd.runs {
				where := run.Worker
				if where == "" {
					where = "local"
				}
				fmt.Fprintf(os.Stderr, "  %s: %s+%s %s seed=%d (key %s) on %s: %v\n",
					fd.figure, run.Spec.GPU, run.Spec.CPU, run.Spec.Cfg.Scheme,
					run.Spec.Cfg.Seed,
					runner.KeyHash(run.Spec.Cfg, run.Spec.GPU, run.Spec.CPU),
					where, run.Err)
			}
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: expdriver [-quick] [-j N] [-parallel N] [-cache DIR|auto|off] [-warm N] [-cycles N] <experiment>|all|list ...")
}
