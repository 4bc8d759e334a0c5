// Command expdriver regenerates every table and figure of the paper's
// evaluation. Each subcommand evaluates one Figure value of
// internal/experiment and prints its tables, with the paper's reference
// values where the paper states them, so shape can be compared directly.
//
// Usage:
//
//	expdriver [-quick] [-warm N] [-cycles N] [-seed N] [engine flags] <experiment> [...]
//	expdriver all            # every experiment in paper order
//	expdriver list           # list experiments
//
// -quick shrinks the simulation windows and the workload set; use it to
// validate the harness before a full run. The engine flags (-j, -cache,
// -remote, the profiles) are experiment.EngineFlags, shared with
// delrepsim and described there; stdout is byte-identical at any
// setting of them.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"delrep/internal/experiment"
)

func main() {
	var (
		quick  = flag.Bool("quick", false, "small windows and workload subset")
		warm   = flag.Int64("warm", 0, "override warmup cycles")
		cycles = flag.Int64("cycles", 0, "override measured cycles")
		seed   = flag.Int64("seed", 1, "random seed")
		engine = experiment.BindEngineFlags(flag.CommandLine)
	)
	flag.Parse()

	stopProf, err := engine.StartProfile()
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	figures := experiment.Figures()
	if args[0] == "list" {
		for _, f := range figures {
			fmt.Printf("  %-8s %s\n", f.Name, f.About)
		}
		return
	}

	// "all" as the first argument selects every figure; otherwise each
	// argument must name one, and they run in paper order.
	all := args[0] == "all"
	want := map[string]bool{}
	for _, a := range args {
		want[a] = true
	}
	var selected []experiment.Figure
	for _, f := range figures {
		if all || want[f.Name] {
			selected = append(selected, f)
		}
		delete(want, f.Name)
	}
	if !all && len(want) > 0 {
		var unknown []string
		for a := range want {
			unknown = append(unknown, a)
		}
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "expdriver: unknown experiments: %v\n", unknown)
		usage()
		os.Exit(2)
	}

	eng, err := engine.Engine("expdriver")
	if err != nil {
		fatalf("%v", err)
	}
	plan := experiment.NewPlan(*quick, *seed, eng)
	plan.Log = os.Stderr
	if *warm > 0 {
		plan.Warm = *warm
	}
	if *cycles > 0 {
		plan.Measure = *cycles
	}
	for _, f := range selected {
		plan.Render(os.Stdout, f)
	}
	if status := plan.Finish("expdriver"); status != 0 {
		os.Exit(status)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: expdriver [-quick] [-j N] [-cache DIR|auto|off] [-warm N] [-cycles N] <experiment>|all|list ...")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "expdriver: "+format+"\n", args...)
	os.Exit(2)
}
