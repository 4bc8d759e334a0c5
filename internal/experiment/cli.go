package experiment

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"delrep/internal/prof"
	"delrep/internal/runner"
)

// EngineFlags is the engine side of a command line, declared once for
// expdriver and delrepsim. Independent simulations run concurrently on
// -j workers and are memoized in the -cache directory ("auto": the
// per-user default or $DELREP_CACHE_DIR; "off": none), so a rerun with
// a warm cache performs zero simulations. None of it is run identity:
// stdout is byte-identical at any setting and any cache state;
// progress, timing, cache accounting and the failed-run report (spec,
// worker, error) go to stderr. Delegating cache misses to a daemon or
// fleet is not here: internal/remote binds -remote for the commands
// that can, and hands Engine its resolver.
type EngineFlags struct {
	Jobs       int
	Cache      string
	cpuProfile string
	memProfile string
}

// BindEngineFlags declares -j, -cache, -cpuprofile and -memprofile on
// the flag set.
func BindEngineFlags(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{}
	fs.IntVar(&f.Jobs, "j", runtime.GOMAXPROCS(0), "max concurrent simulations (≥ 1)")
	fs.StringVar(&f.Cache, "cache", "auto", `on-disk result cache: directory path, "auto" (per-user dir), or "off"`)
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// StartProfile starts the profiles asked for; call stop on clean exit.
func (f *EngineFlags) StartProfile() (stop func(), err error) {
	return prof.Start(f.cpuProfile, f.memProfile)
}

// OpenCache opens the -cache the flags name (nil for "off"). When
// "auto" has no usable directory it says so on stderr and returns nil.
func (f *EngineFlags) OpenCache(prog string) (*runner.DiskCache, error) {
	cache, uncached, err := runner.OpenCache(f.Cache)
	if uncached != nil {
		fmt.Fprintf(os.Stderr, "%s: %v; running uncached\n", prog, uncached)
	}
	return cache, err
}

// Engine builds the engine the flags describe, progress on stderr;
// cache misses go to remote when it is non-nil.
func (f *EngineFlags) Engine(prog string, remote runner.Resolver) (*runner.Engine, error) {
	if f.Jobs < 1 {
		return nil, fmt.Errorf("-j must be at least 1")
	}
	cache, err := f.OpenCache(prog)
	if err != nil {
		return nil, err
	}
	return runner.New(runner.Options{Workers: f.Jobs, Cache: cache, Progress: os.Stderr, Remote: remote}), nil
}

// Main is the figure driver, the whole of expdriver's main: it parses
// args on fs, selects the figures they name, renders them on stdout
// and returns the exit status (2 for a usage error, 1 when a figure
// was built on failed runs). remote, when non-nil, returns the
// resolver cache misses are delegated to; expremote binds -remote on
// fs and passes its Resolver, expdriver passes nil. Either way the
// driver reports as "expdriver", on stderr and to the endpoint's
// admission control.
func Main(fs *flag.FlagSet, args []string, remote func(prog string) (runner.Resolver, error)) int {
	const prog = "expdriver"
	var (
		quick  = fs.Bool("quick", false, "small windows and workload subset")
		warm   = fs.Int64("warm", 0, "override warmup cycles (≥ 0; 0 keeps the plan's)")
		cycles = fs.Int64("cycles", 0, "override measured cycles (≥ 0; 0 keeps the plan's)")
		seed   = fs.Int64("seed", 1, "random seed")
		engine = BindEngineFlags(fs)
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usageLine(fs))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		return 2
	}
	if *warm < 0 || *cycles < 0 {
		return fail(fmt.Errorf("-warm and -cycles must be at least 0"))
	}

	stopProf, err := engine.StartProfile()
	if err != nil {
		return fail(err)
	}
	defer stopProf()

	args = fs.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usageLine(fs))
		return 2
	}
	if len(args) == 1 && args[0] == "list" {
		for _, f := range Figures() {
			fmt.Printf("  %-8s %s\n", f.Name, f.About)
		}
		return 0
	}
	selected, err := Select(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n%s\n", prog, err, usageLine(fs))
		return 2
	}

	var res runner.Resolver
	if remote != nil {
		if res, err = remote(prog); err != nil {
			return fail(err)
		}
	}
	eng, err := engine.Engine(prog, res)
	if err != nil {
		return fail(err)
	}
	plan := NewPlan(*quick, *seed, eng)
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
	return plan.Finish(prog)
}

// Select returns the figures names asks for, in paper order and each
// once; "all" anywhere among them selects every figure. Any other name
// that is no figure's is an error naming each such name, so a typo
// fails before a simulation runs.
func Select(names []string) ([]Figure, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	all := want["all"]
	delete(want, "all")
	var selected []Figure
	for _, f := range Figures() {
		if all || want[f.Name] {
			selected = append(selected, f)
		}
		delete(want, f.Name)
	}
	if len(want) > 0 {
		var unknown []string
		for n := range want {
			unknown = append(unknown, n)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiments: %v", unknown)
	}
	return selected, nil
}

// usageLine is the one-line synopsis of the flags declared on fs.
func usageLine(fs *flag.FlagSet) string {
	var b strings.Builder
	b.WriteString("usage: " + fs.Name())
	fs.VisitAll(func(f *flag.Flag) {
		if arg, _ := flag.UnquoteUsage(f); arg != "" {
			fmt.Fprintf(&b, " [-%s %s]", f.Name, arg)
		} else {
			fmt.Fprintf(&b, " [-%s]", f.Name)
		}
	})
	b.WriteString(" <experiment>|all|list ...")
	return b.String()
}
