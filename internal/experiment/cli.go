package experiment

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"

	"delrep/internal/fleet"
	"delrep/internal/prof"
	"delrep/internal/runner"
)

// EngineFlags is the engine side of a command line, declared once for
// expdriver and delrepsim. Independent simulations run concurrently on
// -j workers and are memoized in the -cache directory ("auto": the
// per-user default or $DELREP_CACHE_DIR; "off": none), so a rerun with
// a warm cache performs zero simulations. -remote URL delegates
// cache-missing simulations to a delrepd daemon or a delrepfleet
// coordinator: points the wire spec can express run there, exotic
// sensitivity points run locally. None of it is run identity: stdout
// is byte-identical at any setting and any cache state; progress,
// timing, cache accounting and the failed-run report (spec, worker,
// error) go to stderr.
type EngineFlags struct {
	Jobs       int
	Cache      string
	Remote     string
	cpuProfile string
	memProfile string
}

// BindEngineFlags declares -j, -cache, -remote, -cpuprofile and
// -memprofile on the flag set.
func BindEngineFlags(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{}
	fs.IntVar(&f.Jobs, "j", runtime.GOMAXPROCS(0), "max concurrent simulations")
	fs.StringVar(&f.Cache, "cache", "auto", `on-disk result cache: directory path, "auto" (per-user dir), or "off"`)
	fs.StringVar(&f.Remote, "remote", "", "run cache-missing simulations on a delrepd or delrepfleet endpoint at this base URL")
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

// Engine builds the engine the flags describe, progress on stderr. A
// -remote endpoint is pinged first, so a dead one fails here instead of
// hanging the first submission; prog names this client to its
// admission control.
func (f *EngineFlags) Engine(prog string) (*runner.Engine, error) {
	cache, err := f.OpenCache(prog)
	if err != nil {
		return nil, err
	}
	opts := runner.Options{Workers: f.Jobs, Cache: cache, Progress: os.Stderr}
	if f.Remote != "" {
		client := fleet.NewClient(f.Remote, prog, nil)
		if err := client.Ping(context.Background()); err != nil {
			return nil, err
		}
		opts.Remote = client
		fmt.Fprintf(os.Stderr, "%s: delegating cache misses to %s\n", prog, f.Remote)
	}
	return runner.New(opts), nil
}
