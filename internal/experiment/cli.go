package experiment

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"delrep/internal/jobapi"
	"delrep/internal/prof"
	"delrep/internal/runner"
	"delrep/internal/simspec"
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
		api := jobapi.NewClient(f.Remote, nil)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := api.Ready(ctx); err != nil {
			return nil, err
		}
		opts.Remote = &remote{api: api, client: prog, maxBusy: 60}
		fmt.Fprintf(os.Stderr, "%s: delegating cache misses to %s\n", prog, f.Remote)
	}
	return runner.New(opts), nil
}

// remote is the runner.Resolver behind -remote: a cache-missing run
// goes to the endpoint with ?wait=1, so the engine keeps its dedup,
// batch order, counters and local cache; a spec the wire form cannot
// carry is runner.ErrNotRemotable, run locally. A 429 is retried after
// its Retry-After, up to maxBusy times in a row, so a sweep faster than
// admission allows is paced, and a saturated endpoint still fails.
type remote struct {
	api     *jobapi.Client
	client  string // this program's name, sent with every submission
	maxBusy int
}

func (r *remote) Resolve(ctx context.Context, spec runner.Spec) (runner.Remote, error) {
	wire, err := simspec.FromConfig(spec.Cfg, spec.GPU, spec.CPU)
	if err != nil {
		return runner.Remote{}, fmt.Errorf("%w: %v", runner.ErrNotRemotable, err)
	}
	req := jobapi.SubmitRequest{Spec: wire, Client: r.client}
	for busy := 0; ; busy++ {
		view, err := r.api.Submit(ctx, req, true)
		var se *jobapi.StatusError
		if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || busy >= r.maxBusy {
			if err != nil {
				return runner.Remote{}, err
			}
			return remoteFromView(view)
		}
		select {
		case <-time.After(time.Duration(max(se.RetryAfter, 1)) * time.Second):
		case <-ctx.Done():
			return runner.Remote{}, ctx.Err()
		}
	}
}

// remoteFromView turns a terminal job view into the run it carries,
// counted under the source the remote end reports, as a local run
// against the same cache state would be.
func remoteFromView(view jobapi.JobView) (runner.Remote, error) {
	switch view.Status {
	case jobapi.StatusDone:
	case jobapi.StatusFailed:
		return runner.Remote{}, fmt.Errorf("remote job %s failed: %s", view.ID, view.Error)
	case jobapi.StatusCancelled:
		return runner.Remote{}, context.Canceled
	default:
		return runner.Remote{}, fmt.Errorf("remote job %s ended in unexpected state %q", view.ID, view.Status)
	}
	if view.Result == nil {
		return runner.Remote{}, fmt.Errorf("remote job %s: done without a result", view.ID)
	}
	digest, err := strconv.ParseUint(view.Result.Digest, 16, 64)
	if err != nil {
		return runner.Remote{}, fmt.Errorf("remote job %s: bad digest %q: %v", view.ID, view.Result.Digest, err)
	}
	src, err := runner.ParseSource(view.Source)
	if err != nil {
		return runner.Remote{}, fmt.Errorf("remote job %s: %v", view.ID, err)
	}
	return runner.Remote{Results: view.Result.Results, Digest: digest, Source: src, Worker: view.Worker}, nil
}
