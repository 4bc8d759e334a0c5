// Package remote is -remote: the flag, the readiness ping and the
// runner.Resolver that sends cache-missing simulations to a delrepd
// daemon or a delrepfleet coordinator. Only the commands that can
// delegate (delrepsim, expremote) import it, so the local figure
// driver, expdriver, links no network code at all.
package remote

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"time"

	"delrep/internal/jobapi"
	"delrep/internal/runner"
	"delrep/internal/simspec"
)

// Flag is -remote URL: points the wire spec can express run on the
// endpoint, exotic sensitivity points run locally. Like the engine
// flags it is not run identity: stdout is byte-identical either way.
type Flag struct {
	URL string
}

// Bind declares -remote on the flag set.
func Bind(fs *flag.FlagSet) *Flag {
	f := &Flag{}
	fs.StringVar(&f.URL, "remote", "", "run cache-missing simulations on a delrepd or delrepfleet endpoint at this base URL")
	return f
}

// Resolver returns the resolver for experiment.EngineFlags.Engine:
// nil without -remote. The endpoint is pinged first, so a dead one
// fails here instead of hanging the first submission; prog names this
// client to its admission control.
func (f *Flag) Resolver(prog string) (runner.Resolver, error) {
	if f.URL == "" {
		return nil, nil
	}
	api := jobapi.NewClient(f.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := api.Ready(ctx); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: delegating cache misses to %s\n", prog, f.URL)
	return &resolver{api: api, client: prog, maxBusy: 60}, nil
}

// resolver is the runner.Resolver behind -remote: a cache-missing run
// goes to the endpoint with ?wait=1, so the engine keeps its dedup,
// batch order, counters and local cache; a spec the wire form cannot
// carry is runner.ErrNotRemotable, run locally. A 429 is retried after
// its Retry-After, up to maxBusy times in a row, so a sweep faster than
// admission allows is paced, and a saturated endpoint still fails.
type resolver struct {
	api     *jobapi.Client
	client  string // this program's name, sent with every submission
	maxBusy int
}

func (r *resolver) Resolve(ctx context.Context, spec runner.Spec) (runner.Remote, error) {
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
			return fromView(view)
		}
		select {
		case <-time.After(time.Duration(max(se.RetryAfter, 1)) * time.Second):
		case <-ctx.Done():
			return runner.Remote{}, ctx.Err()
		}
	}
}

// fromView turns a terminal job view into the run it carries, counted
// under the source the remote end reports, as a local run against the
// same cache state would be.
func fromView(view jobapi.JobView) (runner.Remote, error) {
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
