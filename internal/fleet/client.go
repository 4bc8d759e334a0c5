package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"delrep/internal/runner"
	"delrep/internal/serve"
	"delrep/internal/simspec"
)

// Client submits simulations to a remote /v1/jobs endpoint — a fleet
// coordinator or a single delrepd; the wire API is identical — and
// implements runner.Resolver, so an Engine built with Options.Remote
// delegates cache-missing runs to the fleet while keeping its dedup,
// batch ordering, counters, and local disk cache.
type Client struct {
	base string
	name string // client identity sent with every submission
	http *http.Client
	// maxBusy bounds consecutive 429-and-wait cycles per submission
	// before giving up, so a permanently saturated fleet fails loudly
	// instead of retrying forever.
	maxBusy int
}

// NewClient builds a client for the coordinator (or daemon) at base.
// name identifies this client to fleet admission control; httpc may be
// nil for a default without an overall timeout (jobs can legitimately
// run for minutes; per-call bounds come from the submission contexts).
func NewClient(base, name string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = &http.Client{}
	}
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base, name: name, http: httpc, maxBusy: 60}
}

// Resolve implements runner.Resolver: express the spec in wire form,
// submit it with ?wait=1, and decode the terminal job view. Specs the
// wire form cannot carry return ErrNotRemotable, telling the engine to
// run them locally.
func (c *Client) Resolve(ctx context.Context, spec runner.Spec) (runner.Remote, error) {
	wire, err := simspec.FromConfig(spec.Cfg, spec.GPU, spec.CPU)
	if err != nil {
		return runner.Remote{}, fmt.Errorf("%w: %v", runner.ErrNotRemotable, err)
	}
	view, err := c.Submit(ctx, wire)
	if err != nil {
		return runner.Remote{}, err
	}
	return remoteFromView(view)
}

// Submit posts one spec with ?wait=1 and returns the terminal job
// view. 429 responses are retried after the server's Retry-After
// (bounded), so sweeps submitted faster than fleet admission allows
// degrade to pacing, not failure.
func (c *Client) Submit(ctx context.Context, spec simspec.Spec) (serve.JobView, error) {
	body, err := json.Marshal(serve.SubmitRequest{Spec: spec, Client: c.name})
	if err != nil {
		return serve.JobView{}, err
	}
	for busy := 0; ; busy++ {
		view, retryAfter, err := c.submitOnce(ctx, body)
		if err == nil {
			return view, nil
		}
		if retryAfter <= 0 || busy >= c.maxBusy {
			return serve.JobView{}, err
		}
		select {
		case <-time.After(time.Duration(retryAfter) * time.Second):
		case <-ctx.Done():
			return serve.JobView{}, ctx.Err()
		}
	}
}

// submitOnce performs one POST ?wait=1 round trip. A positive
// retryAfter with a non-nil error means admission pushback (retry
// later); retryAfter 0 means the error is final for this attempt.
func (c *Client) submitOnce(ctx context.Context, body []byte) (view serve.JobView, retryAfter int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return view, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return view, 0, fmt.Errorf("fleet %s: %w", c.base, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			return view, 0, fmt.Errorf("fleet %s: decoding job view: %v", c.base, err)
		}
		return view, 0, nil
	case http.StatusTooManyRequests:
		after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		if after < 1 {
			after = 1
		}
		return view, after, fmt.Errorf("fleet %s: admission pushback (429)", c.base)
	default:
		return view, 0, fmt.Errorf("fleet %s: submit answered %d: %s",
			c.base, resp.StatusCode, readErrorBody(resp.Body))
	}
}

// remoteFromView converts a terminal job view into the engine's
// runner.Remote, validating that it actually carries a result.
func remoteFromView(view serve.JobView) (runner.Remote, error) {
	switch view.Status {
	case serve.StatusDone:
	case serve.StatusFailed:
		return runner.Remote{}, fmt.Errorf("fleet job %s failed: %s", view.ID, view.Error)
	case serve.StatusCancelled:
		return runner.Remote{}, context.Canceled
	default:
		return runner.Remote{}, fmt.Errorf("fleet job %s ended in unexpected state %q", view.ID, view.Status)
	}
	if view.Result == nil {
		return runner.Remote{}, fmt.Errorf("fleet job %s: done without a result", view.ID)
	}
	digest, err := strconv.ParseUint(view.Result.Digest, 16, 64)
	if err != nil {
		return runner.Remote{}, fmt.Errorf("fleet job %s: bad digest %q: %v", view.ID, view.Result.Digest, err)
	}
	src, err := parseSource(view.Source)
	if err != nil {
		return runner.Remote{}, fmt.Errorf("fleet job %s: %v", view.ID, err)
	}
	return runner.Remote{
		Results: view.Result.Results,
		Digest:  digest,
		Source:  src,
		Worker:  view.Worker,
	}, nil
}

// parseSource maps the wire source string back to runner.Source. The
// engine counts remote resolutions under the source the fleet reports,
// so sweep accounting (and expdriver's per-figure run counts) stays
// identical to a local run against the same cache state.
func parseSource(s string) (runner.Source, error) {
	switch s {
	case "executed":
		return runner.SourceExecuted, nil
	case "memo":
		return runner.SourceMemo, nil
	case "disk":
		return runner.SourceDisk, nil
	}
	return 0, fmt.Errorf("unknown result source %q", s)
}

// Ping checks that the remote endpoint is alive and ready, for a fast
// clear failure at CLI startup instead of a hung first submission.
func (c *Client) Ping(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("fleet %s: %w", c.base, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet %s: not ready (readyz answered %d)", c.base, resp.StatusCode)
	}
	return nil
}

var _ runner.Resolver = (*Client)(nil)
