package jobapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Client speaks the job API to one base URL: a delrepd daemon, a
// delrepfleet coordinator, or one of the coordinator's workers. It
// makes the calls and decides nothing about their answers: a non-2xx
// answer comes back as a *StatusError, and whether to wait, retry, fail
// over or give up is the caller's.
type Client struct {
	base   string
	http   *http.Client // every call but Events
	stream *http.Client // Events: a stream lasts as long as its job
}

// NewClient builds a client for base, trailing slashes dropped. httpc
// may be nil for one without an overall timeout (a ?wait submission
// can legitimately take minutes; per-call bounds come from the
// contexts). Events never has an overall timeout: it uses httpc's
// transport without one.
func NewClient(base string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = &http.Client{}
	}
	stream := &http.Client{Transport: httpc.Transport}
	return &Client{base: strings.TrimRight(base, "/"), http: httpc, stream: stream}
}

// StatusError is an answer outside 2xx: the call, its status code, the
// Retry-After seconds when the server sent them, and the message of the
// error envelope (else the body's text).
type StatusError struct {
	Base, Op   string
	Code       int
	RetryAfter int
	Message    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s: %s answered %d: %s", e.Base, e.Op, e.Code, e.Message)
}

// Code is the status code of the *StatusError in err's chain, 0 when
// there is none (a transport or decoding error, or nil).
func Code(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

// Submit posts req to /v1/jobs. With wait the answer is the job's
// terminal view (?wait=1), else the view it was accepted with.
func (c *Client) Submit(ctx context.Context, req SubmitRequest, wait bool) (v JobView, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return v, err
	}
	path := "/v1/jobs"
	if wait {
		path += "?wait=1"
	}
	err = c.do(ctx, http.MethodPost, path, "submit", body, &v)
	return v, err
}

// Job fetches the job's current view.
func (c *Client) Job(ctx context.Context, id string) (v JobView, err error) {
	err = c.do(ctx, http.MethodGet, "/v1/jobs/"+id, "get job", nil, &v)
	return v, err
}

// Cancel asks for the job's cancellation. A job that was already
// terminal answers 409.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, "cancel", nil, nil)
}

// Events follows the job's event stream, calling fn per event as
// ReadEvents does, until fn returns false or the stream ends.
func (c *Client) Events(ctx context.Context, id string, fn func(name string, data []byte) bool) error {
	resp, err := c.send(ctx, c.stream, http.MethodGet, "/v1/jobs/"+id+"/events", "events", nil, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return ReadEvents(resp.Body, fn)
}

// Cache fetches the cached result at a content address. With
// revalidate the request carries the address as If-None-Match, and a
// 304 (the caller's copy is still the entry) answers a nil entry and no
// error. A miss is a *StatusError with Code 404.
func (c *Client) Cache(ctx context.Context, addr string, revalidate bool) (*CacheEntry, error) {
	etag := ""
	if revalidate {
		etag = `"` + addr + `"`
	}
	resp, err := c.send(ctx, c.http, http.MethodGet, "/v1/cache/"+addr, "cache", nil, etag)
	if err != nil {
		return nil, err
	}
	defer discard(resp)
	if resp.StatusCode == http.StatusNotModified {
		return nil, nil
	}
	entry := new(CacheEntry) // not before: a 304 is the hot path
	if err := json.NewDecoder(resp.Body).Decode(entry); err != nil {
		return nil, fmt.Errorf("%s: decoding the cache answer: %v", c.base, err)
	}
	return entry, nil
}

// Ready probes /readyz: nil while the endpoint accepts jobs.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", "readyz", nil, nil)
}

// do makes one call and decodes the JSON of its answer into out (nil
// drops the body).
func (c *Client) do(ctx context.Context, method, path, op string, body []byte, out any) error {
	resp, err := c.send(ctx, c.http, method, path, op, body, "")
	if err != nil {
		return err
	}
	defer discard(resp)
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s: decoding the %s answer: %v", c.base, op, err)
		}
	}
	return nil
}

// send sends one request. A 2xx answer, or a 304 to a conditional one
// (etag set), comes back open; any other answer is read into a
// *StatusError and closed.
func (c *Client) send(ctx context.Context, hc *http.Client, method, path, op string, body []byte, etag string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 || resp.StatusCode == http.StatusNotModified && etag != "" {
		return resp, nil
	}
	defer discard(resp)
	after, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	return nil, &StatusError{Base: c.base, Op: op, Code: resp.StatusCode, RetryAfter: after, Message: errorMessage(resp.Body)}
}

// errorMessage is the message of an error answer: the envelope's, else
// the body's first 200 bytes of text.
func errorMessage(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 1<<16))
	var env ErrorBody
	if json.Unmarshal(b, &env) != nil || env.Error == "" {
		env.Error = strings.TrimSpace(string(b[:min(len(b), 200)]))
	}
	return env.Error
}

// discard drains and closes a body, so its connection can be reused.
func discard(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
