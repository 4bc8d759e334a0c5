// Package jobapi is the /v1 job API's wire format in one place: the
// JSON types delrepd and delrepfleet answer with, the {"error": …}
// envelope, the event framing of GET /v1/jobs/{id}/events, and Client,
// the one HTTP client that speaks them. internal/serve renders the
// types (its package comment is the route table); the coordinator's
// worker calls, its registry's readiness probe and the CLIs' -remote
// all go through Client. It imports only simspec and core, so a
// command that talks to a daemon links neither daemon nor coordinator.
package jobapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"delrep/internal/core"
	"delrep/internal/simspec"
)

// Status is a job's lifecycle state. Transitions are monotonic:
// queued → running → {done, failed, cancelled}, with queued → terminal
// allowed for jobs that end before anything ran them (cancelled while
// waiting, drained at shutdown, answered from the fleet's cache tier).
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// SubmitRequest is the POST /v1/jobs body. The coordinator forwards it
// (spec as submitted, priority, client) verbatim to the worker it
// routes the job to.
type SubmitRequest struct {
	Spec     simspec.Spec `json:"spec"`
	Priority string       `json:"priority,omitempty"`
	Client   string       `json:"client,omitempty"`
}

// ProgressView is the running-job progress fragment of a job view, and
// the payload of a "progress" event.
type ProgressView struct {
	CyclesDone  int64 `json:"cycles_done"`
	CyclesTotal int64 `json:"cycles_total"`
}

// JobView is the JSON rendering of a job, the one wire form of the
// /v1/jobs surface whichever executor is behind it, and the payload of
// a "status" event.
type JobView struct {
	ID       string          `json:"id"`
	Status   Status          `json:"status"`
	Priority string          `json:"priority"`
	Client   string          `json:"client,omitempty"`
	Spec     simspec.Spec    `json:"spec"`
	Created  string          `json:"created"`
	Started  string          `json:"started,omitempty"`
	Finished string          `json:"finished,omitempty"`
	Source   string          `json:"source,omitempty"`
	Error    string          `json:"error,omitempty"`
	Progress *ProgressView   `json:"progress,omitempty"`
	Result   *simspec.Result `json:"result,omitempty"`
	// Worker is the base URL of the worker daemon that served the job.
	// Only the fleet coordinator sets it; a single delrepd leaves it
	// empty (it is its own worker).
	Worker string `json:"worker,omitempty"`
}

// CacheEntry is one cached result as GET /v1/cache/{key} serves it:
// results and digest as in simspec.Result, without the spec, which the
// caller that addressed the entry by content already holds.
type CacheEntry struct {
	Results core.Results `json:"results"`
	Digest  string       `json:"digest"`
}

// ErrorBody is the envelope every non-2xx JSON answer carries.
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteEvent writes one server-sent event: name, then v as one line of
// JSON (which never contains a raw newline), then the blank line that
// ends the event.
func WriteEvent(w io.Writer, name string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, b)
	return err
}

// ReadEvents parses a text/event-stream, calling fn once per event with
// its name and its data lines concatenated; fn returning false stops the
// read. A blank line with nothing before it is no event. It returns the
// stream's error, nil at a clean end.
func ReadEvents(r io.Reader, fn func(name string, data []byte) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var name string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if name != "" || len(data) > 0 {
				if !fn(name, data) {
					return nil
				}
			}
			name, data = "", nil
		case len(line) > 7 && line[:7] == "event: ":
			name = line[7:]
		case len(line) > 6 && line[:6] == "data: ":
			data = append(data, line[6:]...)
		}
	}
	return sc.Err()
}
