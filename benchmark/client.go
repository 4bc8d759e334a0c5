package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"delrep/internal/serve"
)

// jobReply is the part of a serve.JobView the load generator reads.
type jobReply struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Source string `json:"source"`
	Worker string `json:"worker"`
	Error  string `json:"error"`
	Result *struct {
		Digest string `json:"digest"`
	} `json:"result"`
}

// reqResult is one request as the client saw it.
type reqResult struct {
	spec       int
	start, end time.Time
	reply      jobReply
	err        error // transport error, non-200, or a job that is not done
}

func (r reqResult) latency() time.Duration { return r.end.Sub(r.start) }

// loadClient is the closed-loop load generator: `clients` goroutines,
// each sending its next POST /v1/jobs?wait=1 only after the previous
// reply arrived, as expdriver -remote does.
type loadClient struct {
	url     string
	http    *http.Client
	bodies  [][]byte // one encoded serve.SubmitRequest per spec
	clients int
}

func newLoadClient(base string, cases []simCase, clients int) *loadClient {
	return &loadClient{
		url:     base + "/v1/jobs?wait=1",
		bodies:  submitBodies(cases),
		clients: clients,
		http: &http.Client{
			Timeout:   120 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: clients},
		},
	}
}

// submitBodies encodes one serve.SubmitRequest per spec.
func submitBodies(cases []simCase) [][]byte {
	bodies := make([][]byte, len(cases))
	for i, c := range cases {
		b, err := json.Marshal(serve.SubmitRequest{Spec: c.spec, Client: "benchmark"})
		if err != nil {
			panic(err) // a struct of strings and integers always encodes
		}
		bodies[i] = b
	}
	return bodies
}

func (lc *loadClient) close() { lc.http.CloseIdleConnections() }

// submit sends one request and waits for its result.
func (lc *loadClient) submit(spec int) reqResult {
	r := reqResult{spec: spec, start: time.Now()}
	resp, err := lc.http.Post(lc.url, "application/json", bytes.NewReader(lc.bodies[spec]))
	if err != nil {
		r.end, r.err = time.Now(), err
		return r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	switch {
	case err != nil:
		r.err = err
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, body)
	default:
		if err := json.Unmarshal(body, &r.reply); err != nil {
			r.err = err
		} else if r.reply.Status != string(serve.StatusDone) || r.reply.Result == nil {
			r.err = fmt.Errorf("job %s ended %q: %s", r.reply.ID, r.reply.Status, r.reply.Error)
		}
	}
	return r
}

// run sends the requests in order (by spec index) from the client
// goroutines and returns every result with the wall time of the whole
// list. With a recorder, each request is one span on its spec's track.
func (lc *loadClient) run(order []int, rec *recorder, parent spanID) ([]reqResult, time.Duration) {
	out := make([]reqResult, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < lc.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				s := rec.begin("client.request", parent, uint64(order[i]+1))
				out[i] = lc.submit(order[i])
				rec.end(s)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// httpGet fetches a URL and returns the body of a 200 answer.
func httpGet(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return b, nil
}
