package main

import (
	"os"
	"sort"
	"sync"
	"time"

	"delrep/internal/obs"
)

// recorder keeps the traced run's spans in memory: one per call into a
// layer, with the span that caused it and the job it belongs to. It is
// written out once, at exit, through the repo's own Chrome trace
// encoder. A nil recorder records nothing, which is how the untraced
// run (and the untraced half of the overhead measurement) executes the
// same code path.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed call. parent is an index into recorder.spans (-1
// for a root); spans of one job share its id.
type span struct {
	name       string
	parent     spanID
	job        uint64
	start, end time.Duration // since recorder.t0
}

type spanID int

const noSpan spanID = -1

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now.
func (r *recorder) begin(name string, parent spanID, job uint64) spanID {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, job: job, start: now, end: -1})
	return spanID(len(r.spans) - 1)
}

// end closes a span now.
func (r *recorder) end(id spanID) {
	if r == nil || id == noSpan {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// add records a span whose endpoints were stamped by the caller (cycle
// windows reported through RunControl.OnProgress).
func (r *recorder) add(name string, parent spanID, job uint64, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, parent: parent, job: job, start: start.Sub(r.t0), end: end.Sub(r.t0)})
	r.mu.Unlock()
}

// durations returns the duration of every closed span with the name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent != noSpan && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string]time.Duration{}
	for i, s := range r.spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start - child[i]
		if d < 0 {
			d = 0 // children that ran concurrently cover more than the parent
		}
		self[s.name] += d
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON: one track
// per job id, so the spans of one job line up under each other.
func (r *recorder) writeChrome(path string) error {
	r.mu.Lock()
	evs := make([]obs.Event, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		ev := obs.Event{
			Name: s.name, Phase: "X", Cat: "benchmark",
			TS: s.start.Microseconds(), Dur: (s.end - s.start).Microseconds(),
			PID: 0, TID: s.job,
			Args: map[string]any{"job": s.job},
		}
		if s.parent != noSpan {
			ev.Args["parent"] = r.spans[s.parent].name
		}
		evs = append(evs, ev)
	}
	r.mu.Unlock()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
