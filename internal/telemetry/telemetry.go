// Package telemetry is the serving stack's span layer: a per-job tree
// of wall-clock timed spans covering the job lifecycle —
//
//	http.receive → admission → queue.wait → runner.submit →
//	{dedup.join | cache.lookup → engine.run[window…]} → encode → reply
//
// — recorded entirely outside the simulation clock. The simulator
// never reads a span and a span never feeds a digest input, so traces
// are inert by construction: enabling telemetry cannot perturb a
// result (internal/serve's inertness test proves it bit-for-bit).
//
// The layer is zero-overhead when disabled: a nil *Trace and a nil
// *Span are valid receivers whose every method is a no-op, so
// instrumented code calls straight through without guards and the
// disabled path costs a nil check.
//
// Span trees export as Chrome trace-event JSON via the shared encoder
// in internal/obs, so a served job's timeline and its in-sim packet
// trace open in the same viewer (Perfetto / chrome://tracing).
package telemetry

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"
)

// MaxSpans bounds one trace's span count so a pathological job (a
// 500M-cycle run reporting a window per checkpoint) cannot balloon the
// job table; once reached, Start returns nil and the trace
// counts the drop.
const MaxSpans = 512

// Attr is one key/value annotation on a span. Its value is a string,
// an int, an int64 or a bool; a value of any other kind is recorded as
// its fmt.Sprint text.
type Attr struct {
	Key   string
	Value any
}

// A builds an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// epoch is what trace times count from: nanoseconds on the monotonic
// clock since the process started. Telemetry time is deliberately
// outside the simulation clock; spans never feed simulated behaviour or
// digest inputs.
var epoch = time.Now()

// Trace is one job's span tree. The zero of *Trace (nil) is a valid,
// disabled trace: every method no-ops and Start returns a nil Span.
// All methods are safe for concurrent use.
//
// A job table keeps a trace per job and never evicts, so the tree is
// one append-only byte log that every view replays: Start, End and Set
// each append a record, and a trace may record after its root ended.
// An overwritten attr keeps its old record: set an attr once or twice
// per span, not once per loop iteration.
type Trace struct {
	mu        sync.Mutex
	n         int16 // spans recorded, the root included: at most MaxSpans
	rootEnded bool
	dropped   int32
	origin    time.Duration // the root span's start, since epoch
	last      time.Duration // the newest record's time, since origin
	log       []byte
	now       func() time.Time // SetClock's clock; nil reads time.Now
}

// A record is a tag byte and zigzag varints: a start holds the parent,
// the time and the name, an end the span and the time, an attr the
// span, the key and a value of the tag's kind. A time counts
// nanoseconds since the previous record's time; a name or key is its
// interned id.
const (
	recStart byte = iota
	recEnd
	recString // the attr tags, one per value kind
	recInt
	recInt64
	recFalse
	recTrue
)

// names is the process-wide table that names and keys are interned in.
// Its lock is taken under a trace's, never held while taking one.
var names = struct {
	mu   sync.Mutex
	ids  map[string]int64 // a name's index in list
	list []string         // only grows
}{ids: map[string]int64{}}

// New starts a trace whose root span has the given name and attrs.
func New(name string, attrs ...Attr) *Trace {
	// A hot daemon job's log is ≈ 90 B: one size class holds it.
	t := &Trace{n: 1, origin: time.Since(epoch), log: make([]byte, 0, 96)}
	t.startLocked(0, name, 0, attrs)
	return t
}

// sinceLocked is the trace clock's offset from the origin; the trace
// mutex must be held.
func (t *Trace) sinceLocked() time.Duration {
	if t.now != nil {
		return t.now().Sub(epoch) - t.origin
	}
	return time.Since(epoch) - t.origin
}

// startLocked appends the newest span's start record and its attrs.
func (t *Trace) startLocked(parent int16, name string, at time.Duration, attrs []Attr) {
	t.stampLocked(recStart, parent, at)
	t.putName(name)
	for _, a := range attrs {
		t.setLocked(t.n-1, a.Key, a.Value)
	}
}

// setLocked appends an attr record.
func (t *Trace) setLocked(i int16, key string, value any) {
	tag := len(t.log)
	t.log = append(t.log, recString)
	t.put(int64(i))
	t.putName(key)
	switch v := value.(type) {
	case string:
		t.putString(v)
	case int:
		t.log[tag] = recInt
		t.put(int64(v))
	case int64:
		t.log[tag] = recInt64
		t.put(v)
	case bool:
		t.log[tag] = recFalse
		if v {
			t.log[tag] = recTrue
		}
	default:
		t.putString(fmt.Sprint(v))
	}
}

func (t *Trace) put(v int64) { t.log = binary.AppendVarint(t.log, v) }

func (t *Trace) putString(s string) {
	t.put(int64(len(s)))
	t.log = append(t.log, s...)
}

func (t *Trace) putName(s string) {
	names.mu.Lock()
	id, ok := names.ids[s]
	if !ok {
		id = int64(len(names.list))
		names.list = append(names.list, s)
		names.ids[s] = id
	}
	names.mu.Unlock()
	t.put(id)
}

// stampLocked appends a start or end record's tag, span and time.
func (t *Trace) stampLocked(tag byte, i int16, at time.Duration) {
	t.log = append(t.log, tag)
	t.put(int64(i))
	t.put(int64(at - t.last))
	t.last = at
}

// SetClock overrides the trace's clock; for tests only. It must be
// called before any further spans start.
func (t *Trace) SetClock(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// Root returns a handle on the root span (nil on a disabled trace).
// Every call makes a fresh handle; all of them end the one root once.
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &Span{trace: t}
}

// End ends the root span. Children still open stay open: a view renders
// each of them open, running until the snapshot, and a child may end
// after its root did.
func (t *Trace) End() { t.Root().End() }

// Dropped reports how many Start calls the span cap swallowed.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.dropped)
}

// Span is one timed phase of a trace. A nil *Span is valid and inert.
// It is a handle: the span itself is records in its trace's log.
type Span struct {
	trace *Trace
	i     int16 // the span's number, 0 for the root
	ended bool  // guarded by the trace mutex; the root's is the trace's
}

// Start opens a child span. On a nil span (telemetry disabled, or the
// trace hit its span cap) it returns nil, which is itself inert.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n >= MaxSpans {
		t.dropped++
		return nil
	}
	child := &Span{trace: t, i: t.n}
	t.n++
	t.startLocked(s.i, name, t.sinceLocked(), attrs)
	return child
}

// Set attaches (or overwrites) one attribute on the span: a string, an
// int, an int64 or a bool, or any other value as its fmt.Sprint text.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setLocked(s.i, key, value)
}

// End closes the span. Ending a span twice keeps the first endpoint.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.i == 0 { // every root handle shares the trace's flag
		s.ended, t.rootEnded = t.rootEnded, true
	}
	if !s.ended {
		s.ended = true
		t.stampLocked(recEnd, s.i, t.sinceLocked())
	}
}

// SpanView is the immutable JSON rendering of one span. Times are
// microseconds relative to the trace's start, so views are stable
// across snapshots of a finished trace.
type SpanView struct {
	Name     string         `json:"name"`
	StartUS  int64          `json:"start_us"`
	DurUS    int64          `json:"dur_us"`
	Open     bool           `json:"open,omitempty"` // still running at snapshot time
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanView     `json:"children,omitempty"`
}

// Snapshot renders the trace's current span tree. Spans still open are
// rendered as ending now and marked Open. Safe to call while spans are
// being recorded.
func (t *Trace) Snapshot() SpanView {
	if t == nil {
		return SpanView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.replayLocked(t.sinceLocked())
}

// replayed is one span as the replay of a log rebuilds it.
type replayed struct {
	SpanView
	parent     int64
	start, end time.Duration
}

// replayLocked builds the tree from the log, an open span as ending
// now. A later attr wins.
func (t *Trace) replayLocked(now time.Duration) SpanView {
	names.mu.Lock()
	list := names.list // it holds every id the log holds
	names.mu.Unlock()
	spans := make([]replayed, 0, t.n)
	r := logReader(t.log)
	var at time.Duration
	for len(r) > 0 {
		tag := r[0]
		r = r[1:]
		i := r.int()
		switch tag {
		case recStart:
			at += time.Duration(r.int())
			spans = append(spans, replayed{SpanView{Name: r.name(list), Open: true}, i, at, 0})
		case recEnd: // one per span at most: its handle ends it once
			at += time.Duration(r.int())
			spans[i].end, spans[i].Open = at, false
		default:
			s, key := &spans[i], r.name(list)
			if s.Attrs == nil {
				s.Attrs = map[string]any{}
			}
			s.Attrs[key] = r.value(tag)
		}
	}
	// A child starts after its parent: walking back, each subtree is
	// complete, its children gathered newest first, before it is placed.
	for i := len(spans) - 1; i >= 0; i-- {
		s := &spans[i]
		if s.Open {
			s.end = now
		}
		s.StartUS = s.start.Microseconds()
		s.DurUS = max(0, (s.end - s.start).Microseconds())
		slices.Reverse(s.Children)
		if i > 0 {
			p := &spans[s.parent]
			p.Children = append(p.Children, s.SpanView)
		}
	}
	return spans[0].SpanView
}

// logReader decodes a trace's log.
type logReader []byte

func (r *logReader) int() int64 {
	v, n := binary.Varint(*r)
	*r = (*r)[n:]
	return v
}

func (r *logReader) string() string {
	n := r.int()
	s := string((*r)[:n])
	*r = (*r)[n:]
	return s
}

// name decodes a name against the interned list.
func (r *logReader) name(list []string) string { return list[r.int()] }

// value decodes an attr value of the tag's kind.
func (r *logReader) value(tag byte) any {
	switch tag {
	case recInt:
		return int(r.int())
	case recInt64:
		return r.int()
	case recFalse, recTrue:
		return tag == recTrue
	}
	return r.string()
}

// Find returns the first span view with the given name in a pre-order
// walk of the tree, or ok=false. A convenience for tests.
func (v SpanView) Find(name string) (SpanView, bool) {
	if v.Name == name {
		return v, true
	}
	for _, c := range v.Children {
		if got, ok := c.Find(name); ok {
			return got, true
		}
	}
	return SpanView{}, false
}

// ctxKey keys the span carried by a context.
type ctxKey struct{}

// ContextWithSpan returns a context carrying the span; layers below
// (the runner engine) pick it up to attach their own child spans.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil (inert).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
