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
	"slices"
	"sync"
	"time"
)

// MaxSpans bounds one trace's span count so a pathological job (a
// 500M-cycle run reporting a window per checkpoint) cannot balloon the
// job table; once reached, Start returns nil and the trace
// counts the drop.
const MaxSpans = 512

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// A builds an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// wallNow reads the wall clock for span timestamps. Telemetry time is
// deliberately outside the simulation clock; spans never feed
// simulated behaviour or digest inputs.
func wallNow() time.Time {
	return time.Now()
}

// Trace is one job's span tree. The zero of *Trace (nil) is a valid,
// disabled trace: every method no-ops and Start returns a nil Span.
// All methods are safe for concurrent use.
//
// A job table keeps a trace per job and never evicts, so the tree is
// stored compactly: spans live in trace-owned chunks (the first inline,
// enough for a hot daemon job), children are linked by index instead of
// kept in per-span slices, and every attr sits on one trace-level list.
// A trace may keep recording after its root ended.
type Trace struct {
	mu      sync.Mutex
	now     func() time.Time
	origin  time.Time // the root span's start; spans keep offsets from it
	n       int32     // spans recorded, the root included
	dropped int32
	spans   spanChunk    // the first spans, the root at 0
	more    []*spanChunk // the rest
	attrs   []attr
}

// spanChunk is as many spans as one allocation of a trace holds.
type spanChunk [8]Span

// attr is one attribute of one span of a trace.
type attr struct {
	span *Span
	Attr
}

// New starts a trace whose root span has the given name and attrs.
func New(name string, attrs ...Attr) *Trace {
	t := &Trace{now: wallNow}
	t.origin = t.now()
	t.spans[0] = Span{trace: t, name: name}
	t.n = 1
	t.addAttrsLocked(&t.spans[0], attrs)
	return t
}

// sinceLocked is the trace clock's offset from the origin; the trace
// mutex must be held.
func (t *Trace) sinceLocked() time.Duration { return t.now().Sub(t.origin) }

// spanLocked is span i of the trace, which must exist; the trace mutex
// must be held.
func (t *Trace) spanLocked(i int16) *Span {
	n := int16(len(t.spans))
	if i < n {
		return &t.spans[i]
	}
	return &t.more[i/n-1][i%n]
}

// addAttrsLocked appends attrs to s; the trace mutex must be held.
func (t *Trace) addAttrsLocked(s *Span, attrs []Attr) {
	t.attrs = slices.Grow(t.attrs, len(attrs))
	for _, a := range attrs {
		t.attrs = append(t.attrs, attr{s, a})
	}
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

// Root returns the root span (nil on a disabled trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return &t.spans[0]
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
// Times are offsets from the trace's origin, which every view is
// relative to anyway. A span lives in its trace's chunks and links to
// its children and siblings by index there. Index 0 is the root, which
// is nobody's child or sibling, so 0 also means "none" in a link.
type Span struct {
	trace       *Trace
	name        string
	start, end  time.Duration
	first, last int16 // children, oldest and newest
	next        int16 // the next younger sibling
	ended       bool
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
	i := int16(t.n)
	if n := int16(len(t.spans)); i >= n && i%n == 0 {
		t.more = append(t.more, new(spanChunk))
	}
	child := t.spanLocked(i)
	*child = Span{trace: t, name: name, start: t.sinceLocked()}
	if s.first == 0 {
		s.first = i
	} else {
		t.spanLocked(s.last).next = i
	}
	s.last = i
	t.n++
	t.addAttrsLocked(child, attrs)
	return child
}

// Set attaches (or overwrites) one attribute on the span.
func (s *Span) Set(key string, value any) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.attrs {
		if a := &t.attrs[i]; a.span == s && a.Key == key {
			a.Value = value
			return
		}
	}
	t.attrs = append(t.attrs, attr{s, Attr{Key: key, Value: value}})
}

// End closes the span. Ending a span twice keeps the first endpoint.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if !s.ended {
		s.end, s.ended = t.sinceLocked(), true
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
	return t.viewLocked(&t.spans[0], t.sinceLocked())
}

// viewLocked renders one span, an open one as ending now; the trace
// mutex must be held.
func (t *Trace) viewLocked(s *Span, now time.Duration) SpanView {
	end := s.end
	if !s.ended {
		end = now
	}
	v := SpanView{
		Name:    s.name,
		StartUS: s.start.Microseconds(),
		DurUS:   (end - s.start).Microseconds(),
		Open:    !s.ended,
	}
	if v.DurUS < 0 {
		v.DurUS = 0
	}
	for _, a := range t.attrs {
		if a.span == s {
			if v.Attrs == nil {
				v.Attrs = map[string]any{}
			}
			v.Attrs[a.Key] = a.Value
		}
	}
	for c := s.first; c != 0; c = t.spanLocked(c).next {
		v.Children = append(v.Children, t.viewLocked(t.spanLocked(c), now))
	}
	return v
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
