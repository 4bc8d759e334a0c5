package telemetry

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// A long run's trace is a runner.submit → engine.run whose 511
// checkpoints each start a window span with a cycles_done attr (the
// span cap keeps all but the last two): each such trace holds at most
// 16 KB of live heap. Its window names are interned, as in a daemon.
func TestLongRunTraceBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's shadow state inflates every allocation")
	}
	const traces, windows, budget = 200, 511, 16 << 10
	held := make([]*Trace, traces)
	before := liveHeap()
	for i := range held {
		tr := New("job")
		base := time.Now()
		tr.SetClock(func() time.Time {
			base = base.Add(20 * time.Millisecond)
			return base
		})
		run := tr.Root().Start("runner.submit")
		eng := run.Start("engine.run", A("gpu", "HS"), A("cpu", "vips"))
		for w := range windows {
			win := eng.Start(fmt.Sprintf("window %d", w))
			win.Set("cycles_done", int64(w+1)*1000)
			win.End()
		}
		eng.Set("cycles", int64(windows)*1000)
		eng.End()
		run.Set("source", "executed")
		run.End()
		tr.End()
		held[i] = tr
	}
	after := liveHeap()
	per := (int64(after) - int64(before)) / traces
	t.Logf("live heap per %d-window trace: %d B (budget %d B)", windows, per, budget)
	if per > budget {
		t.Errorf("a %d-window trace holds %d B of live heap, budget %d B", windows, per, budget)
	}
	if v := held[0].Snapshot(); len(v.Children[0].Children[0].Children) != MaxSpans-3 || held[0].Dropped() != 2 {
		t.Fatalf("a trace kept %d windows and dropped %d", len(v.Children[0].Children[0].Children), held[0].Dropped())
	}
	runtime.KeepAlive(held)
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// modelSpan is a span of the naive tree FuzzTraceLog checks the log
// against.
type modelSpan struct {
	name       string
	start, end time.Duration
	ended      bool
	attrs      map[string]any
	kids       []*modelSpan
}

func (m *modelSpan) view(now time.Duration) SpanView {
	end := m.end
	if !m.ended {
		end = now
	}
	v := SpanView{Name: m.name, StartUS: m.start.Microseconds(), DurUS: max(0, (end - m.start).Microseconds()), Open: !m.ended}
	if len(m.attrs) > 0 {
		v.Attrs = maps.Clone(m.attrs)
	}
	for _, k := range m.kids {
		v.Children = append(v.Children, k.view(now))
	}
	return v
}

// fuzzOps reads a fuzz input; past its end every byte reads 0.
type fuzzOps []byte

func (in *fuzzOps) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// name is one of 16 names.
func (in *fuzzOps) name() string { return fmt.Sprintf("n%d", in.next()%16) }

// label is a string kind the log records as its text.
type label string

// value is an attr value of every kind the log encodes and of some it
// records as their text.
func (in *fuzzOps) value() any {
	switch in.next() % 10 {
	case 0:
		b := make([]byte, in.next()%8)
		for i := range b {
			b[i] = in.next()
		}
		return string(b)
	case 1:
		return int(int8(in.next())) << (in.next() % 56)
	case 2:
		return int64(int8(in.next())) << (in.next() % 56)
	case 3:
		return in.next()&1 == 1
	case 4:
		return float64(in.next()) / 4
	case 5:
		return in.next()
	case 6:
		return nil
	case 7:
		return time.Duration(in.next())
	case 8:
		return label(in.name())
	default:
		return struct{ A, B int }{int(in.next()), int(in.next())}
	}
}

// logged is v as a view shows it: a value of a kind the log encodes
// as itself, any other as its text.
func logged(v any) any {
	switch v.(type) {
	case string, int, int64, bool:
		return v
	}
	return fmt.Sprint(v)
}

// FuzzTraceLog drives a trace with Start, Set and End calls and clock
// steps decoded from the input, and after each operation compares
// Snapshot with a naive tree built from the same operations: nesting,
// child order, first End wins, last Set wins, open spans running until
// the snapshot, the span cap, and values of the four kinds the log
// encodes coming back as the type they went in as, any other as its
// fmt.Sprint text.
// Its seed corpus is testdata/fuzz/FuzzTraceLog.
func FuzzTraceLog(f *testing.F) {
	f.Fuzz(checkTraceLog)
}

// maxOps bounds the operations one fuzz input runs, each followed by
// a full snapshot, and maxInput the input, so that minimizing an input
// stays quick.
const maxOps, maxInput = 64, 256

// checkTraceLog is FuzzTraceLog on one input.
func checkTraceLog(t *testing.T, data []byte) {
	if len(data) > maxInput {
		return
	}
	in := fuzzOps(data)
	// The root's attrs are recorded before the clock is set.
	root := &modelSpan{name: in.name()}
	var rootAttrs []Attr
	for range in.next() % 3 {
		a := A(in.name(), in.value())
		if root.attrs == nil {
			root.attrs = map[string]any{}
		}
		root.attrs[a.Key] = logged(a.Value)
		rootAttrs = append(rootAttrs, a)
	}
	tr := New(root.name, rootAttrs...)
	cur := epoch.Add(tr.origin)
	clock := func() time.Time { return cur }
	tr.SetClock(clock)
	since := func() time.Duration { return cur.Sub(epoch) - tr.origin }

	// A handle pairs a span with its model; both are nil past the cap.
	type handle struct {
		span  *Span
		model *modelSpan
	}
	handles := []handle{{tr.Root(), root}}
	spans, dropped := 1, int64(0)
	// A byte below 128 picks among the oldest handles, one above among
	// the newest, those past the cap included.
	pick := func() handle {
		if b := int(in.next()); b < 128 {
			return handles[b%len(handles)]
		} else {
			return handles[len(handles)-1-(b-128)%len(handles)]
		}
	}
	set := func(m *modelSpan, key string, v any) {
		if m.attrs == nil {
			m.attrs = map[string]any{}
		}
		m.attrs[key] = logged(v)
	}
	start := func(h handle, name string, attrs []Attr) {
		var m *modelSpan
		if h.model != nil && spans == MaxSpans {
			dropped++
		} else if h.model != nil {
			spans++
			m = &modelSpan{name: name, start: since()}
			for _, a := range attrs {
				set(m, a.Key, a.Value)
			}
			h.model.kids = append(h.model.kids, m)
		}
		handles = append(handles, handle{h.span.Start(name, attrs...), m})
	}
	for op := 0; len(in) > 0 && op < maxOps; op++ {
		switch b := in.next(); b % 5 {
		case 0: // a clock step, forward or back, or the clock set anew
			d := time.Duration(in.next()) << (in.next() % 40)
			if b&0x80 != 0 {
				d = -d
			}
			cur = cur.Add(d)
			if b&0x40 != 0 {
				tr.SetClock(clock)
			}
		case 1:
			h, name := pick(), in.name()
			var attrs []Attr
			for range in.next() % 3 {
				attrs = append(attrs, A(in.name(), in.value()))
			}
			start(h, name, attrs)
		case 2:
			h, key, v := pick(), in.name(), in.value()
			h.span.Set(key, v)
			if h.model != nil {
				set(h.model, key, v)
			}
		case 3:
			h := pick()
			h.span.End()
			if m := h.model; m != nil && !m.ended {
				m.end, m.ended = since(), true
			}
		case 4: // a burst of starts, which reaches the span cap
			h, n := pick(), in.next()
			for range n {
				start(h, fmt.Sprintf("n%d", n%16), nil)
			}
		}
		if got, want := tr.Snapshot(), root.view(since()); !reflect.DeepEqual(got, want) {
			t.Fatalf("after op %d the view is\n%+v\nwant\n%+v", op, got, want)
		}
		if got := tr.Dropped(); got != dropped {
			t.Fatalf("after op %d: %d dropped, want %d", op, got, dropped)
		}
	}
}
