package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic clock advancing one millisecond
// per reading.
func fakeClock() func() time.Time {
	base := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestSpanTree(t *testing.T) {
	tr := New("job", A("id", "j000001"))
	tr.SetClock(fakeClock())
	recv := tr.Root().Start("http.receive")
	recv.End()
	run := tr.Root().Start("runner.submit")
	eng := run.Start("engine.run", A("gpu", "HS"))
	eng.Set("windows", 3)
	eng.End()
	run.End()
	tr.End()

	v := tr.Snapshot()
	if v.Name != "job" || v.Open {
		t.Fatalf("root = %+v", v)
	}
	if v.Attrs["id"] != "j000001" {
		t.Fatalf("root attrs = %v", v.Attrs)
	}
	if len(v.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(v.Children))
	}
	ev, ok := v.Find("engine.run")
	if !ok {
		t.Fatal("engine.run span missing")
	}
	if ev.Attrs["gpu"] != "HS" || ev.Attrs["windows"] != 3 {
		t.Fatalf("engine.run attrs = %v", ev.Attrs)
	}
	if ev.StartUS < v.Children[1].StartUS {
		t.Fatalf("child starts before parent: %d < %d", ev.StartUS, v.Children[1].StartUS)
	}
	if _, ok := v.Find("nope"); ok {
		t.Fatal("Find found a span that does not exist")
	}
}

// A nil trace and nil spans are fully inert: every call is a no-op and
// nothing panics.
func TestDisabledTraceInert(t *testing.T) {
	var tr *Trace
	tr.SetClock(fakeClock())
	sp := tr.Root().Start("anything", A("k", 1))
	sp.Set("k", 2)
	sp.Start("child").End()
	sp.End()
	tr.End()
	if v := tr.Snapshot(); v.Name != "" || v.Children != nil {
		t.Fatalf("disabled snapshot = %+v", v)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("disabled dropped = %d", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("disabled chrome export invalid: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("disabled export has %d events", len(doc.TraceEvents))
	}
}

// The span cap stops allocation and counts drops instead of growing
// without bound.
func TestSpanCap(t *testing.T) {
	tr := New("job")
	tr.SetClock(fakeClock())
	for i := 0; i < MaxSpans+10; i++ {
		tr.Root().Start(fmt.Sprintf("s%d", i)).End()
	}
	if got := tr.Dropped(); got != 11 { // root counts toward the cap
		t.Fatalf("dropped = %d, want 11", got)
	}
	if n := len(tr.Snapshot().Children); n != MaxSpans-1 {
		t.Fatalf("retained children = %d, want %d", n, MaxSpans-1)
	}
	// Starts beyond the cap return nil spans, which stay inert.
	sp := tr.Root().Start("over")
	sp.Set("k", 1)
	sp.End()
}

// An open span snapshots as running now and closes retroactively.
func TestOpenSpanSnapshot(t *testing.T) {
	tr := New("job")
	tr.SetClock(fakeClock())
	sp := tr.Root().Start("engine.run")
	v := tr.Snapshot()
	ev, ok := v.Find("engine.run")
	if !ok || !ev.Open {
		t.Fatalf("open span view = %+v ok=%v", ev, ok)
	}
	sp.End()
	ended, _ := tr.Snapshot().Find("engine.run")
	if ended.Open {
		t.Fatalf("ended span still open: %+v", ended)
	}
	// Ending twice keeps the first endpoint.
	sp.End()
	if again, _ := tr.Snapshot().Find("engine.run"); again.DurUS != ended.DurUS {
		t.Fatalf("second End moved the endpoint: %d -> %d", ended.DurUS, again.DurUS)
	}
}

func TestChromeExport(t *testing.T) {
	tr := New("job j1")
	tr.SetClock(fakeClock())
	run := tr.Root().Start("runner.submit")
	run.Start("cache.lookup", A("hit", false)).End()
	run.End()
	tr.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    int64          `json:"ts"`
			TID   uint64         `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export invalid: %v\n%s", err, buf.String())
	}
	// thread_name metadata + 3 spans.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Phase != "M" || doc.TraceEvents[0].Args["name"] != "job j1" {
		t.Fatalf("metadata event = %+v", doc.TraceEvents[0])
	}
	var sawLookup bool
	for _, ev := range doc.TraceEvents[1:] {
		if ev.Phase != "X" || ev.TID != 1 {
			t.Fatalf("span event = %+v", ev)
		}
		if ev.Name == "cache.lookup" {
			sawLookup = true
			if ev.Args["hit"] != false {
				t.Fatalf("cache.lookup args = %v", ev.Args)
			}
		}
	}
	if !sawLookup {
		t.Fatal("cache.lookup event missing")
	}
}

func TestContextSpan(t *testing.T) {
	if sp := SpanFromContext(context.Background()); sp != nil {
		t.Fatal("empty context carried a span")
	}
	tr := New("job")
	sp := tr.Root()
	ctx := ContextWithSpan(context.Background(), sp)
	if got := SpanFromContext(ctx); got != sp {
		t.Fatalf("SpanFromContext = %p, want %p", got, sp)
	}
	// A nil span attaches nothing.
	if ctx2 := ContextWithSpan(context.Background(), nil); SpanFromContext(ctx2) != nil {
		t.Fatal("nil span round-tripped as non-nil")
	}
}

// Concurrent span recording and snapshotting are race-free (run with
// -race).
func TestConcurrentTrace(t *testing.T) {
	tr := New("job")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Root().Start(fmt.Sprintf("g%d.%d", g, i))
				sp.Set("i", i)
				sp.End()
				_ = tr.Snapshot()
			}
		}(g)
	}
	for i := 0; i < 20; i++ {
		_ = tr.Snapshot()
	}
	wg.Wait()
	if tr.Snapshot().Name != "job" {
		t.Fatal("trace lost its root")
	}
}
