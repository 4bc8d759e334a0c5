package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/trace.golden from the live span layer")

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

// Every name and key is interned, however many the process has seen:
// a trace's log holds a new one's id, not its text, and a value of a
// kind the log does not encode comes back as its text.
func TestNamesAreInterned(t *testing.T) {
	for i := range 5000 {
		New(fmt.Sprintf("filler %d", i))
	}
	name, key := fmt.Sprintf("span %d", time.Now().UnixNano()), fmt.Sprintf("key %d", time.Now().UnixNano())
	tr := New("job")
	tr.Root().Start(name).Set(key, 2.5)
	tr.mu.Lock()
	literal := bytes.Contains(tr.log, []byte(name)) || bytes.Contains(tr.log, []byte(key))
	tr.mu.Unlock()
	if literal {
		t.Errorf("the log holds a name or key literally")
	}
	if got := tr.Snapshot().Children; len(got) != 1 || got[0].Name != name || got[0].Attrs[key] != "2.5" {
		t.Errorf("the trace's span is %+v, want %q with %s = \"2.5\"", got, name, key)
	}
}

// The views of a trace, pinned on a fake clock in both formats:
// nesting and child order, Set overwriting an attr given at Start and
// one set before, a Set after End, a child that ends after the root
// did, a child still open under an ended root (rendered open, running
// until the snapshot) and the span cap's drop count.
func TestTraceGolden(t *testing.T) {
	tr := New("job", A("id", "j000001"))
	// The clock starts after the trace's origin, so every offset is
	// positive; readings are 1 ms apart.
	base, n := time.Now(), 0
	tr.SetClock(func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	})
	// The trailing numbers are the clock readings each call takes.
	root := tr.Root()
	root.Start("http.receive").End()                        // 1, 2
	run := root.Start("runner.submit", A("source", "none")) // 3
	look := run.Start("cache.lookup")                       // 4
	look.Set("hit", false)
	look.End()                                                       // 5
	eng := run.Start("engine.run", A("gpu", "HS"), A("cpu", "vips")) // 6
	win := eng.Start("window 0")                                     // 7
	win.Set("cycles_done", 1000)
	win.End() // 8
	eng.Set("cycles", 2200)
	eng.End() // 9
	run.Set("source", "executed")
	run.Set("source", "memo")
	run.End()                        // 10
	join := root.Start("dedup.join") // 11
	root.Start("reply")              // 12, never ended
	tr.End()                         // 13
	join.End()                       // 14, after the root
	eng.Set("error", "late")
	v := tr.Snapshot() // 15

	// Offsets from the real origin are the fake clock's plus a constant:
	// take it out, so the root starts at the clock's zero.
	delta := v.Children[0].StartUS - 1000
	var shift func(c *SpanView)
	shift = func(c *SpanView) {
		c.StartUS -= delta
		for i := range c.Children {
			shift(&c.Children[i])
		}
	}
	for i := range v.Children {
		shift(&v.Children[i])
	}
	v.DurUS -= delta

	var b bytes.Buffer
	tree, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b.Write(tree)
	b.WriteString("\n")
	if err := WriteChromeView(&b, v); err != nil {
		t.Fatal(err)
	}

	capped := New("capped")
	capped.SetClock(fakeClock())
	for i := 0; i < MaxSpans+3; i++ {
		sp := capped.Root().Start(fmt.Sprintf("s%d", i))
		sp.Set("i", i)
		sp.End()
	}
	cv := capped.Snapshot()
	last := cv.Children[len(cv.Children)-1]
	fmt.Fprintf(&b, "capped: %d children, first %s, last %s (i=%v), %d dropped\n",
		len(cv.Children), cv.Children[0].Name, last.Name, last.Attrs["i"], capped.Dropped())

	golden := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("trace views differ from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}
}
