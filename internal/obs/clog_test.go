package obs

import (
	"strings"
	"testing"
)

// clogHarness drives a Detector through scripted windows. Its values
// reach the detector through registry probes, sampled as Observer.Tick
// does.
type clogHarness struct {
	sent    float64
	qlen    int
	blocked float64

	reg *Registry
	d   *Detector
}

func newClogDetector(h *clogHarness, thr float64, depth int) *Detector {
	h.reg = NewRegistry(100, depth)
	h.d = &Detector{reg: h.reg, threshold: thr}
	h.d.AddSource(ClogSource{
		Name:    "mem0",
		Links:   []*Probe{h.reg.Rate("mem0/link0", func() float64 { return h.sent })},
		Queue:   h.reg.Gauge("mem0/replyq", func() float64 { return float64(h.qlen) }),
		QCap:    8,
		Blocked: h.reg.Rate("mem0/blocked", func() float64 { return h.blocked }),
	})
	return h.d
}

// sample closes the window ending at cycle.
func (h *clogHarness) sample(cycle int64) { h.reg.sample(cycle) }

func TestClogDetection(t *testing.T) {
	h := &clogHarness{}
	d := newClogDetector(h, 0.85, 16)

	// Window 1: light traffic, empty queue — no event.
	h.sent, h.qlen = 30, 0
	h.sample(100)
	// Window 2: saturated link but queue did not grow — no event.
	h.sent = 130
	h.sample(200)
	// Window 3: saturated link and the queue grew — clog.
	h.sent, h.qlen, h.blocked = 225, 4, 20
	h.sample(300)
	// Window 4: saturated and queue pinned at capacity — clog.
	h.sent, h.qlen, h.blocked = 320, 8, 60
	h.sample(400)
	// Window 5: traffic fell below threshold — no event.
	h.sent, h.qlen = 360, 8
	h.sample(500)

	evs := d.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	e := evs[0]
	if e.Source != "mem0" || e.Start != 200 || e.End != 300 {
		t.Fatalf("event window = %+v", e)
	}
	if e.Util != 0.95 {
		t.Fatalf("event util = %v, want 0.95", e.Util)
	}
	if e.QStart != 0 || e.QEnd != 4 || e.QCap != 8 {
		t.Fatalf("event queue = %+v", e)
	}
	if e.BlockedFrac != 0.2 {
		t.Fatalf("blocked frac = %v, want 0.2", e.BlockedFrac)
	}

	var b strings.Builder
	if err := d.Narrative(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "1 clog episode(s)") {
		t.Fatalf("expected one merged episode (consecutive windows), got:\n%s", out)
	}
	if !strings.Contains(out, "mem0") || !strings.Contains(out, "200..400") {
		t.Fatalf("narrative missing source/span:\n%s", out)
	}
}

func TestClogQuietNarrative(t *testing.T) {
	h := &clogHarness{}
	d := newClogDetector(h, 0.85, 16)
	h.sent = 10
	h.sample(100)
	var b strings.Builder
	if err := d.Narrative(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no clog episodes") {
		t.Fatalf("quiet narrative = %q", b.String())
	}
}

func TestClogCounterResetGuard(t *testing.T) {
	h := &clogHarness{}
	d := newClogDetector(h, 0.85, 16)
	h.sent, h.qlen = 100, 2
	h.sample(100)
	// ResetStats shrank the cumulative counter; the delta must
	// re-baseline instead of going negative.
	h.sent, h.qlen = 95, 5
	h.sample(200)
	evs := d.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2 (both windows saturated with growth)", len(evs))
	}
	if evs[1].Util != 0.95 {
		t.Fatalf("post-reset util = %v, want 0.95 (re-baselined)", evs[1].Util)
	}
}

// TestClogWrappedRing checks the detector once the registry's ring has
// overwritten early windows: the oldest retained window only supplies
// the queue baseline, every later one is examined, and the narrative
// says which early windows were not.
func TestClogWrappedRing(t *testing.T) {
	h := &clogHarness{}
	d := newClogDetector(h, 0.85, 3)
	// Six saturated windows whose queue grows every time; the ring
	// keeps the last three (ending 400, 500, 600).
	for i := 1; i <= 6; i++ {
		h.sent, h.qlen = float64(95*i), i
		h.sample(int64(100 * i))
	}
	evs := d.Events()
	if len(evs) != 2 || evs[0].Start != 400 || evs[0].End != 500 || evs[0].QStart != 4 || evs[1].End != 600 {
		t.Fatalf("events = %+v, want windows 400..500 (queue from 4) and 500..600", evs)
	}
	var b strings.Builder
	if err := d.Narrative(&b); err != nil {
		t.Fatal(err)
	}
	if want := "(the first 4 window(s), through cycle 400, were not examined: the ring retains the last 3)"; !strings.Contains(b.String(), want) {
		t.Fatalf("narrative lacks %q:\n%s", want, b.String())
	}
}
