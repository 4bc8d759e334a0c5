package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRegistryKinds(t *testing.T) {
	r := NewRegistry(100, 8)
	gauge := 0.0
	counter := 0.0
	num, den := 0.0, 0.0
	r.Gauge("g", func() float64 { return gauge })
	r.Rate("r", func() float64 { return counter })
	r.RatioDelta("q", func() float64 { return num }, func() float64 { return den })

	gauge, counter, num, den = 3, 50, 200, 4
	r.sample(100)
	gauge, counter, num, den = 7, 150, 500, 10
	r.sample(200)

	probes := r.Probes()
	if got := probes[0].Values(); got[0] != 3 || got[1] != 7 {
		t.Fatalf("gauge samples = %v", got)
	}
	if got := probes[1].Values(); got[0] != 0.5 || got[1] != 1.0 {
		t.Fatalf("rate samples = %v, want [0.5 1]", got)
	}
	// Window 1: 200/4 = 50. Window 2: (500-200)/(10-4) = 50.
	if got := probes[2].Values(); got[0] != 50 || got[1] != 50 {
		t.Fatalf("ratio samples = %v, want [50 50]", got)
	}
	if r.Samples() != 2 {
		t.Fatalf("Samples = %d", r.Samples())
	}
	if got := r.WindowEnds(); got[0] != 100 || got[1] != 200 {
		t.Fatalf("WindowEnds = %v", got)
	}
}

func TestRegistryResetGuard(t *testing.T) {
	r := NewRegistry(100, 8)
	counter := 0.0
	r.Rate("r", func() float64 { return counter })
	counter = 80
	r.sample(100)
	counter = 30 // warm-up ResetStats shrank the counter
	r.sample(200)
	got := r.Probes()[0].Values()
	if got[1] != 0.3 {
		t.Fatalf("post-reset rate = %v, want 0.3 (re-baselined)", got[1])
	}
}

func TestRegistryRingOverflow(t *testing.T) {
	r := NewRegistry(10, 4)
	v := 0.0
	r.Gauge("g", func() float64 { return v })
	for i := 1; i <= 6; i++ {
		v = float64(i)
		r.sample(int64(i * 10))
	}
	if got := r.Probes()[0].Values(); len(got) != 4 || got[0] != 3 || got[3] != 6 {
		t.Fatalf("ring values = %v, want [3 4 5 6]", got)
	}
	if r.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", r.Dropped())
	}
	if ends := r.WindowEnds(); ends[0] != 30 || ends[3] != 60 {
		t.Fatalf("window ends = %v", ends)
	}
}

// TestRegistryLateProbePanics pins the one-ring invariant: every
// series covers the same windows, so a probe cannot join once sampling
// has begun.
func TestRegistryLateProbePanics(t *testing.T) {
	r := NewRegistry(10, 4)
	r.Gauge("early", func() float64 { return 1 })
	r.sample(10)
	defer func() {
		if recover() == nil {
			t.Fatal("registering a probe after the first sample did not panic")
		}
	}()
	r.Gauge("late", func() float64 { return 2 })
}

func TestRegistryZeroDenominator(t *testing.T) {
	r := NewRegistry(100, 4)
	r.RatioDelta("q", func() float64 { return 0 }, func() float64 { return 0 })
	r.sample(100)
	got := r.Probes()[0].Values()[0]
	if got != 0 || math.IsNaN(got) {
		t.Fatalf("empty-window ratio = %v, want 0", got)
	}
}

func TestRegistryExports(t *testing.T) {
	r := NewRegistry(100, 4)
	v := 1.5
	r.Gauge("queue,depth", func() float64 { return v })
	r.sample(100)
	v = 2.5
	r.sample(200)

	var jb strings.Builder
	if err := r.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(jb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc["window_cycles"].(float64) != 100 {
		t.Fatalf("window_cycles = %v", doc["window_cycles"])
	}

	var cb strings.Builder
	if err := r.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), cb.String())
	}
	if lines[0] != `window_end,"queue,depth"` {
		t.Fatalf("CSV header = %q (comma in name must be quoted)", lines[0])
	}
	if lines[1] != "100,1.5" || lines[2] != "200,2.5" {
		t.Fatalf("CSV rows = %q, %q", lines[1], lines[2])
	}
}
