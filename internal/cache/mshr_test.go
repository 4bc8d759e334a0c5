package cache

import (
	"testing"
	"testing/quick"
)

func TestMSHRAllocateMergeRelease(t *testing.T) {
	m := NewMSHR(2)
	if !m.Allocate(1, "a") {
		t.Fatal("allocate failed on empty file")
	}
	if m.Allocs != 1 {
		t.Fatalf("allocs = %d", m.Allocs)
	}
	if !m.Merge(1, "b") {
		t.Fatal("merge on outstanding line failed")
	}
	if m.Merge(2, "x") {
		t.Fatal("merge on absent line succeeded")
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
	targets := m.Release(1)
	if len(targets) != 2 || targets[0] != "a" || targets[1] != "b" {
		t.Fatalf("targets = %v", targets)
	}
	if m.Len() != 0 {
		t.Fatal("release did not remove entry")
	}
	if m.Release(1) != nil {
		t.Fatal("double release returned targets")
	}
}

func TestMSHRAllocateMergesDuplicates(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(7, "a")
	// A second Allocate of the same line must merge, even when full.
	if !m.Allocate(7, "b") {
		t.Fatal("allocate of outstanding line failed")
	}
	if m.Merges != 1 || m.Allocs != 1 {
		t.Fatalf("allocs=%d merges=%d", m.Allocs, m.Merges)
	}
	if got := len(m.Release(7)); got != 2 {
		t.Fatalf("targets = %d", got)
	}
}

func TestMSHRFull(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(1, nil)
	m.Allocate(2, nil)
	if !m.FullNow() {
		t.Fatal("file should be full")
	}
	if m.Allocate(3, nil) {
		t.Fatal("allocate succeeded on full file")
	}
	if m.Full != 1 {
		t.Fatalf("full events = %d", m.Full)
	}
	m.Release(1)
	if !m.Allocate(3, nil) {
		t.Fatal("allocate failed after release")
	}
}

func TestMSHRLookupAndLines(t *testing.T) {
	m := NewMSHR(4)
	m.Allocate(9, "x")
	e, ok := m.Lookup(9)
	if !ok || e.Line != 9 {
		t.Fatal("lookup failed")
	}
	if _, ok := m.Lookup(10); ok {
		t.Fatal("lookup of absent line succeeded")
	}
	m.Allocate(10, "y")
	lines := m.Lines()
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
}

func TestMSHRBoundedQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewMSHR(4)
		for _, op := range ops {
			line := Addr(op % 16)
			if op%3 == 0 {
				m.Release(line)
			} else {
				m.Allocate(line, nil)
			}
			if m.Len() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRResetStats(t *testing.T) {
	m := NewMSHR(1)
	m.Allocate(1, nil)
	m.Allocate(2, nil) // full event
	m.Merge(1, nil)
	m.ResetStats()
	if m.Allocs != 0 || m.Merges != 0 || m.Full != 0 {
		t.Fatal("stats not reset")
	}
	if m.Len() != 1 {
		t.Fatal("reset must not drop entries")
	}
}

// The file is a fixed slab: a release swaps the last live entry into
// the hole (every other line stays findable with its own targets), and
// a steady state of allocate / merge / release allocates nothing.
func TestMSHRSlabReleaseAndRecycle(t *testing.T) {
	m := NewMSHR(4)
	for l := Addr(1); l <= 4; l++ {
		m.Allocate(l, int(l))
		m.Merge(l, int(l)*10)
	}
	if got := m.Release(2); len(got) != 2 || got[0] != 2 || got[1] != 20 {
		t.Fatalf("released targets = %v", got)
	}
	for _, l := range []Addr{1, 3, 4} {
		e, ok := m.Lookup(l)
		if !ok || e.Line != l || len(e.Targets) != 2 || e.Targets[0] != int(l) || e.Targets[1] != int(l)*10 {
			t.Fatalf("line %d after a neighbour's release: %+v, %v", l, e, ok)
		}
	}
	if _, ok := m.Lookup(2); ok || m.Len() != 3 || len(m.Lines()) != 3 {
		t.Fatalf("released line still outstanding (len %d, lines %v)", m.Len(), m.Lines())
	}
	var target any = t // boxed once, outside the measured loop
	if allocs := testing.AllocsPerRun(200, func() {
		m.Allocate(9, target)
		m.Merge(9, target)
		m.Allocate(9, target)
		if len(m.Release(9)) != 3 {
			t.Fatal("targets lost")
		}
	}); allocs != 0 {
		t.Fatalf("steady-state allocate/merge/release allocates %.1f times", allocs)
	}
}
