package cache

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func small() *Cache {
	// 4 sets x 2 ways of 128 B lines.
	return New(Config{SizeBytes: 1024, Assoc: 2, LineBytes: 128})
}

// lookup is one counted access the way the simulator makes it: Probe,
// then CommitHit on a hit or RecordMiss on a miss.
func lookup(c *Cache, line Addr) (hit bool, aux uint32) {
	hit, aux, way := c.Probe(line)
	if hit {
		c.CommitHit(way)
	} else {
		c.RecordMiss()
	}
	return hit, aux
}

// sameSet returns n distinct lines that map to the set of line 0.
func sameSet(c *Cache, n int) []Addr {
	var same []Addr
	base := c.setIndex(Addr(0))
	for l := Addr(0); len(same) < n; l++ {
		if c.setIndex(l) == base {
			same = append(same, l)
		}
	}
	return same
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{SizeBytes: 48 * 1024, Assoc: 4, LineBytes: 128}
	if cfg.Sets() != 96 {
		t.Fatalf("sets = %d", cfg.Sets())
	}
	if cfg.Line(256) != 2 {
		t.Fatalf("line = %d", cfg.Line(256))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-set cache")
		}
	}()
	New(Config{SizeBytes: 64, Assoc: 2, LineBytes: 128})
}

func TestHitMiss(t *testing.T) {
	c := small()
	if hit, _ := lookup(c, 1); hit {
		t.Fatal("hit in empty cache")
	}
	c.Insert(1, 7, false)
	hit, aux := lookup(c, 1)
	if !hit || aux != 7 {
		t.Fatalf("hit=%v aux=%d", hit, aux)
	}
	if c.Accesses != 2 || c.Hits != 1 {
		t.Fatalf("accesses=%d hits=%d", c.Accesses, c.Hits)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", c.HitRate())
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c := small()
	c.Insert(1, 0, false)
	c.Peek(1)
	c.Peek(2)
	if c.Accesses != 0 {
		t.Fatal("Peek must not count accesses")
	}
}

// TestProbeHasNoSideEffects: Probe alone moves neither the counters
// nor LRU order. Cluster.ServeRemote relies on it to locate a line,
// commit the access and only then decide whether it can reply.
func TestProbeHasNoSideEffects(t *testing.T) {
	c := small()
	same := sameSet(c, 3)
	c.Insert(same[0], 0, false)
	c.Insert(same[1], 0, false)
	// same[0] is the LRU way; probing it (hit) and same[2] (miss) must
	// leave it the LRU way with nothing counted.
	if hit, _, way := c.Probe(same[0]); !hit || way < 0 {
		t.Fatalf("probe of a resident line: hit=%v way=%d", hit, way)
	}
	if hit, _, way := c.Probe(same[2]); hit || way != -1 {
		t.Fatalf("probe of an absent line: hit=%v way=%d", hit, way)
	}
	if c.Accesses != 0 || c.Hits != 0 {
		t.Fatalf("Probe counted: accesses=%d hits=%d", c.Accesses, c.Hits)
	}
	if victim, _, _ := c.Insert(same[2], 0, false); victim != same[0] {
		t.Fatalf("Probe moved LRU order: victim %d, want %d", victim, same[0])
	}
}

func TestLRUEviction(t *testing.T) {
	// Find three lines in the same set, fill 2-way set, touch the first,
	// insert the third: the second must be evicted.
	c := small()
	same := sameSet(c, 3)
	c.Insert(same[0], 0, false)
	c.Insert(same[1], 0, false)
	lookup(c, same[0]) // make same[1] the LRU
	victim, _, evicted := c.Insert(same[2], 0, false)
	if !evicted || victim != same[1] {
		t.Fatalf("evicted=%v victim=%d, want %d", evicted, victim, same[1])
	}
	if hit, _ := c.Peek(same[0]); !hit {
		t.Fatal("MRU line was evicted")
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := small()
	c.Insert(5, 1, false)
	victim, _, evicted := c.Insert(5, 2, true)
	if evicted || victim != 0 {
		t.Fatal("re-insert must not evict")
	}
	if _, aux := c.Peek(5); aux != 2 {
		t.Fatalf("aux = %d", aux)
	}
	if c.Occupancy() != 1 {
		t.Fatalf("occupancy = %d", c.Occupancy())
	}
}

func TestDirtyEviction(t *testing.T) {
	c := small()
	same := sameSet(c, 3)
	c.Insert(same[0], 0, true)
	c.Insert(same[1], 0, false)
	_, dirty, evicted := c.Insert(same[2], 0, false)
	if !evicted || !dirty {
		t.Fatalf("dirty victim not reported: dirty=%v evicted=%v", dirty, evicted)
	}
}

func TestSetAuxAndClearAux(t *testing.T) {
	c := small()
	if c.SetAux(9, 3) {
		t.Fatal("SetAux on absent line returned true")
	}
	c.Insert(9, 0, false)
	if !c.SetAux(9, 3) {
		t.Fatal("SetAux on resident line returned false")
	}
	if _, aux := c.Peek(9); aux != 3 {
		t.Fatalf("aux = %d", aux)
	}
	c.ClearAux()
	if _, aux := c.Peek(9); aux != 0 {
		t.Fatal("ClearAux did not clear")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(4, 0, false)
	if !c.Invalidate(4) {
		t.Fatal("invalidate resident returned false")
	}
	if c.Invalidate(4) {
		t.Fatal("invalidate absent returned true")
	}
	if hit, _ := c.Peek(4); hit {
		t.Fatal("line still present after invalidate")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := small()
	for l := Addr(0); l < 20; l++ {
		c.Insert(l, 0, false)
	}
	n := c.InvalidateAll()
	if n != c.Config().Sets()*2 && n > 20 {
		t.Fatalf("flushed %d lines", n)
	}
	if c.Occupancy() != 0 {
		t.Fatal("cache not empty after flush")
	}
}

func TestOccupancyBoundedQuick(t *testing.T) {
	f := func(lines []uint16) bool {
		c := small()
		for _, l := range lines {
			c.Insert(Addr(l), 0, false)
		}
		return c.Occupancy() <= 8 // 4 sets x 2 ways
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertThenPeekQuick(t *testing.T) {
	f := func(l uint32, aux uint32) bool {
		c := small()
		c.Insert(Addr(l), aux, false)
		hit, got := c.Peek(Addr(l))
		return hit && got == aux
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAgainstReferenceModel drives the cache and a brute-force
// fully-mapped model with the same operations and compares hit results;
// LRU decisions are checked per set.
func TestAgainstReferenceModel(t *testing.T) {
	c := small()
	rng := rand.New(rand.NewSource(42))
	type ref struct {
		present map[Addr]bool
	}
	model := ref{present: map[Addr]bool{}}
	for i := 0; i < 5000; i++ {
		l := Addr(rng.Intn(64))
		switch rng.Intn(3) {
		case 0:
			hit, _ := lookup(c, l)
			if hit != model.present[l] {
				t.Fatalf("op %d: lookup(%d) = %v, model %v", i, l, hit, model.present[l])
			}
		case 1:
			_, _, _ = c.Insert(l, 0, false)
			model.present[l] = true
			// Re-sync the model with reality on evictions: drop any
			// modelled line the cache no longer holds.
			for ml := range model.present {
				if hit, _ := c.Peek(ml); !hit {
					delete(model.present, ml)
				}
			}
		case 2:
			c.Invalidate(l)
			delete(model.present, l)
		}
	}
}

func TestSequentialLinesSpreadAcrossSets(t *testing.T) {
	// Regression test: the set hash must not alias consecutive lines
	// into a subset of sets (the wavefront sweeps are sequential).
	c := New(Config{SizeBytes: 48 * 1024, Assoc: 4, LineBytes: 128})
	used := map[int]bool{}
	for l := Addr(0); l < 4096; l++ {
		h := uint64(l) * 0x9e3779b97f4a7c15
		used[int((h>>32)%uint64(c.Config().Sets()))] = true
	}
	if len(used) < c.Config().Sets()*9/10 {
		t.Fatalf("sequential lines touch only %d/%d sets", len(used), c.Config().Sets())
	}
	// And occupancy after a sweep should approach capacity.
	for l := Addr(0); l < 4096; l++ {
		c.Insert(l, 0, false)
	}
	capLines := c.Config().Sets() * 4
	if c.Occupancy() < capLines*9/10 {
		t.Fatalf("sweep filled only %d/%d lines", c.Occupancy(), capLines)
	}
}

// Line numbers are stored in 32 bits: Insert refuses a line above
// MaxLine, naming it, and a probe of such a line misses instead of
// matching a resident line (or an empty way) with the same low bits.
func TestLineAboveMaxLine(t *testing.T) {
	c := small()
	c.Insert(5, 1, false)
	for _, l := range []Addr{MaxLine + 1, 5 + 1<<32} {
		if hit, _ := c.Peek(l); hit {
			t.Errorf("Peek(%#x) hit", l)
		}
		if c.SetAux(l, 2) || c.Invalidate(l) {
			t.Errorf("SetAux/Invalidate(%#x) found the line", l)
		}
	}
	const line = 0x1_0000_0005
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprintf("%#x", line)) {
			t.Fatalf("Insert(%#x) panic %q does not name the line", line, msg)
		}
	}()
	c.Insert(line, 0, false)
}

// The 32-bit LRU clock renumbers each set's stamps to their ranks
// before it wraps, so a set's victim is the one an unbounded clock
// picks.
func TestClockWrapKeepsLRUOrder(t *testing.T) {
	c := small()
	c.clock = math.MaxUint32 - 2
	same := sameSet(c, 3)
	c.Insert(same[0], 0, false) // stamped MaxUint32-1
	c.Insert(same[1], 0, false) // stamped MaxUint32
	lookup(c, same[0])          // wraps: same[1] is now the LRU way
	if c.clock > 8 {
		t.Fatalf("clock %d did not wrap", c.clock)
	}
	if victim, _, _ := c.Insert(same[2], 0, false); victim != same[1] {
		t.Fatalf("victim %d after the wrap, want %d", victim, same[1])
	}
}
