package cache

import (
	"math"
	"testing"
)

// This file pins the tag store's decisions by a reference, not only by
// digests: refCache is the store as it stood before its way state was
// narrowed — 64-bit lines and LRU stamps from a clock that never wraps,
// a bool per dirty bit and an aux array allocated up front — kept
// test-only. FuzzTagStoreMatchesReference drives it and the real Cache
// through the same operations, with the real clock started just short
// of its wrap, and requires every return value, the counters and the
// occupancy to agree after every operation.

type refCache struct {
	assoc, nsets int

	lines []Addr // noRef when absent
	dirty []bool
	aux   []uint32
	used  []uint64
	clock uint64

	Accesses, Hits int64
}

const noRef = ^Addr(0)

func newRef(cfg Config) *refCache {
	n := cfg.Sets() * cfg.Assoc
	r := &refCache{
		assoc: cfg.Assoc, nsets: cfg.Sets(),
		lines: make([]Addr, n), dirty: make([]bool, n),
		aux: make([]uint32, n), used: make([]uint64, n),
	}
	for i := range r.lines {
		r.lines[i] = noRef
	}
	return r
}

// base is the flat index of line's set's first way.
func (r *refCache) base(line Addr) int {
	return int((uint64(line)*0x9e3779b97f4a7c15)>>32%uint64(r.nsets)) * r.assoc
}

func (r *refCache) find(line Addr) int {
	base := r.base(line)
	for i := base; i < base+r.assoc; i++ {
		if r.lines[i] == line {
			return i
		}
	}
	return -1
}

func (r *refCache) Probe(line Addr) (bool, uint32, int) {
	if j := r.find(line); j >= 0 {
		return true, r.aux[j], j
	}
	return false, 0, -1
}

func (r *refCache) CommitHit(way int) {
	r.Accesses++
	r.clock++
	r.used[way] = r.clock
	r.Hits++
}

func (r *refCache) RecordMiss() {
	r.Accesses++
	r.clock++
}

func (r *refCache) Peek(line Addr) (bool, uint32) {
	hit, aux, _ := r.Probe(line)
	return hit, aux
}

func (r *refCache) Insert(line Addr, aux uint32, dirty bool) (Addr, bool, bool) {
	r.clock++
	base := r.base(line)
	lru := base
	for j := base; j < base+r.assoc; j++ {
		if r.lines[j] == line {
			r.aux[j] = aux
			r.dirty[j] = r.dirty[j] || dirty
			r.used[j] = r.clock
			return 0, false, false
		}
		if r.lines[j] == noRef {
			lru = j
		} else if r.lines[lru] != noRef && r.used[j] < r.used[lru] {
			lru = j
		}
	}
	vLine, vDirty := r.lines[lru], r.dirty[lru]
	r.lines[lru], r.dirty[lru], r.aux[lru], r.used[lru] = line, dirty, aux, r.clock
	if vLine != noRef {
		return vLine, vDirty, true
	}
	return 0, false, false
}

func (r *refCache) SetAux(line Addr, aux uint32) bool {
	if j := r.find(line); j >= 0 {
		r.aux[j] = aux
		return true
	}
	return false
}

func (r *refCache) Invalidate(line Addr) bool {
	if j := r.find(line); j >= 0 {
		r.lines[j] = noRef
		return true
	}
	return false
}

func (r *refCache) InvalidateAll() int {
	n := 0
	for j := range r.lines {
		if r.lines[j] != noRef {
			r.lines[j] = noRef
			n++
		}
	}
	return n
}

func (r *refCache) ClearAux() { clear(r.aux) }

func (r *refCache) Occupancy() int {
	n := 0
	for _, l := range r.lines {
		if l != noRef {
			n++
		}
	}
	return n
}

// FuzzTagStoreMatchesReference: geom picks the associativity and set
// count, wrapIn how many ticks the real store's clock starts short of
// its wrap, and ops is read three bytes at a time: an operation, a
// line selector and an aux value whose high bit is also the dirty flag.
// Lines come from a small space (so sets fill and evict) and from the
// top of the 32-bit range; Probe, Peek, SetAux and Invalidate also see
// lines above MaxLine, which must miss without aliasing a resident one.
func FuzzTagStoreMatchesReference(f *testing.F) {
	f.Add(uint8(0x21), uint16(40), []byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 1, 0, 0, 4, 0x85, 2, 4, 0, 8, 1, 0})
	f.Fuzz(func(t *testing.T, geom uint8, wrapIn uint16, ops []byte) {
		cfg := Config{Assoc: 1 << (geom & 3), LineBytes: 128}
		cfg.SizeBytes = (1 << (geom >> 2 & 3)) * cfg.Assoc * cfg.LineBytes
		c, ref := New(cfg), newRef(cfg)
		c.clock = math.MaxUint32 - uint32(wrapIn%512)
		for i := 0; i+2 < len(ops); i += 3 {
			op, sel, aux := ops[i], ops[i+1], uint32(ops[i+2]&0x7f)
			dirty := ops[i+2]&0x80 != 0
			line := Addr(sel & 0x3f)
			switch sel >> 6 {
			case 1:
				line = MaxLine - Addr(sel&0x3f)
			case 2:
				if op%9 != 0 { // never Insert above MaxLine: it panics
					line = MaxLine + 1 + Addr(sel&0x3f)<<32
				}
			}
			switch op % 9 {
			case 0:
				v, vd, ev := c.Insert(line, aux, dirty)
				rv, rvd, rev := ref.Insert(line, aux, dirty)
				if v != rv || vd != rvd || ev != rev {
					t.Fatalf("op %d Insert(%#x): (%#x, %v, %v), reference (%#x, %v, %v)", i/3, line, v, vd, ev, rv, rvd, rev)
				}
			case 1:
				h, a, w := c.Probe(line)
				rh, ra, rw := ref.Probe(line)
				if h != rh || a != ra || w != rw {
					t.Fatalf("op %d Probe(%#x): (%v, %d, %d), reference (%v, %d, %d)", i/3, line, h, a, w, rh, ra, rw)
				}
			case 2:
				if h, _, w := c.Probe(line); h {
					c.CommitHit(w)
				}
				if h, _, w := ref.Probe(line); h {
					ref.CommitHit(w)
				}
			case 3:
				c.RecordMiss()
				ref.RecordMiss()
			case 4:
				h, a := c.Peek(line)
				rh, ra := ref.Peek(line)
				if h != rh || a != ra {
					t.Fatalf("op %d Peek(%#x): (%v, %d), reference (%v, %d)", i/3, line, h, a, rh, ra)
				}
			case 5:
				if got, want := c.SetAux(line, aux), ref.SetAux(line, aux); got != want {
					t.Fatalf("op %d SetAux(%#x): %v, reference %v", i/3, line, got, want)
				}
			case 6:
				if got, want := c.Invalidate(line), ref.Invalidate(line); got != want {
					t.Fatalf("op %d Invalidate(%#x): %v, reference %v", i/3, line, got, want)
				}
			case 7:
				if aux&0x0f != 0 { // a flush is rare, as at kernel boundaries
					continue
				}
				if got, want := c.InvalidateAll(), ref.InvalidateAll(); got != want {
					t.Fatalf("op %d InvalidateAll: %d, reference %d", i/3, got, want)
				}
			case 8:
				c.ClearAux()
				ref.ClearAux()
			}
			if c.Occupancy() != ref.Occupancy() || c.Accesses != ref.Accesses || c.Hits != ref.Hits {
				t.Fatalf("op %d: occupancy %d, accesses %d, hits %d; reference %d, %d, %d", i/3,
					c.Occupancy(), c.Accesses, c.Hits, ref.Occupancy(), ref.Accesses, ref.Hits)
			}
		}
	})
}
