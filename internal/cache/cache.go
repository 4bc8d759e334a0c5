// Package cache implements the set-associative caches and MSHR files
// used by the GPU L1s, CPU L1s, and LLC slices. Caches operate on line
// addresses (byte address / line size is done by the caller via Line)
// and carry a small per-line auxiliary value which the LLC uses for the
// Delegated Replies core pointer.
package cache

import "fmt"

// Addr is a byte or line address in the simulated 48-bit address space.
type Addr uint64

// Config describes cache geometry.
type Config struct {
	SizeBytes int
	Assoc     int
	LineBytes int
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.LineBytes) }

// Line converts a byte address to a line address.
func (c Config) Line(a Addr) Addr { return a / Addr(c.LineBytes) }

// noLine marks an absent way in the tag array. Real line addresses are
// 48-bit byte addresses divided by the line size, so they can never
// collide with the sentinel.
const noLine = ^Addr(0)

// Cache is a set-associative, LRU-replacement cache indexed by line
// address. It is a tag store only; data contents are not simulated.
//
// Way state is held struct-of-arrays with a set's ways at assoc
// consecutive indices: a tag probe — the hottest operation in the
// simulator — scans one contiguous run of line addresses instead of
// striding across per-way structs, and an absent way is encoded as the
// noLine sentinel so the scan needs no separate valid-bit load.
type Cache struct {
	cfg   Config
	assoc int
	nsets int

	lines []Addr   // tag per way, noLine when absent
	dirty []bool   // dirty bit per way
	aux   []uint32 // user payload, e.g. LLC core pointer (0 = invalid pointer)
	used  []uint64 // LRU timestamp per way
	clock uint64

	Accesses int64
	Hits     int64
}

// New builds a cache with the given geometry.
func New(cfg Config) *Cache {
	nsets := cfg.Sets()
	if nsets <= 0 {
		panic(fmt.Sprintf("cache: bad geometry %+v", cfg))
	}
	n := nsets * cfg.Assoc
	c := &Cache{
		cfg:   cfg,
		assoc: cfg.Assoc,
		nsets: nsets,
		lines: make([]Addr, n),
		dirty: make([]bool, n),
		aux:   make([]uint32, n),
		used:  make([]uint64, n),
	}
	for i := range c.lines {
		c.lines[i] = noLine
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) setIndex(line Addr) int {
	// Index with a Fibonacci hash, taking the product's high bits: the
	// low bits of consecutive multiples share common factors with the
	// set count and would alias sequential sweeps into few sets.
	h := uint64(line) * 0x9e3779b97f4a7c15
	return int((h >> 32) % uint64(c.nsets))
}

// find returns the flat way index holding line, or -1.
func (c *Cache) find(line Addr) int {
	base := c.setIndex(line) * c.assoc
	tags := c.lines[base : base+c.assoc]
	for i := range tags {
		if tags[i] == line {
			return base + i
		}
	}
	return -1
}

// Probe scans for a line without side effects and, on a hit, returns
// the flat way index. A lookup is Probe followed by CommitHit (or
// RecordMiss when the line is absent): splitting the two lets a hit/miss
// decision point choose when its access counts (e.g. only once buffer
// space is confirmed) while paying for exactly one tag scan.
func (c *Cache) Probe(line Addr) (hit bool, aux uint32, way int) {
	if j := c.find(line); j >= 0 {
		return true, c.aux[j], j
	}
	return false, 0, -1
}

// CommitHit counts an access and a hit for a line previously located
// by Probe, and makes it the most recently used way of its set.
func (c *Cache) CommitHit(way int) {
	c.Accesses++
	c.clock++
	c.used[way] = c.clock
	c.Hits++
}

// RecordMiss counts an access to a line Probe found absent.
func (c *Cache) RecordMiss() {
	c.Accesses++
	c.clock++
}

// Peek probes without updating LRU or statistics (used by coherence
// probes and invariant checks).
func (c *Cache) Peek(line Addr) (hit bool, aux uint32) {
	if j := c.find(line); j >= 0 {
		return true, c.aux[j]
	}
	return false, 0
}

// Insert fills a line (allocating on miss), setting its aux value and
// dirty flag. It returns the victim line if a valid line was evicted.
func (c *Cache) Insert(line Addr, aux uint32, dirty bool) (victim Addr, victimDirty, evicted bool) {
	c.clock++
	base := c.setIndex(line) * c.assoc
	lru := base
	for j := base; j < base+c.assoc; j++ {
		if c.lines[j] == line {
			c.aux[j] = aux
			c.dirty[j] = c.dirty[j] || dirty
			c.used[j] = c.clock
			return 0, false, false
		}
		if c.lines[j] == noLine {
			lru = j
		} else if c.lines[lru] != noLine && c.used[j] < c.used[lru] {
			lru = j
		}
	}
	vLine, vDirty := c.lines[lru], c.dirty[lru]
	c.lines[lru] = line
	c.dirty[lru] = dirty
	c.aux[lru] = aux
	c.used[lru] = c.clock
	if vLine != noLine {
		return vLine, vDirty, true
	}
	return 0, false, false
}

// SetAux updates the aux value of a resident line; it reports whether
// the line was present.
func (c *Cache) SetAux(line Addr, aux uint32) bool {
	if j := c.find(line); j >= 0 {
		c.aux[j] = aux
		return true
	}
	return false
}

// Invalidate removes a line if present and reports whether it was there.
func (c *Cache) Invalidate(line Addr) bool {
	if j := c.find(line); j >= 0 {
		c.lines[j] = noLine
		return true
	}
	return false
}

// InvalidateAll flushes the whole cache (kernel-boundary software
// coherence) and returns the number of lines dropped.
func (c *Cache) InvalidateAll() int {
	n := 0
	for j := range c.lines {
		if c.lines[j] != noLine {
			c.lines[j] = noLine
			n++
		}
	}
	return n
}

// ClearAux zeroes the aux value of every resident line (LLC pointer
// invalidation on GPU L1 flush).
func (c *Cache) ClearAux() {
	for j := range c.aux {
		c.aux[j] = 0
	}
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for j := range c.lines {
		if c.lines[j] != noLine {
			n++
		}
	}
	return n
}

// HitRate returns hits/accesses since construction or the last ResetStats.
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// ResetStats clears the access/hit counters without touching contents.
func (c *Cache) ResetStats() { c.Accesses, c.Hits = 0, 0 }
