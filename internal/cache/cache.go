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

// noLine marks an absent way in the tag array. Every line the workload
// address map produces is below 2³² - 1 (the CPU regions, the highest,
// start at 3·2³⁰), so line numbers are stored in 32 bits and a line
// that would reach the sentinel is refused by Insert.
const noLine = ^uint32(0)

// MaxLine is the highest line address a Cache can hold.
const MaxLine = Addr(noLine - 1)

// Cache is a set-associative, LRU-replacement cache indexed by line
// address. It is a tag store only; data contents are not simulated.
//
// Way state is held struct-of-arrays with a set's ways at assoc
// consecutive indices: a tag probe — the hottest operation in the
// simulator — scans one contiguous run of 32-bit line numbers instead
// of striding across per-way structs, and an absent way is encoded as
// the noLine sentinel so the scan needs no separate valid-bit load.
type Cache struct {
	cfg   Config
	assoc int
	nsets int

	lines []uint32 // line number per way, noLine when absent
	used  []uint32 // LRU stamp per way, from clock
	dirty []uint64 // dirty bit per way
	aux   []uint32 // user payload, e.g. LLC core pointer; nil until one is non-zero
	clock uint32

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
		lines: make([]uint32, n),
		used:  make([]uint32, n),
		dirty: make([]uint64, (n+63)/64),
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
	if line > MaxLine {
		return -1 // never inserted: Insert refuses it
	}
	base := c.setIndex(line) * c.assoc
	tags := c.lines[base : base+c.assoc]
	for i := range tags {
		if tags[i] == uint32(line) {
			return base + i
		}
	}
	return -1
}

// tick advances the LRU clock and returns the new stamp. Before the
// clock would wrap, every set's stamps are renumbered to their ranks
// (renumber), so each set keeps its order and the victim choice stays
// what an unbounded clock would give.
func (c *Cache) tick() uint32 {
	if c.clock == ^uint32(0) {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber replaces each resident way's stamp by its rank among the
// resident ways of its set (1 = least recently used) and restarts the
// clock above the highest rank.
func (c *Cache) renumber() {
	ranks := make([]uint32, c.assoc)
	for base := 0; base < len(c.lines); base += c.assoc {
		for i := range ranks {
			ranks[i] = 0
			if c.lines[base+i] == noLine {
				continue
			}
			r := uint32(1)
			for k := base; k < base+c.assoc; k++ {
				if c.lines[k] != noLine && c.used[k] < c.used[base+i] {
					r++
				}
			}
			ranks[i] = r
		}
		copy(c.used[base:base+c.assoc], ranks)
	}
	c.clock = uint32(c.assoc)
}

func (c *Cache) isDirty(j int) bool { return c.dirty[j>>6]&(1<<(j&63)) != 0 }

func (c *Cache) setDirty(j int, d bool) {
	if d {
		c.dirty[j>>6] |= 1 << (j & 63)
	} else {
		c.dirty[j>>6] &^= 1 << (j & 63)
	}
}

func (c *Cache) auxAt(j int) uint32 {
	if c.aux == nil {
		return 0
	}
	return c.aux[j]
}

// setAux writes way j's aux value, allocating the array on the first
// non-zero write: GPU L1s and shared L1 slices never write one.
func (c *Cache) setAux(j int, v uint32) {
	if c.aux == nil {
		if v == 0 {
			return
		}
		c.aux = make([]uint32, len(c.lines))
	}
	c.aux[j] = v
}

// Probe scans for a line without side effects and, on a hit, returns
// the flat way index. A lookup is Probe followed by CommitHit (or
// RecordMiss when the line is absent): splitting the two lets a hit/miss
// decision point choose when its access counts (e.g. only once buffer
// space is confirmed) while paying for exactly one tag scan.
func (c *Cache) Probe(line Addr) (hit bool, aux uint32, way int) {
	if j := c.find(line); j >= 0 {
		return true, c.auxAt(j), j
	}
	return false, 0, -1
}

// CommitHit counts an access and a hit for a line previously located
// by Probe, and makes it the most recently used way of its set.
func (c *Cache) CommitHit(way int) {
	c.Accesses++
	c.used[way] = c.tick()
	c.Hits++
}

// RecordMiss counts an access to a line Probe found absent.
func (c *Cache) RecordMiss() {
	c.Accesses++
	c.tick()
}

// Peek probes without updating LRU or statistics (used by coherence
// probes and invariant checks).
func (c *Cache) Peek(line Addr) (hit bool, aux uint32) {
	if j := c.find(line); j >= 0 {
		return true, c.auxAt(j)
	}
	return false, 0
}

// Insert fills a line (allocating on miss), setting its aux value and
// dirty flag. It returns the victim line if a valid line was evicted.
// It panics if line is above MaxLine.
func (c *Cache) Insert(line Addr, aux uint32, dirty bool) (victim Addr, victimDirty, evicted bool) {
	if line > MaxLine {
		panic(fmt.Sprintf("cache: line %#x is above the 32-bit tag store's MaxLine %#x", uint64(line), uint64(MaxLine)))
	}
	now := c.tick()
	base := c.setIndex(line) * c.assoc
	lru := base
	for j := base; j < base+c.assoc; j++ {
		if c.lines[j] == uint32(line) {
			c.setAux(j, aux)
			if dirty {
				c.setDirty(j, true)
			}
			c.used[j] = now
			return 0, false, false
		}
		if c.lines[j] == noLine {
			lru = j
		} else if c.lines[lru] != noLine && c.used[j] < c.used[lru] {
			lru = j
		}
	}
	vLine, vDirty := c.lines[lru], c.isDirty(lru)
	c.lines[lru] = uint32(line)
	c.setDirty(lru, dirty)
	c.setAux(lru, aux)
	c.used[lru] = now
	if vLine != noLine {
		return Addr(vLine), vDirty, true
	}
	return 0, false, false
}

// SetAux updates the aux value of a resident line; it reports whether
// the line was present.
func (c *Cache) SetAux(line Addr, aux uint32) bool {
	if j := c.find(line); j >= 0 {
		c.setAux(j, aux)
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
func (c *Cache) ClearAux() { clear(c.aux) }

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
