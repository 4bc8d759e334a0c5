package cache

// MSHR is a miss-status holding register file: it tracks outstanding
// misses per line and merges secondary requesters onto the primary miss.
//
// The file is a fixed slab of cap entries — Table I sizes it at 32 or
// 64 — with the live ones packed at the front: a lookup scans a dense
// array of line addresses (a handful of host cache lines, where a map
// paid a hash and a bucket walk per probe of the simulator's second
// hottest structure), a release swaps the last live entry into the
// hole, and every entry keeps its Targets backing array across reuse,
// so a steady-state miss allocates nothing here.
type MSHR struct {
	cap     int
	lines   []Addr      // lines[:n] are the outstanding lines
	entries []MSHREntry // entries[i] belongs to lines[i]; entries[n:] are spare
	n       int

	Allocs int64
	Merges int64
	Full   int64
}

// MSHREntry is one outstanding miss with its merged targets.
type MSHREntry struct {
	Line    Addr
	Targets []any // requester-specific contexts delivered on fill
}

// NewMSHR builds an MSHR file with the given entry capacity.
func NewMSHR(capacity int) *MSHR {
	slots := max(capacity, 0)
	return &MSHR{cap: capacity, lines: make([]Addr, slots), entries: make([]MSHREntry, slots)}
}

// Cap returns the entry capacity.
func (m *MSHR) Cap() int { return m.cap }

// Len returns the number of outstanding misses.
func (m *MSHR) Len() int { return m.n }

// FullNow reports whether no new primary miss can be allocated.
func (m *MSHR) FullNow() bool { return m.n >= m.cap }

// find returns the slot of an outstanding line, or -1.
func (m *MSHR) find(line Addr) int {
	for i, l := range m.lines[:m.n] {
		if l == line {
			return i
		}
	}
	return -1
}

// Lookup returns the outstanding entry for a line, if any. The entry
// is valid until the next Release.
func (m *MSHR) Lookup(line Addr) (*MSHREntry, bool) {
	if i := m.find(line); i >= 0 {
		return &m.entries[i], true
	}
	return nil, false
}

// Allocate registers a primary miss for line with an initial target.
// It returns false (and counts a Full event) when the file is full.
// Allocating a line that is already outstanding merges instead.
func (m *MSHR) Allocate(line Addr, target any) bool {
	if m.Merge(line, target) {
		return true
	}
	if m.n >= m.cap {
		m.Full++
		return false
	}
	e := &m.entries[m.n]
	m.lines[m.n], e.Line = line, line
	e.Targets = append(e.Targets[:0], target)
	m.n++
	m.Allocs++
	return true
}

// Merge appends a secondary target to an existing miss; it reports
// whether the line was outstanding.
func (m *MSHR) Merge(line Addr, target any) bool {
	i := m.find(line)
	if i < 0 {
		return false
	}
	m.entries[i].Targets = append(m.entries[i].Targets, target)
	m.Merges++
	return true
}

// Release removes the entry for a filled line and returns its targets.
// The slice aliases the entry's recycled storage: it is valid until
// the next Allocate.
func (m *MSHR) Release(line Addr) []any {
	i := m.find(line)
	if i < 0 {
		return nil
	}
	m.n--
	m.lines[i] = m.lines[m.n]
	m.entries[i], m.entries[m.n] = m.entries[m.n], m.entries[i]
	return m.entries[m.n].Targets
}

// Lines returns the outstanding line addresses in slot order.
func (m *MSHR) Lines() []Addr {
	return append([]Addr(nil), m.lines[:m.n]...)
}

// ResetStats zeroes the allocation/merge counters (end of warmup).
func (m *MSHR) ResetStats() { m.Allocs, m.Merges, m.Full = 0, 0, 0 }
