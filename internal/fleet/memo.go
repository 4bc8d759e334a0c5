package fleet

import "sync"

// memoBound caps the placement memo's entries. One entry is a content
// address and a worker URL the ring already holds, ≈150 bytes, so the
// full memo is ≈10 MB; only keys living off their ring home have one.
const memoBound = 1 << 16

// residentBound caps the resident-result table. One entry is a decoded
// simspec.Result and its ≈3.9 KB of rendered reply bytes, ≈5 KB with
// its key, so the full table is ≈20 MB; a forgotten entry costs one
// body-carrying probe.
const residentBound = 1 << 12

// memo is what the coordinator remembers per content address, bounded:
// the worker holding an address the ring would not find (the fleet's
// core pointer), and the result it has already decoded for one. Either
// is a hint, never the truth — a wrong or forgotten entry costs one
// probe, one body or one re-simulation — so it needs no persistence
// and evicts by generation: when the current map reaches half the
// bound the previous one is dropped. Every job that ends done puts (or
// drops) its address, so what is in use stays in the current
// generation.
type memo[V any] struct {
	mu        sync.Mutex
	half      int
	cur, prev map[string]V
}

func newMemo[V any](bound int) *memo[V] {
	return &memo[V]{half: max(bound/2, 1), cur: map[string]V{}}
}

func (m *memo[V]) get(addr string) (v V, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok = m.cur[addr]; !ok {
		v, ok = m.prev[addr]
	}
	return v, ok
}

func (m *memo[V]) put(addr string, v V) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cur[addr]; !ok && len(m.cur) >= m.half {
		m.prev, m.cur = m.cur, make(map[string]V, m.half)
	}
	m.cur[addr] = v
}

func (m *memo[V]) drop(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cur, addr)
	delete(m.prev, addr)
}
