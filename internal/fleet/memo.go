package fleet

import "sync"

// memoBound caps the placement memo's entries. One entry is a content
// address and a worker URL the ring already holds, ≈150 bytes, so the
// full memo is ≈10 MB; only keys living off their ring home have one.
const memoBound = 1 << 16

// memo remembers which worker holds a content address the ring would
// not find: the fleet's core pointer. It is a hint, never the truth —
// a wrong or forgotten entry costs one probe or one re-simulation, so
// it needs no persistence and evicts by generation: when the current
// map reaches half the bound the previous one is dropped. Every job
// that ends done puts or drops its address, so what is in use stays in
// the current generation.
type memo struct {
	mu        sync.Mutex
	half      int
	cur, prev map[string]string
}

func newMemo(bound int) *memo {
	return &memo{half: max(bound/2, 1), cur: map[string]string{}}
}

func (m *memo) get(addr string) (worker string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if worker, ok = m.cur[addr]; !ok {
		worker, ok = m.prev[addr]
	}
	return worker, ok
}

func (m *memo) put(addr, worker string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.cur[addr]; !ok && len(m.cur) >= m.half {
		m.prev, m.cur = m.cur, make(map[string]string, m.half)
	}
	m.cur[addr] = worker
}

func (m *memo) drop(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cur, addr)
	delete(m.prev, addr)
}
