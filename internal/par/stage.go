package par

import "delrep/internal/fifo"

// This file holds the parity-double-buffered staging helpers of the
// two-phase discipline: cycle c writes parity c&1 and drains parity
// (c-1)&1, so compute-phase writers and next-cycle drainers never
// share a buffer and the end-of-cycle barrier is the only
// synchronization the phases need. Every staged delivery must be due
// no earlier than the next cycle (delay >= 1) for next-cycle draining
// to be in time; DESIGN.md §11 is the long form of the argument.

// WriteParity returns the staging parity the compute phase of cycle
// now writes into.
func WriteParity(now int64) int { return int(now & 1) }

// DrainParity returns the staging parity cycle now drains: whatever
// the previous cycle staged.
func DrainParity(now int64) int { return int((now - 1) & 1) }

// Cell is one (src part, dst part) staging buffer — a fifo.Stash that
// retains its backing array across cycles, so after warmup the
// staging path is allocation-free. The padding keeps adjacent cells
// off one cache line: source parts push into distinct cells
// concurrently.
type Cell[T any] struct {
	S fifo.Stash[T]
	_ [40]byte
}

// Matrix is a parity-double-buffered (src, dst) staging matrix for P
// parts. The zero value is empty and unpartitioned; Init sizes it.
// Access goes through At so callers keep the fixed src-order drain
// loops in their own code, where mapiter's staging-buffer roots see the
// staging buffers being touched.
type Matrix[T any] struct {
	parts int
	buf   [2][]Cell[T]
}

// Init sizes the matrix for parts partitions, discarding any previous
// contents.
func (m *Matrix[T]) Init(parts int) {
	m.parts = parts
	for p := range m.buf {
		m.buf[p] = make([]Cell[T], parts*parts)
	}
}

// Parts returns the partition count (0 when unpartitioned).
func (m *Matrix[T]) Parts() int { return m.parts }

// At returns the staging cell for the given parity and (src, dst)
// part pair.
func (m *Matrix[T]) At(parity, src, dst int) *Cell[T] {
	return &m.buf[parity][src*m.parts+dst]
}

// Each invokes fn for every staged value across both parities, in
// deterministic (parity, src, dst, push) order. It is for whole-state
// scans (quiescence checks, invariant audits), not the per-cycle
// drain: drains must walk a single parity in fixed src order via At.
func (m *Matrix[T]) Each(fn func(T)) {
	for p := range m.buf {
		for i := range m.buf[p] {
			for _, v := range m.buf[p][i].S.Items() {
				fn(v)
			}
		}
	}
}
