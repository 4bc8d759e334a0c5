package core

// SetParallel once spread the networks' tiles over a worker pool. A
// System always ticks each network as one tile on the caller's
// goroutine; the worker count is ignored.
//
// Deprecated: kept so that callers built against the tiled tick still
// compile. It does nothing.
func (s *System) SetParallel(workers int) {}

// Close once released the pool's worker goroutines. A System owns
// none.
//
// Deprecated: kept so that callers built against the tiled tick still
// compile. It does nothing.
func (s *System) Close() {}
