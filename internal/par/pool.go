// Package par once held the worker pool, partition helper and staging
// matrix of the tiled network tick. The engine now ticks every network
// as one tile on the caller's goroutine; only Pool remains, as a
// goroutine-free stand-in for callers built against it.
package par

// Pool runs a function once per worker ID, in ID order, on the calling
// goroutine. It starts no goroutine.
//
// Deprecated: the simulator ticks one tile and needs no pool; Pool is
// kept so that callers built against the tiled tick still compile.
type Pool struct{ n int }

// NewPool returns a pool of n workers; n < 1 is treated as 1.
//
// Deprecated: the simulator ticks one tile and needs no pool; NewPool
// is kept so that callers built against the tiled tick still compile.
func NewPool(n int) *Pool { return &Pool{n: max(1, n)} }

// Size returns the number of worker IDs Run visits.
func (p *Pool) Size() int { return p.n }

// Run invokes f(worker) for worker IDs 0..Size()-1 in order, on the
// calling goroutine, and returns when the last call has.
func (p *Pool) Run(f func(worker int)) {
	for w := 0; w < p.n; w++ {
		f(w)
	}
}

// Close does nothing: a Pool owns no goroutine. It stays for callers
// that release their pool.
func (p *Pool) Close() {}
