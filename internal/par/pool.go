// Package par provides the machinery for deterministic intra-run
// parallelism: a persistent worker pool, a contiguous even-split
// partition helper, and the parity-double-buffered staging matrix used
// to hand events between partitions.
//
// The NoC tile tick (internal/noc/tile.go) is built on this package
// and follows a two-phase discipline: a compute phase where every
// partition touches only partition-owned state (staging anything
// cross-partition), then a commit phase on the coordinator that
// drains staged state in fixed partition order. DESIGN.md §11 carries
// the exactness argument.
package par

import "sync"

// Pool is a persistent worker pool for two-phase ticking. It exists so
// the per-cycle fan-out costs two channel operations per worker
// instead of a goroutine spawn: the workers are parked on their work
// channels between cycles, and the caller's goroutine doubles as
// worker 0, so a Pool of size n adds only n-1 goroutines — and a Pool
// of size 1 is the caller alone: Run is a plain call, Close a no-op.
//
// Run is not safe for concurrent use from multiple goroutines; the
// simulator drives it from the single coordinator goroutine that owns
// System.Tick. That is the only concurrency contract the simulator
// needs, and it keeps the pool free of any internal locking on the
// hot path.
type Pool struct {
	work []chan func(worker int) // one per extra worker (1..n-1)
	done chan struct{}

	closeOnce sync.Once
}

// NewPool returns a pool that runs each submitted function on n
// workers (the caller plus n-1 parked goroutines). n < 1 is treated
// as 1.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{
		work: make([]chan func(int), n-1),
		done: make(chan struct{}, n-1),
	}
	for i := range p.work {
		ch := make(chan func(int))
		p.work[i] = ch
		go func(worker int, ch chan func(int)) {
			for f := range ch {
				f(worker)
				p.done <- struct{}{}
			}
		}(i+1, ch)
	}
	return p
}

// Size returns the number of workers, including the caller.
func (p *Pool) Size() int { return len(p.work) + 1 }

// Run invokes f(worker) once per worker, with worker IDs 0..Size()-1,
// and returns after every invocation has finished. Worker 0 runs on
// the calling goroutine, so under GOMAXPROCS=1 the pool degrades to
// slightly-indirect serial execution rather than deadlocking or
// spinning.
func (p *Pool) Run(f func(worker int)) {
	for _, ch := range p.work {
		ch <- f
	}
	f(0)
	for range p.work {
		<-p.done
	}
}

// Close releases the worker goroutines. Idempotent; the pool must be
// idle (no Run in flight).
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		for _, ch := range p.work {
			close(ch)
		}
	})
}
