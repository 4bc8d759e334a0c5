// Package am exercises the atomicmix analyzer: function-style
// sync/atomic operations are findings, typed atomics are not.
package am

import "sync/atomic"

// Counter is updated through function-style atomics, so nothing stops
// read from touching n plainly.
type Counter struct {
	n     int64
	flags uint32
}

func (c *Counter) bump() {
	atomic.AddInt64(&c.n, 1)        // want `function-style atomic\.AddInt64`
	atomic.StoreUint32(&c.flags, 1) // want `function-style atomic\.StoreUint32`
}

func (c *Counter) read() int64 {
	return c.n + atomic.LoadInt64(&c.n) // want `function-style atomic\.LoadInt64`
}

// A function value is as much a use as a call.
var swap = atomic.CompareAndSwapInt64 // want `function-style atomic\.CompareAndSwapInt64`

// Typed holds the fixed form: there is no plain access to mix with.
type Typed struct {
	v atomic.Int64
	p atomic.Pointer[Counter]
}

func (t *Typed) ok() int64 {
	t.v.Add(1)
	t.p.Store(&Counter{})
	return t.v.Load()
}

// suppressed: an acknowledged exception.
func (c *Counter) suppressed() {
	//simlint:ignore atomicmix fixture exception: word shared with a C signal handler
	atomic.StoreInt64(&c.n, 0)
}

//simlint:ignore atomicmix nothing below is function-style any more // want `unused //simlint:ignore`
func (t *Typed) stale() { t.v.Store(0) }

//simlint:ignore atomicmixx a misspelt analyzer excuses nothing // want `unknown analyzer "atomicmixx"`
func (t *Typed) typo() { t.v.Store(1) }
