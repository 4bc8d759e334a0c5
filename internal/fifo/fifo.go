// Package fifo provides allocation-free queue primitives for the
// simulator hot path.
//
// Ring is a fixed-capacity ring buffer for by-value queues (flit
// FIFOs). PopFront and RemoveAt are in-place helpers for slice-backed
// queues that must keep exposing a plain slice (injection queues,
// outboxes): both retain the backing array across operations and zero
// vacated slots so popped references are not pinned.
//
// Everything here is deterministic and allocation-free in steady
// state; Ring allocates only at Init (or on overflow growth, which a
// correctly sized queue never triggers).
package fifo

// Ring is a FIFO ring buffer of fixed capacity. The zero value is
// unusable; call Init first. Pushing beyond capacity grows the buffer
// (a safety net — hot-path rings are sized so this never happens).
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Init allocates the backing array and empties the ring.
func (r *Ring[T]) Init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	r.buf = make([]T, capacity)
	r.head, r.n = 0, 0
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// PushBack appends v at the tail.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.n++
}

// PopFront removes and returns the head element, zeroing its slot.
func (r *Ring[T]) PopFront() T {
	if r.n == 0 {
		panic("fifo: PopFront on empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// At returns a pointer to the i-th queued element (0 = head).
func (r *Ring[T]) At(i int) *T {
	if i < 0 || i >= r.n {
		panic("fifo: ring index out of range")
	}
	j := r.head + i
	if j >= len(r.buf) {
		j -= len(r.buf)
	}
	return &r.buf[j]
}

// Front returns a pointer to the head element.
func (r *Ring[T]) Front() *T { return r.At(0) }

// grow doubles the capacity, compacting the queue to the front.
func (r *Ring[T]) grow() {
	nb := make([]T, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		nb[i] = *r.At(i)
	}
	r.buf, r.head = nb, 0
}

// PopFront removes the first element of a slice-backed queue by
// sliding the remainder down, so the backing array (and its capacity)
// is retained. It returns the shortened slice and the removed element.
func PopFront[T any](q []T) ([]T, T) {
	v := q[0]
	n := copy(q, q[1:])
	var zero T
	q[n] = zero
	return q[:n], v
}

// RemoveAt removes element i of a slice-backed queue in place,
// preserving order and zeroing the vacated tail slot.
func RemoveAt[T any](q []T, i int) []T {
	copy(q[i:], q[i+1:])
	last := len(q) - 1
	var zero T
	q[last] = zero
	return q[:last]
}
