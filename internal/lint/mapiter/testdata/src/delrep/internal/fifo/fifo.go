// Package fifo is a fixture stub of the real delrep/internal/fifo:
// just enough surface for the mapiter analyzer to recognize Stash
// by package path and name.
package fifo

// Stash mirrors the real staging-buffer storage.
type Stash[T any] struct{ buf []T }

// Push appends v.
func (s *Stash[T]) Push(v T) { s.buf = append(s.buf, v) }

// Items returns the pushed values.
func (s *Stash[T]) Items() []T { return s.buf }

// Reset empties the stash.
func (s *Stash[T]) Reset() { s.buf = s.buf[:0] }
