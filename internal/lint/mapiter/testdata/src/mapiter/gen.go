package mapiter

// bag is a generic container whose index method ranges over a map.
// Tick reaches index only through the instantiated receiver bag[int].
type bag[T comparable] struct{ byKey map[T]int }

func (b *bag[T]) index() {
	for k := range b.byKey { // want `range over map .* per-cycle hot path .* nondeterministic`
		_ = k
	}
}

// Pool holds an instantiation of bag.
type Pool struct{ b bag[int] }

// Tick is a hot-path root that calls (*bag[int]).index.
func (p *Pool) Tick() { p.b.index() }
