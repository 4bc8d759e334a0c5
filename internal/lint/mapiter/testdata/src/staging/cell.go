package staging

import "delrep/internal/fifo"

// cell mirrors par.Cell: a generic staging cell whose Stash is a
// direct struct field precisely so this analyzer roots any function
// touching one (embedding it behind a pointer chain would hide it,
// see touchesStash's shallow rule).
type cell[T any] struct {
	S fifo.Stash[T]
}

// matrix mirrors par.Matrix: the flat writer-parity × part grid of
// cells the shared pool's stages drain from.
type matrix[T any] struct {
	cells []cell[T]
	parts int
	byKey map[int][]T
}

// each visits every staged item of one part — it touches the cells, so
// it and its callees are staged-commit code.
func (m *matrix[T]) each(part int, fn func(T)) {
	for i := part; i < len(m.cells); i += m.parts { // ok: slice stride
		for _, v := range m.cells[i].S.Items() { // ok: slice
			fn(v)
		}
		m.cells[i].S.Reset()
	}
	m.index()
}

// index is reachable from each; ranging its map would decide the
// inter-thread drain order by hash seed.
func (m *matrix[T]) index() {
	for k := range m.byKey { // want `range over map .* staged-commit .* inter-thread event order`
		_ = k
	}
}

// sizes never touches a cell: its map walk is out of scope here.
func (m *matrix[T]) sizes() int {
	n := 0
	for _, vs := range m.byKey {
		n += len(vs)
	}
	return n
}
