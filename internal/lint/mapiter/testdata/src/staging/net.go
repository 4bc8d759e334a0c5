package staging

import "delrep/internal/fifo"

type event struct{ slot int }

// stageBuf mirrors noc's per-edge staging buffer: a struct holding a
// Stash directly, which makes any function touching it a root.
type stageBuf struct {
	events fifo.Stash[event]
}

type net struct {
	stage   []stageBuf
	byID    map[int]event
	pending []event
}

// drain touches the staging buffers, so it and everything it calls is
// staged-commit code.
func (n *net) drain() {
	for i := range n.stage { // ok: slice iteration is deterministic
		for _, ev := range n.stage[i].events.Items() { // ok: slice
			n.pending = append(n.pending, ev)
		}
		n.stage[i].events.Reset()
	}
	n.fold()
}

// fold is reachable from drain; its map walk would make Go's random
// map order the inter-thread event order.
func (n *net) fold() {
	for id := range n.byID { // want `range over map .* staged-commit .* inter-thread event order`
		_ = id
	}
}

// scrub demonstrates suppression: the author vouches for the loop.
func (n *net) scrub() {
	var sb stageBuf
	sb.events.Reset()
	//simlint:ignore mapiter keys are drained unordered into a set
	for id := range n.byID {
		delete(n.byID, id)
	}
}

// report never touches a staging buffer and no entry point reaches
// it: cold-path map iteration is fine.
func (n *net) report() map[int]int {
	out := map[int]int{}
	for id, ev := range n.byID {
		out[id] = ev.slot
	}
	return out
}
