package core

import "delrep/internal/noc"

// alloc is the packet/message allocator: free lists plus the
// packet-ID counter. The inner loop creates and consumes one
// Packet+Msg pair per protocol step; recycling them through a LIFO
// keeps the steady-state tick path allocation-free. A System owns one,
// which hands out packet IDs 1, 2, 3, ... in creation order.
//
// Determinism: unlike sync.Pool, reuse order is a pure function of
// the simulation itself (LIFO over the deterministic retire order),
// and every field is scrubbed on free, so a recycled object is
// indistinguishable from a fresh allocation. Nothing observable —
// digests included — depends on whether pooling is enabled.
//
// Ownership rule: a packet is retired exactly once, at the point the
// protocol consumes it — a handler that refuses delivery
// (back-pressure) must not retire, because the NI redelivers the same
// packet next cycle. The FRQ retains delegated packets until served
// (retired in serveFRQ).
type alloc struct {
	pkts []*noc.Packet
	msgs []*Msg

	created uint64 // packets ever created; the last ID handed out
}

// nextID hands out the next packet ID.
func (a *alloc) nextID() uint64 {
	a.created++
	return a.created
}

// allocPacket returns a scrubbed packet from the free list, or a new
// one when the list is empty.
func (a *alloc) allocPacket() *noc.Packet {
	if n := len(a.pkts); n > 0 {
		p := a.pkts[n-1]
		a.pkts[n-1] = nil
		a.pkts = a.pkts[:n-1]
		return p
	}
	return &noc.Packet{}
}

// msgOf copies a message value into a pooled message. Protocol code
// builds Msg literals on the stack; this is the only place they are
// materialized on the heap.
func (a *alloc) msgOf(v Msg) *Msg {
	var m *Msg
	if n := len(a.msgs); n > 0 {
		m = a.msgs[n-1]
		a.msgs[n-1] = nil
		a.msgs = a.msgs[:n-1]
	} else {
		m = new(Msg)
	}
	*m = v
	return m
}

// retire returns a consumed packet and its message to the free lists.
// The scrub drops every reference (Payload, Trace) and zeroes all
// bookkeeping so reuse cannot leak state between transactions.
func (a *alloc) retire(p *noc.Packet) {
	if m, ok := p.Payload.(*Msg); ok {
		*m = Msg{}
		a.msgs = append(a.msgs, m)
	}
	*p = noc.Packet{}
	a.pkts = append(a.pkts, p)
}
