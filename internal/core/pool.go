package core

import "delrep/internal/noc"

// alloc is a packet/message allocator: per-owner free lists plus a
// strided packet-ID stream. The inner loop creates and consumes one
// Packet+Msg pair per protocol step; recycling them through a LIFO
// keeps the steady-state tick path allocation-free.
//
// Each node shard owns one allocator with a disjoint strided stream
// (shard k of K starts at k+1 and strides by K) so concurrent shards
// never touch a shared counter; a one-shard system hands out IDs
// 1,2,3,... in creation order. Packet IDs are observable only there:
// they feed only the trace layer, and an attached observer means one
// shard (see SetParallel). What the digest folds is the total packet
// count across allocators, which depends only on the simulated
// protocol, not on which allocator created which packet.
//
// Determinism: unlike sync.Pool, reuse order is a pure function of
// the simulation itself (LIFO over the deterministic retire order),
// and every field is scrubbed on free, so a recycled object is
// indistinguishable from a fresh allocation. Nothing observable —
// digests included — depends on whether pooling is enabled, or on
// which allocator a free happens to return an object to: a packet may
// legally be created by one shard's allocator and retired into
// another's, because ownership transfers at ejection (commit) time
// and the dispatch barriers order the transfer.
//
// Ownership rule: a packet is retired exactly once, at the point the
// protocol consumes it — a handler that refuses delivery
// (back-pressure) must not retire, because the NI redelivers the same
// packet next cycle. Two structures outlive their carrier asymmetrically:
// the FRQ retains delegated packets until served (retired in
// serveFRQ), and frqMerged retains only the Msg after its packet died
// (freed in serveMerged).
type alloc struct {
	pkts []*noc.Packet
	msgs []*Msg

	created  uint64 // packets ever created through this allocator
	idNext   uint64 // next packet ID to hand out
	idStride uint64 // ID stream stride (the shard count)
}

// initIDs aims the allocator's ID stream. Streams with distinct
// (first mod stride) residues never collide and never produce 0.
func (a *alloc) initIDs(first, stride uint64) {
	a.idNext, a.idStride = first, stride
}

// nextID consumes one ID from the stream.
func (a *alloc) nextID() uint64 {
	id := a.idNext
	a.idNext += a.idStride
	a.created++
	return id
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

// freePacket scrubs a packet and pushes it on the free list. The
// scrub drops every reference (Payload, Trace) and zeroes all
// bookkeeping so reuse cannot leak state between transactions.
func (a *alloc) freePacket(p *noc.Packet) {
	*p = noc.Packet{}
	a.pkts = append(a.pkts, p)
}

// freeMsg scrubs a message and pushes it on the free list.
func (a *alloc) freeMsg(m *Msg) {
	*m = Msg{}
	a.msgs = append(a.msgs, m)
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
func (a *alloc) retire(p *noc.Packet) {
	if m, ok := p.Payload.(*Msg); ok {
		a.freeMsg(m)
	}
	a.freePacket(p)
}
