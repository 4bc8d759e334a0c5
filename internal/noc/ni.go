package noc

import "delrep/internal/fifo"

// NI is a network interface: it serializes queued packets into the
// local router input port flit-by-flit (injection) and reassembles
// arriving flits into packets for the node (ejection).
//
// Injection is queued per traffic class and streamed one packet per
// virtual channel: with V VCs, up to V packets inject concurrently
// (one flit per cycle in total — the physical link width), which lets
// a single node saturate its link despite per-VC credit round trips.
// The reply-class queue of a memory node is the paper's "injection
// buffer": when it fills, the memory node blocks. Packets being
// streamed no longer appear in the queue (their flits are committed to
// the network), so the Delegated Replies engine only ever delegates
// replies that have not begun injection.
//
// All queues keep their backing storage for the lifetime of the NI:
// the injection queues, stream slots and assembly queue are
// preallocated to their capacities and shrink/grow in place, and the
// per-VC ejection buffers are fixed-capacity rings (ejection credits
// bound their occupancy).
type NI struct {
	net    *Network
	ctr    *netCounters // statistics sink: the owning tile's delta
	Node   int
	router int
	base   int // flat index of VC 0 of the router port this NI feeds and drains

	injQ     [2][]*Packet
	injCap   [2]int
	streams  []injStream
	inflight [2]int // streaming packets per class (count toward capacity)
	holdLen  [2]int // occupancy snapshot while the network clock is held
	rrStream int
	blocked  [2]bool

	ejBuf   []fifo.Ring[Flit]
	ejFlits int // flits across all ejection rings (activity gate)
	asm     []*Packet
	asmCap  int

	// Handler consumes an ejected packet; returning false leaves the
	// packet queued and back-pressures the network (node blocking).
	Handler func(*Packet) bool

	// Statistics.
	EjFlitsByClass [2]int64
}

// injStream is one packet mid-injection, bound to an input VC.
type injStream struct {
	pkt *Packet
	seq int
	vc  int
}

// occupancy returns the class's buffered-packet count (queued plus
// streaming). While the owning network's injection stamp is held (the
// system cycle, see Network.enqNow), it reports the snapshot taken
// when the hold began, advanced by injections since: the network's
// compute phase has already processed this cycle's injection side, but
// the handlers now running logically precede it and must observe the
// buffer as it stood before that — a stream completing mid-tick must
// not free capacity to a handler ordered ahead of that tick.
func (ni *NI) occupancy(c Class) int {
	if ni.net.enqHeld {
		return ni.holdLen[c]
	}
	return len(ni.injQ[c]) + ni.inflight[c]
}

// CanInject reports whether the class has buffer space (queued plus
// streaming packets).
func (ni *NI) CanInject(c Class) bool {
	return ni.occupancy(c) < ni.injCap[c]
}

// InjLen returns the number of buffered packets of a class, including
// packets currently streaming into the network.
func (ni *NI) InjLen(c Class) int { return ni.occupancy(c) }

// InjCap returns the class buffer capacity in packets.
func (ni *NI) InjCap(c Class) int { return ni.injCap[c] }

// Full reports whether the class buffer is at capacity.
func (ni *NI) Full(c Class) bool { return !ni.CanInject(c) }

// Blocked reports whether the class had a ready packet last cycle but
// could not push a single flit (the delegation trigger at memory nodes).
func (ni *NI) Blocked(c Class) bool { return ni.blocked[c] }

// Inject queues a packet on its class queue; it fails when full.
// The Enqueued stamp comes from enqNow, not now: the two agree except
// inside the system cycle's hold, where the reply network's clock is
// already advanced but injections from request-ejection handlers must
// still stamp the previous cycle (see Network.enqNow).
func (ni *NI) Inject(p *Packet) bool {
	if !ni.CanInject(p.Class) {
		return false
	}
	p.Enqueued = ni.net.enqNow
	if ni.net.enqHeld {
		ni.holdLen[p.Class]++
	}
	ni.injQ[p.Class] = append(ni.injQ[p.Class], p)
	ni.net.injBusy[ni.Node] = true
	return true
}

// PeekQueue exposes the queued, not-yet-streaming packets of a class
// (head first). The Delegated Replies engine scans the reply queue for
// delegatable replies; any entry may be removed with RemoveQueued.
func (ni *NI) PeekQueue(c Class) []*Packet { return ni.injQ[c] }

// RemoveQueued removes the packet at index i of the class queue and
// returns it. Only queued (never streaming) packets are reachable.
func (ni *NI) RemoveQueued(c Class, i int) *Packet {
	p := ni.injQ[c][i]
	ni.injQ[c] = fifo.RemoveAt(ni.injQ[c], i)
	return p
}

// injActive reports whether injection-side work exists. Idle NIs skip
// tickInject entirely: the only state that tick would touch — the
// blocked flags and the class round-robin — is provably unaffected
// (blocked is always false once the streams drain, and the class
// round-robin is derived from the cycle count, see startStreams). The
// tick loops ask only the NIs flagged in Network.injBusy/ejBusy — set
// by Inject and accept, the only sources of new work, and dropped by
// the first visit that finds none (CheckCreditInvariant cross-checks).
func (ni *NI) injActive() bool {
	return len(ni.injQ[0]) > 0 || len(ni.injQ[1]) > 0 || len(ni.streams) > 0
}

// ejActive reports whether ejection-side work exists (buffered flits
// or assembled packets awaiting delivery).
func (ni *NI) ejActive() bool { return ni.ejFlits > 0 || len(ni.asm) > 0 }

// headReady returns the class's head packet if it is ready to send.
func (ni *NI) headReady(c int) *Packet {
	if len(ni.injQ[c]) == 0 {
		return nil
	}
	p := ni.injQ[c][0]
	if p.ReadyAt > ni.net.now {
		return nil
	}
	return p
}

// vcFree reports whether an input VC is unclaimed by any stream.
func (ni *NI) vcFree(vc int) bool {
	for _, st := range ni.streams {
		if st.vc == vc {
			return false
		}
	}
	return true
}

// startStreams binds ready head packets to free VCs until the stream
// slots (one per VC) are exhausted. The class round-robin alternates
// every cycle since construction, so it is derived from the cycle
// count rather than stored — skipped idle cycles cannot drift it.
func (ni *NI) startStreams() {
	rtr := ni.net.Routers[ni.router]
	cls := int((ni.net.now - 1) % 2)
	for tries := 0; tries < 2; tries++ {
		c := (cls + tries) % 2
		for {
			pkt := ni.headReady(c)
			if pkt == nil {
				break
			}
			lo, hi := ni.net.VCRange(pkt.Class)
			vc := -1
			for v := lo; v <= hi; v++ {
				if ni.vcFree(v) && rtr.vcLen(ni.base+v) < ni.net.bufDepth {
					vc = v
					break
				}
			}
			if vc < 0 {
				break
			}
			ni.injQ[c], _ = fifo.PopFront(ni.injQ[c])
			ni.inflight[c]++
			ni.streams = append(ni.streams, injStream{pkt: pkt, vc: vc})
		}
	}
}

// tickInject pushes at most one flit (the link width) from the active
// streams, starting new streams as VCs free up.
func (ni *NI) tickInject() {
	ni.blocked = [2]bool{}
	ni.startStreams()
	if len(ni.streams) == 0 {
		return
	}
	rtr := ni.net.Routers[ni.router]
	pushed := false
	n := len(ni.streams)
	for i := 0; i < n; i++ {
		idx := (ni.rrStream + i) % n
		st := &ni.streams[idx]
		if rtr.vcLen(ni.base+st.vc) >= ni.net.bufDepth {
			continue
		}
		f := Flit{Pkt: st.pkt, Seq: st.seq}
		if f.Head() {
			st.pkt.Injected = ni.net.now
		}
		rtr.pushFlit(ni.base+st.vc, f)
		ni.ctr.injFlits[st.pkt.Class]++
		st.seq++
		if st.seq >= st.pkt.SizeFlits {
			ni.inflight[st.pkt.Class]--
			ni.streams = fifo.RemoveAt(ni.streams, idx)
		}
		ni.rrStream = idx + 1
		pushed = true
		break
	}
	if !pushed {
		// Streams exist but no VC could accept a flit: stalled.
		for _, st := range ni.streams {
			ni.blocked[st.pkt.Class] = true
		}
	}
}

// accept receives a flit from the router's ejection port.
func (ni *NI) accept(f Flit, vc int) {
	ni.ejBuf[vc].PushBack(f)
	if !ni.net.ejBusy[ni.Node] { // tiles share the line: write it only on change
		ni.net.ejBusy[ni.Node] = true
	}
	ni.ejFlits++
	ni.ctr.ejFlits[f.Pkt.Class]++
	ni.EjFlitsByClass[f.Pkt.Class]++
}

// tickEject delivers assembled packets to the node handler and
// reassembles newly completed packets, returning ejection credits as
// flits leave the NI buffers.
func (ni *NI) tickEject() {
	ni.deliver()
	if len(ni.asm) >= ni.asmCap {
		return
	}
	rtr := ni.net.Routers[ni.router]
	for v := range ni.ejBuf {
		for len(ni.asm) < ni.asmCap {
			buf := &ni.ejBuf[v]
			if buf.Len() == 0 {
				break
			}
			pkt := buf.Front().Pkt
			if buf.Len() < pkt.SizeFlits || buf.At(pkt.SizeFlits-1).Pkt != pkt {
				break // packet not yet complete on this VC
			}
			for i := 0; i < pkt.SizeFlits; i++ {
				buf.PopFront()
			}
			ni.ejFlits -= pkt.SizeFlits
			rtr.addCredit(ni.base+v, pkt.SizeFlits)
			pkt.Ejected = ni.net.now
			ni.net.PktLat[pkt.Prio].Add(float64(pkt.Ejected - pkt.Enqueued))
			if pkt.Trace != nil && ni.net.TraceSink != nil {
				ni.net.TraceSink(pkt)
			}
			ni.asm = append(ni.asm, pkt)
		}
	}
	ni.deliver()
}

func (ni *NI) deliver() {
	for len(ni.asm) > 0 {
		if ni.Handler == nil || !ni.Handler(ni.asm[0]) {
			return
		}
		ni.asm, _ = fifo.PopFront(ni.asm)
	}
}
