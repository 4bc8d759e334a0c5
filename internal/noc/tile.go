package noc

// This file implements the network cycle: a deterministic two-step
// tick over the network's one tile.
//
// The tile is the state the compute step writes: the delay rings of
// deliveries in flight and the awake set of routers to tick. Each cycle
// runs in two steps:
//
//   - Compute: deliver the rings' due slot, inject from the NIs whose
//     injection is due, and tick the awake routers. Routers and NIs
//     write the network's statistics block directly.
//   - Commit: run packet ejection in node order. It is the only step
//     that calls node handlers, so every order-sensitive consumer
//     (float latency samplers, the protocol) sees node order.
//
// Every delivery has delay >= 1 (schedule clamps it): the slot due this
// cycle has already been delivered when routers schedule into the rings.

import (
	"fmt"
	"math/bits"
)

// netCounters is the mutable statistics block of a Network, written
// directly by its routers and NIs.
type netCounters struct {
	// Activity counters (never reset): flits buffered in router input
	// rings, and flit events in flight in the delay rings.
	bufFlits int
	flyFlits int

	// Measurement counters (reset at the end of warmup).
	injFlits [2]int64 // per class
	ejFlits  [2]int64
	flitHops int64
}

// event is a timed delivery to flat VC index vc of a router: the flit
// (pkt, seq) arriving at that input VC, or — pkt nil — a credit for that
// output VC, which the delay rings keep as the 8-byte creditEv.
type event struct {
	pkt             *Packet
	seq, router, vc int32
}

type creditEv struct{ router, vc int32 }

// tile holds the delay rings of deliveries due at the network's
// routers and the set of routers that need ticking.
type tile struct {
	flits   [][]event    // hopDelay+2 slots, indexed by due cycle
	credits [][]creditEv // likewise
	slot    int          // this cycle's ring slot, now mod len(flits)
	// awake holds one bit per router (see Router.awakeWord): the
	// routers compute ticks.
	awake []uint64
}

// schedule queues a delivery `delay` cycles in the future (at least 1).
func (n *Network) schedule(delay int, ev event) {
	t := &n.tile
	if ev.pkt != nil {
		n.ctr.flyFlits++
	}
	slot := t.slot + max(delay, 1)
	if slot >= len(t.flits) {
		slot -= len(t.flits)
	}
	if ev.pkt == nil {
		t.credits[slot] = append(t.credits[slot], creditEv{ev.router, ev.vc})
	} else {
		t.flits[slot] = append(t.flits[slot], ev)
	}
}

// begin advances the clock and the per-port-count switch-allocation
// start counters.
func (n *Network) begin() {
	n.now++
	n.measured++
	for i := range n.saStart {
		c := &n.saStart[i]
		if c.v++; c.v == c.k {
			c.v = 0
		}
	}
}

// Compute opens a cycle and runs its compute step: deliver the rings'
// due slot, inject from the due NIs, tick the awake routers.
func (n *Network) Compute() {
	n.begin()
	t := &n.tile
	if t.slot++; t.slot == len(t.flits) { // every cycle steps the tile: slot == now mod len
		t.slot = 0
	}
	flits := t.flits[t.slot]
	n.ctr.flyFlits -= len(flits)
	for _, ev := range flits {
		n.Routers[ev.router].pushFlit(int(ev.vc), Flit{Pkt: ev.pkt, Seq: int(ev.seq)})
	}
	t.flits[t.slot] = flits[:0]
	for _, ev := range t.credits[t.slot] {
		n.Routers[ev.router].addCredit(int(ev.vc), 1)
	}
	t.credits[t.slot] = t.credits[t.slot][:0]
	for node, at := range n.injDue {
		due := at <= n.now
		if !due && !n.DebugChecks { // with DebugChecks, tick the sleepers too
			continue
		}
		if ni := n.NIs[node]; !ni.injActive() {
			n.injDue[node] = never
		} else if pushed := ni.tickInject(); pushed && !due {
			panic(fmt.Sprintf("noc: sleeping NI %d made progress at cycle %d", node, n.now))
		} else if !pushed && due {
			n.injDue[node] = ni.nextReadyAt() // asleep until then or a wakeInject
		}
	}
	for w, word := range t.awake {
		if n.DebugChecks { // tick the sleepers too: they must make no progress
			word = ^uint64(0)
		}
		for ; word != 0; word &= word - 1 {
			if i := w<<6 + bits.TrailingZeros64(word); i < len(n.Routers) {
				n.Routers[i].tick()
			}
		}
	}
}

// Commit closes the cycle: eject packets in node order.
func (n *Network) Commit() {
	if n.DebugChecks { // recount whole packets (a VC carries one packet at a time: one per tail)
		for node, ni := range n.NIs {
			whole := 0
			for v := range ni.ejBuf {
				for k := range ni.ejBuf[v].Len() {
					if ni.ejBuf[v].At(k).Tail() {
						whole++
					}
				}
			}
			if whole != ni.whole || whole > 0 && !n.ejBusy[node] {
				panic(fmt.Sprintf("noc: NI %d at cycle %d holds %d whole packets, counts %d, busy %v", node, n.now, whole, ni.whole, n.ejBusy[node]))
			}
		}
	}
	for node, busy := range n.ejBusy {
		if busy {
			if ni := n.NIs[node]; ni.ejActive() {
				ni.tickEject()
			} else {
				n.ejBusy[node] = false
			}
		}
	}
}

// forEachPending invokes fn for every scheduled-but-undelivered event
// in the delay rings. Quiet and the credit invariant check use it.
func (n *Network) forEachPending(fn func(event)) {
	t := &n.tile
	for s := range t.flits {
		for _, ev := range t.flits[s] {
			fn(ev)
		}
		for _, c := range t.credits[s] {
			fn(event{router: c.router, vc: c.vc})
		}
	}
}
